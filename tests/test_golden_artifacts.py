"""Golden artifact hashes: a refactor must not change a single output byte.

Each config below is run through the CLI and the SHA-256 of every artifact
is compared against a recorded value.  A mismatch means the event log, the
mark path, the snapshots, the manifest, the plot data or a verify suite's
report changed; that is only acceptable together with a deliberate schema bump, in which case the
hashes are re-recorded by running this module's ``_record`` helper:

    PYTHONPATH=src python -c "import tests.test_golden_artifacts as g; g._record()"

The hashes hold for one numpy build on one set of SIMD targets: they were
recorded with numpy 2.4.6 on x86-64 with the AVX-512 targets X86_V4,
AVX512_ICL and AVX512_SPR enabled.  numpy picks its elementwise loops by the
CPU at run time, and they need not agree in the last bit: float64 ``x ** 3``
on 360 000 normals gives other bits with those three targets disabled
(``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``), where
``np.tanh`` does not.  Each assertion's message names the running numpy and
its enabled AVX-512 targets, so a mismatch on another machine says so.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from bdspin.cli import main

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

BUILD = "numpy {}, enabled AVX-512 targets: {}".format(np.__version__, " ".join(
    t for t in __cpu_dispatch__
    if __cpu_features__.get(t) and (t == "X86_V4" or t.startswith("AVX512"))) or "none")

ARTIFACTS = ("events.jsonl", "marks.csv", "snapshots.jsonl", "manifest.json")

# the README example config on a side-5 periodic window
README_CONFIG = {
    "schema": "bdspin-run/1",
    "window": {"side": 5.0, "dim": 2, "boundary": "periodic"},
    "kernel": {"variant": "glauber", "z": 2.0,
               "phi": {"name": "step", "params": [0.5, 1.0]}},
    "death_rate": 1.0,
    "horizon": 1.0,
    "initial_configuration": {"kind": "poisson", "intensity": 0.8},
    "initial_marks": {"kind": "constant", "value": 0.5},
    "coefficients": {
        "single": {"kind": "cubic", "params": [0.4]},
        "pair": {"kind": "exchange", "params": [0.3]},
        "diffusion": {"kind": "tanh", "params": [0.25]},
        "radius": 1.0,
    },
    "integrator": {"dt": 0.015625, "scheme": "euler"},
    "scale_params": {"alpha_star": 0.0, "alpha_sup": 1.0,
                     "alpha": 0.2, "beta": 0.7, "p": 4.0, "q": 0.5},
    "seed": 42,
    "replicas": 1,
    "output": {"mark_stride": 1, "snapshot_stride": 1, "persist_driving": False},
}

# open boundary, establishment kernel with a gaussian damping, a radial
# initial mark field, the tamed scheme and output strides
OPEN_CONFIG = {
    "schema": "bdspin-run/1",
    "window": {"side": 4.0, "dim": 2, "boundary": "open"},
    "kernel": {"variant": "establishment",
               "a": {"name": "step", "params": [1.0, 1.2]},
               "c": {"name": "step", "params": [0.1, 0.6]},
               "phi": {"name": "gaussian", "params": [0.4, 0.5, 1.0]},
               "b_max": 40.0},
    "death_rate": 0.7,
    "horizon": 0.75,
    "initial_configuration": {"kind": "poisson", "intensity": 1.0},
    "initial_marks": {"kind": "radial_gaussian", "amplitude": 1.5, "width": 1.0},
    "coefficients": {
        "single": {"kind": "linear", "params": [-0.5]},
        "pair": {"kind": "linear", "params": [0.2]},
        "diffusion": {"kind": "constant", "params": [0.3]},
        "radius": 0.8,
    },
    "integrator": {"dt": 0.03125, "scheme": "tamed"},
    "scale_params": {"alpha_star": 0.0, "alpha_sup": 1.0,
                     "alpha": 0.2, "beta": 0.7, "p": 4.0, "q": 0.5},
    "seed": 11,
    "replicas": 1,
    "output": {"mark_stride": 2, "snapshot_stride": 3, "persist_driving": False},
}

PLOT_OBSERVABLES = [
    {"name": "count_all", "kind": "count", "box": {"lo": [0.0, 0.0], "hi": [5.0, 5.0]}},
    {"name": "count_mid", "kind": "count", "box": {"lo": [1.0, 1.0], "hi": [4.0, 4.0]}},
    {"name": "marks_all", "kind": "mark_sum", "box": {"lo": [0.0, 0.0], "hi": [5.0, 5.0]}},
    {"name": "marks_mid", "kind": "mark_sum", "box": {"lo": [1.5, 1.5], "hi": [3.5, 3.5]}},
]

GOLDEN = {
    "readme": {
        "events.jsonl": "8ff445a3cacbf2b47e0168fd83026e8f00f79416f83771689d4726bf6317c014",
        "marks.csv": "daa7f0c5aefbfa24e13e557e62275624c5741a2943185df651637f8b4b06aec1",
        "snapshots.jsonl": "665909803aa52bcf54877d051ea580872924cc731beade300ea06821e0c1f272",
        "manifest.json": "f1550e85cc1ce746cc5abaf9ef3e19561cd3d88f2700b185be7a454ab2061ceb",
    },
    "open": {
        "events.jsonl": "565053cfd3fa07920e85f0b890307cf89753f6fe6062c208bec6d9b8635fbea5",
        "marks.csv": "edb86b0fa1d5a6e1b8e711e21f085e102e0cf7b66f8477ed77dc81381cb5b795",
        "snapshots.jsonl": "0869ef1482409066bfd87163cbfb482c1c2218eb02c53f2b4b03df90c5d61ac7",
        "manifest.json": "be7669ff4ac815c75c7cc435e4b7084da626d9395e8713717ccf9cef19d00dc6",
    },
    "plot": {
        "count_all.csv": "11d96e10dd0f0be6627682d64fdedff210fe96f19c14446694d1b9478ccf6abf",
        "count_all_aggregate.csv": "2c4df05f43c74f9ecb01ee51606c32baf0c76cdc436e8dde7bbfd1dc2d071010",
        "count_mid.csv": "f75611c1679611cc39940d4026077a5d95aa34591e005043b0410cd827732571",
        "count_mid_aggregate.csv": "99dfa9ec32cfea8707790b79e314d60276cf2d617a16d9000f6a79a16c8fb9bf",
        "marks_all.csv": "ea7c37241442aa239a59fe4a2f18a8ad7e45cb9bc7030d7aeec7006a5c6a47ff",
        "marks_all_aggregate.csv": "c30170083a6be10bb007d6cef651ffab8765c35b21cbf319110b1ffc2b0a00ad",
        "marks_mid.csv": "f023085f7501211d591f7e2801b2b9435c44b42a4aca9aaae11294e990f72b40",
        "marks_mid_aggregate.csv": "55f48fbc4a64562e49beef9222710bfe88fce7b3b0fc17aeed5276205c6d5878",
    },
    # ``bdspin verify --suite <suite>`` on the two run configs
    "reports": {
        "domination": {
            "readme": "f654198e7a52fb63636dbdd8fbf141f4242b233e91f26a0ef5cf4f4d22de3203",
            "open": "4df581e937bef24276e35a7dd6f28b5055064020026a30eebd5c03575ce28cce",
        },
        "gronwall": {
            "readme": "834e190b0c4560f644b378ce44584c9ce0ecd85ee424a02bda82599081758b26",
            "open": "d283a9c5db6a10dadac483000644690ee647dff5442b6d91e4639ee3045ca4fd",
        },
        "cutoff": {
            "readme": "78814ef8b169f90ca38d4fe6087ea3561f08511712bc2d3e7bfcf5522bbd8790",
            "open": "0bc3399a0508f421c457b4f1f6b9256874f88d7dcbde4d85e0214d7b6440408f",
        },
        "moments": {
            "readme": "2acc41c5ebea7d1e2b50cf1245c0a4d345a069f46e0318ea237295a0e4f6601f",
            "open": "70d259104952e2aaa21a9cf1dd4d54cfd23426c2b8324b5e802c39919f400e5b",
        },
        "cadlag": {
            "readme": "2029ebc440d4c1cd4dcf9b96e0724a3d7dab8c737aa4389200a0a3384b2034aa",
            "open": "45e8c1bb0dfef631eed56c900fdba11d7fa2f87591e4b6ea48c31e2ca4dcd14b",
        },
        "bounds": {
            "readme": "dd986b61375fa6cec9a6ed355d06225924b31c33156126b671017c7f39e648dc",
            "open": "bdb88a9a00c64c00c0c5e017509a742471da5dbf7cc48bbe93a88934c4250564",
        },
    },
}

RUN_CONFIGS = [("readme", README_CONFIG), ("open", OPEN_CONFIG)]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_config(tmp: Path, name: str, config: dict) -> Path:
    cfg_path = tmp / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    return cfg_path


def _simulate(tmp: Path, name: str, config: dict, extra: tuple[str, ...] = ()) -> Path:
    cfg_path = _write_config(tmp, name, config)
    out = tmp / name
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out), *extra]) == 0
    return out


def _run_hashes(tmp: Path, name: str, config: dict) -> dict[str, str]:
    out = _simulate(tmp, name, config)
    return {a: _sha256(out / a) for a in ARTIFACTS}


def _plot_hashes(tmp: Path) -> dict[str, str]:
    # two replicas of the README config at a shorter horizon, then plot data
    config = dict(README_CONFIG, horizon=0.5, replicas=2)
    out = _simulate(tmp, "ensemble", config, ("--jobs", "1"))
    obs = tmp / "obs.json"
    obs.write_text(json.dumps(PLOT_OBSERVABLES))
    plots = tmp / "plots"
    assert main(["emit-plotdata", "--artifacts", str(out),
                 "--observables", str(obs), "--out", str(plots)]) == 0
    return {p.name: _sha256(p) for p in sorted(plots.iterdir())}


def _report_hash(tmp: Path, name: str, config: dict, suite: str) -> str:
    out = tmp / f"{name}_{suite}"
    assert main(["verify", "--config", str(_write_config(tmp, name, config)),
                 "--suite", suite, "--out", str(out)]) == 0
    return _sha256(out / f"{suite}_report.json")


def _record() -> None:
    """Print the current hashes in the layout of ``GOLDEN``, as the only
    output (the CLI's progress lines are silenced)."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        tmp = Path(tmp)
        current = {
            "readme": _run_hashes(tmp, "readme", README_CONFIG),
            "open": _run_hashes(tmp, "open", OPEN_CONFIG),
            "plot": _plot_hashes(tmp),
            "reports": {suite: {name: _report_hash(tmp, name, config, suite)
                                for name, config in RUN_CONFIGS}
                        for suite in GOLDEN["reports"]},
        }
    print(json.dumps(current, indent=4))


@pytest.mark.parametrize("name,config", RUN_CONFIGS)
def test_run_artifacts_match_golden_hashes(tmp_path, name, config):
    assert _run_hashes(tmp_path, name, config) == GOLDEN[name], BUILD


def test_plot_data_matches_golden_hashes(tmp_path):
    assert _plot_hashes(tmp_path) == GOLDEN["plot"], BUILD


@pytest.mark.parametrize("name,config", RUN_CONFIGS)
def test_cadlag_report_matches_golden_hash(tmp_path, name, config):
    got = _report_hash(tmp_path, name, config, "cadlag")
    assert got == GOLDEN["reports"]["cadlag"][name], BUILD


@pytest.mark.parametrize("suite", [s for s in GOLDEN["reports"] if s != "cadlag"])
@pytest.mark.parametrize("name,config", RUN_CONFIGS)
def test_suite_report_matches_golden_hash(tmp_path, name, config, suite):
    got = _report_hash(tmp_path, name, config, suite)
    assert got == GOLDEN["reports"][suite][name], BUILD


def test_record_prints_golden_as_json(capsys):
    _record()
    assert json.loads(capsys.readouterr().out) == GOLDEN, BUILD
