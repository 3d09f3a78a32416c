"""CLI: config validation, artifact determinism, verify suites, plot data."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bdspin import cli
from bdspin.birth_death import simulate
from bdspin.cli import SUITES, _load_run_dir, load_config, main
from oracles import shifted_switches
from test_golden_artifacts import OPEN_CONFIG, README_CONFIG


def base_config(**overrides):
    cfg = {
        "schema": "bdspin-run/1",
        "window": {"side": 4.0, "dim": 2, "boundary": "periodic"},
        "kernel": {"variant": "glauber", "z": 2.0,
                   "phi": {"name": "step", "params": [0.5, 1.0]}},
        "death_rate": 1.0,
        "horizon": 0.5,
        "initial_configuration": {"kind": "poisson", "intensity": 0.6},
        "initial_marks": {"kind": "constant", "value": 0.5},
        "coefficients": {
            "single": {"kind": "cubic", "params": [0.4]},
            "pair": {"kind": "exchange", "params": [0.3]},
            "diffusion": {"kind": "tanh", "params": [0.25]},
            "radius": 1.0,
        },
        "integrator": {"dt": 0.03125},
        "scale_params": {"alpha_star": 0.0, "alpha_sup": 1.0, "alpha": 0.2,
                         "beta": 0.7, "p": 4.0, "q": 0.5},
        "seed": 7,
        "replicas": 1,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="run.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**overrides)))
    return path


class TestSimulate:
    def test_minimal_run_produces_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        for name in ("events.jsonl", "marks.csv", "snapshots.jsonl", "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema"] == "bdspin-run/1"
        assert manifest["derived"]["b_max"] == 2.0
        assert manifest["config"]["seed"] == 7

    def test_empty_initial_constant_kernel_births(self, tmp_path):
        cfg = write_config(
            tmp_path,
            kernel={"variant": "constant", "z": 2.0},
            initial_configuration={"kind": "explicit", "points": []},
            death_rate=0.0,
            horizon=1.0,
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "events.jsonl").read_text().strip().splitlines()
        header = json.loads(lines[0])
        assert header["record"] == "header"
        events = [json.loads(l) for l in lines[1:]]
        assert events and all(ev["kind"] == "birth" for ev in events)

    @pytest.mark.parametrize("overrides,field", [
        ({"death_rate": -1.0}, "death_rate"),
        ({"window": {"side": 4.0, "dim": 0}}, "window: dimension"),
        ({"window": {"side": 4.0, "dim": 2, "boundary": "klein"}}, "window: unknown boundary"),
        ({"initial_configuration": {"kind": "explicit", "points": [7]}},
         "initial_configuration.points[0]"),
        ({"initial_configuration": {"kind": "explicit", "points": [
            {"id": 1, "position": [1.0, 1.0]}, {"id": 1, "position": [2.0, 2.0]}]}},
         "initial_configuration.points: duplicate point id 1"),
        ({"initial_configuration": {"kind": "explicit",
                                    "points": [{"id": 1, "position": [1.0, 1.0, 1.0]}]}},
         "initial_configuration.points: position has dimension"),
        ({"window": {"side": 4.0, "dim": 2, "boundary": "open"},
          "initial_configuration": {"kind": "explicit",
                                    "points": [{"id": 1, "position": [5.0, 1.0]}]}},
         "initial_configuration.points: point 1 lies outside"),
        ({"initial_configuration": {"kind": "explicit",
                                    "points": [{"id": 1.5, "position": [1.0, 1.0]}]}},
         "initial_configuration.points: point id 1.5 is not an integer"),
        ({"initial_configuration": {"kind": "explicit",
                                    "points": [{"id": True, "position": [1.0, 1.0]}]}},
         "initial_configuration.points: point id True is not an integer"),
        ({"initial_configuration": {"kind": "explicit",
                                    "points": [{"id": -1, "position": [1.0, 1.0]}]}},
         "initial_configuration.points: point id -1 is negative"),
        ({"seed": True}, "seed: expected"),
        ({"horizon": True}, "horizon: expected"),
        ({"output": {"mark_stride": True}}, "output.mark_stride: expected"),
        ({"kernel": {"variant": "glauber", "z": "2",
                     "phi": {"name": "step", "params": [0.5, 1.0]}}}, "kernel.z: expected"),
        ({"kernel": {"variant": "glauber", "z": -1.0,
                     "phi": {"name": "step", "params": [0.5, 1.0]}}}, "kernel.z: must be"),
        ({"kernel": {"variant": "glauber", "z": True,
                     "phi": {"name": "step", "params": [0.5, 1.0]}}}, "kernel.z: expected"),
        ({"kernel": {"variant": "glauber", "z": 2.0,
                     "phi": {"name": "step", "params": [True, 1.0]}}},
         "kernel.phi.params: expected numbers"),
        ({"coefficients": {"single": {"kind": "cubic", "params": [True]},
                           "pair": {"kind": "exchange", "params": [0.3]},
                           "diffusion": {"kind": "tanh", "params": [0.25]},
                           "radius": 1.0}},
         "coefficients.single.params: expected numbers"),
        ({"kernel": {"variant": "glauber", "z": 2.0,
                     "phi": {"name": "step", "params": [math.nan, 1.0]}}},
         "kernel.phi.params: NaN is not a number"),
        ({"kernel": {"variant": "establishment", "b_max": 40.0,
                     "a": {"name": "step", "params": [1.0, math.nan]},
                     "c": {"name": "step", "params": [0.1, 0.6]},
                     "phi": {"name": "step", "params": [0.4, 0.5]}}},
         "kernel.a.params: NaN is not a number"),
        ({"coefficients": {"single": {"kind": "cubic", "params": [math.nan]},
                           "pair": {"kind": "exchange", "params": [0.3]},
                           "diffusion": {"kind": "tanh", "params": [0.25]},
                           "radius": 1.0}},
         "coefficients.single.params: NaN is not a number"),
        ({"coefficients": {"single": {"kind": "cubic", "params": [0.4]},
                           "pair": {"kind": "exchange", "params": [0.3]},
                           "diffusion": {"kind": "tanh", "params": [math.nan]},
                           "radius": 1.0}},
         "coefficients.diffusion.params: NaN is not a number"),
        ({"initial_marks": {"kind": "constant", "value": math.nan}},
         "initial_marks.value: must be a finite number"),
        ({"initial_marks": {"kind": "radial_gaussian", "amplitude": math.nan, "width": 1.0}},
         "initial_marks.amplitude: must be a finite number"),
        ({"scale_params": {"alpha_star": 0.0, "alpha_sup": 1.0, "alpha": 0.2,
                           "beta": 0.7, "p": math.nan, "q": 0.5}},
         "scale_params.p: must be a finite number"),
        ({"scale_params": {"alpha_star": 0.0, "alpha_sup": 1.0, "alpha": 0.2,
                           "beta": 0.7, "p": math.inf, "q": 0.5}},
         "scale_params.p: must be a finite number"),
        ({"scale_params": {"alpha_star": 0.0, "alpha_sup": math.inf, "alpha": 0.2,
                           "beta": 0.7, "p": 4.0, "q": 0.5}},
         "scale_params.alpha_sup: must be a finite number"),
        ({"scale_params": {"alpha_star": math.nan, "alpha_sup": 1.0, "alpha": 0.2,
                           "beta": 0.7, "p": 4.0, "q": 0.5}},
         "scale_params.alpha_star: must be a finite number"),
        ({"scale_params": {"alpha_star": 0.0, "alpha_sup": 1.0, "alpha": 0.7,
                           "beta": 0.2, "p": 4.0, "q": 0.5}},
         "scale_params: need 0 <= alpha_star <= alpha < beta <= alpha_sup"),
    ], ids=["negative_death_rate", "dim_0", "klein_boundary", "point_not_an_object",
            "duplicate_point_id", "point_wrong_dim", "point_outside_open_window",
            "point_id_fractional", "point_id_true", "point_id_negative",
            "seed_true", "horizon_true", "mark_stride_true", "kernel_z_string",
            "kernel_z_negative", "kernel_z_true", "kernel_phi_param_true",
            "coefficient_param_true", "kernel_phi_param_nan", "kernel_a_param_nan",
            "single_param_nan", "diffusion_param_nan", "initial_value_nan",
            "initial_amplitude_nan", "scale_p_nan", "scale_p_inf", "scale_alpha_sup_inf",
            "scale_alpha_star_nan", "scale_alpha_above_beta"])
    def test_invalid_config_exit_2_names_field(self, tmp_path, capsys, overrides, field):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("text,kind", [("42", "int"), ("null", "NoneType"),
                                           ('["schema"]', "list"), ('"x"', "str")],
                             ids=["number", "null", "list", "string"])
    def test_config_not_an_object_exit_2(self, tmp_path, capsys, command, text, kind):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        out = tmp_path / "o"
        args = [command, "--config", str(cfg), "--out", str(out)]
        assert main(args + (["--suite", "domination"] if command == "verify" else [])) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"config error: config: expected a JSON object, got {kind}"]
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("events.jsonl", "marks.csv", "snapshots.jsonl", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_replicas_have_independent_seeds(self, tmp_path):
        cfg = write_config(tmp_path, replicas=3)
        out = tmp_path / "ens"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--jobs", "1"]) == 0
        dirs = sorted(out.glob("replica_*"))
        assert len(dirs) == 3
        logs = [(d / "events.jsonl").read_bytes() for d in dirs]
        assert logs[0] != logs[1] and logs[1] != logs[2]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_2_before_output(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path, replicas=2)
        out = tmp_path / "ens"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--out", str(out), "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_is_the_only_parallelism_setting(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIM_THREADS", "not a number")
        cfg = write_config(tmp_path, replicas=2)
        out = tmp_path / "ens"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--jobs", "1"]) == 0
        assert len(list(out.glob("replica_*"))) == 2

    def test_no_more_workers_than_replicas(self, tmp_path, monkeypatch, capsys):
        pools = []

        class SyncPool:
            """Records ``max_workers`` and runs each call as it is submitted."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SyncPool)
        two, one = tmp_path / "two", tmp_path / "one"
        assert main(["simulate", "--config", str(write_config(tmp_path, replicas=2)),
                     "--out", str(two)]) == 0
        assert main(["simulate", "--config", str(write_config(tmp_path, replicas=1)),
                     "--out", str(one)]) == 0
        assert pools == [2]  # one replica builds no pool
        assert capsys.readouterr().out.splitlines() == [f"wrote 2 replicas to {two}",
                                                        f"wrote artifacts to {one}"]
        assert len(list(two.glob("replica_*"))) == 2 and (one / "manifest.json").exists()

    def test_pool_writes_the_serial_tree(self, tmp_path):
        cfg = write_config(tmp_path, replicas=2)
        trees = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs_{jobs}"
            assert main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--jobs", jobs]) == 0
            trees.append({f.relative_to(out): f.read_bytes()
                          for f in out.rglob("*") if f.is_file()})
        assert len(trees[0]) == 8 and trees[0] == trees[1]

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1),
                     "--seed", "99"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert ((out1 / "events.jsonl").read_bytes()
                != (out2 / "events.jsonl").read_bytes())


def fecundity_over_bound():
    """A fecundity kernel whose declared b_max (0.5) is below its rate."""
    return {"variant": "fecundity",
            "a": {"name": "step", "params": [1.0, 1.0]},
            "c": {"name": "step", "params": [0.2, 1.0]},
            "phi": {"name": "step", "params": [0.5, 1.0]},
            "b_max": 0.5}


def single_witness_line(err: str) -> dict:
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    assert "Traceback" not in err
    return json.loads(lines[0])


class TestFailureContract:
    @pytest.mark.parametrize("replicas", [1, 2])
    def test_bound_violation_exit_3_removes_created_dir(self, tmp_path, capsys, replicas):
        cfg = write_config(tmp_path, kernel=fecundity_over_bound(), replicas=replicas)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out), "--jobs", "1"])
        assert code == 3
        witness = single_witness_line(capsys.readouterr().err)
        assert witness["error"] == "BoundViolationError"
        assert witness["bound"] == 0.5 and witness["value"] > 0.5
        assert 0.0 < witness["t"] <= 0.5 and len(witness["x"]) == 2
        assert not out.exists()

    def test_failed_run_keeps_existing_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path, kernel=fecundity_over_bound())
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("mine")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        assert (out / "keep.txt").read_text() == "mine"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_file_in_place_of_a_replica_dir_exit_2(self, tmp_path, capsys, jobs):
        # every replica directory is made before any replica runs
        cfg = write_config(tmp_path, replicas=2)
        out = tmp_path / "out"
        out.mkdir()
        blocker = out / "replica_0001"
        blocker.write_text("mine")
        code = main(["simulate", "--config", str(cfg), "--out", str(out), "--jobs", jobs])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: out: cannot create "
                                                       f"directory {blocker}"), lines
        assert blocker.read_text() == "mine"
        assert not list(out.rglob("events.jsonl")) and not list(out.rglob("manifest.json"))

    def test_blow_up_exit_3(self, tmp_path, capsys):
        # explicit Euler on the cubic drift from a huge initial mark overflows
        cfg = write_config(tmp_path, initial_marks={"kind": "constant", "value": 1e100})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        witness = single_witness_line(capsys.readouterr().err)
        assert witness["error"] == "IntegrationBlowUpError"
        assert isinstance(witness["id"], int) and 0.0 < witness["t"] <= 0.5
        assert not out.exists()

    def test_verify_bound_violation_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, kernel=fecundity_over_bound())
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "r"),
                     "--suite", "domination"])
        assert code == 3
        assert single_witness_line(capsys.readouterr().err)["error"] == "BoundViolationError"

    def test_cli_import_does_not_load_scipy(self, tmp_path):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        scipy_modules = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"
        probe = f"import sys, bdspin.cli; print({scipy_modules})"
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"
        # the cutoff suite's rank correlation needs no scipy either
        cfg, out = write_config(tmp_path), tmp_path / "rep"
        probe = ("import sys; from bdspin.cli import main; "
                 f"code = main(['verify', '--config', {str(cfg)!r}, '--out', {str(out)!r}, "
                 f"'--suite', 'cutoff']); print(code, {scipy_modules})")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip().splitlines()[-1] == "0 []"
        report = json.loads((out / "cutoff_report.json").read_text())
        assert len(set(report["estimates"])) > 1  # the correlation was computed

    def test_no_command_loads_numpy_ma(self, tmp_path):
        # np.unique and a plain np.intersect1d import numpy.ma on first use
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        cfg = write_config(tmp_path, replicas=2, horizon=0.25)
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps([
            {"name": "pop", "kind": "count", "box": {"lo": [0.0, 0.0], "hi": [4.0, 4.0]}},
            {"name": "sum", "kind": "mark_sum", "box": {"lo": [0.0, 0.0], "hi": [2.0, 2.0]}},
        ]))
        runs, reports, plots = (str(tmp_path / name) for name in ("runs", "reports", "plots"))
        commands = [["simulate", "--config", str(cfg), "--out", runs, "--jobs", "1"],
                    *(["verify", "--config", str(cfg), "--out", reports, "--suite", suite]
                      for suite in SUITES),
                    ["emit-plotdata", "--artifacts", runs, "--observables", str(obs),
                     "--out", plots]]
        probe = ("import sys; from bdspin.cli import main; "
                 f"codes = [main(c) for c in {commands!r}]; "
                 "print(codes, 'numpy.ma' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip().splitlines()[-1] == f"{[0] * (len(SUITES) + 2)} False"


    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_exit_2_before_output(self, tmp_path, capsys, command, source):
        cfg = write_config(tmp_path, **({"seed": -3} if source == "config" else {}))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        argv += ["--suite", "domination"] if command == "verify" else []
        argv += ["--seed", "-1"] if source == "flag" else []
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            f"config error: seed: must be >= 0, got {-1 if source == 'flag' else -3}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "verify", "emit-plotdata"])
    @pytest.mark.parametrize("where", ["is_a_file", "under_a_file"])
    def test_out_blocked_by_a_file_exit_2(self, tmp_path, capsys, command, where):
        cfg = write_config(tmp_path, horizon=0.25)
        runs, obs = tmp_path / "runs", tmp_path / "obs.json"
        obs.write_text(json.dumps([
            {"name": "pop", "kind": "count", "box": {"lo": [0.0, 0.0], "hi": [4.0, 4.0]}}]))
        if command == "emit-plotdata":
            assert main(["simulate", "--config", str(cfg), "--out", str(runs)]) == 0
            capsys.readouterr()
        blocker = tmp_path / "taken"
        blocker.write_text("mine")
        out = blocker if where == "is_a_file" else blocker / "sub"
        argv = {"simulate": ["simulate", "--config", str(cfg)],
                "verify": ["verify", "--config", str(cfg), "--suite", "bounds"],
                "emit-plotdata": ["emit-plotdata", "--artifacts", str(runs),
                                  "--observables", str(obs)]}[command]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and str(out) in lines[0]
        assert blocker.read_text() == "mine"


class TestVerify:
    def test_domination_and_bounds_pass(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "rep"
        code = main(["verify", "--config", str(cfg), "--out", str(out),
                     "--suite", "domination,bounds"])
        assert code == 0
        dom = json.loads((out / "domination_report.json").read_text())
        assert dom["passed"] and dom["counting_identity"]
        bounds = json.loads((out / "bounds_report.json").read_text())
        assert bounds["passed"]

    def test_gronwall_suite(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "rep"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--suite", "gronwall"]) == 0
        rep = json.loads((out / "gronwall_report.json").read_text())
        assert rep["passed"]
        assert rep["bound_value"] >= rep["measured_value"]

    @pytest.mark.parametrize("overrides", [
        {"kernel": {"variant": "constant", "z": 0.0},
         "initial_configuration": {"kind": "poisson", "intensity": 0.0}},
        {"kernel": OPEN_CONFIG["kernel"],
         "initial_configuration": {"kind": "explicit", "points": []}},
    ], ids=["constant_z0_intensity0", "establishment_empty_gamma0"])
    def test_every_suite_passes_on_an_empty_phantom(self, tmp_path, overrides):
        # the growth bounds are K_T times a sum over no points: 0.0, not
        # inf * 0.0 = NaN, and gronwall takes a configuration with no points
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "rep"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--suite", ",".join(SUITES)]) == 0
        for suite in SUITES:
            constants = []
            rep = json.loads((out / f"{suite}_report.json").read_text(),
                             parse_constant=constants.append)
            assert rep["passed"] and "NaN" not in constants, suite
        for suite in ("gronwall", "moments"):
            rep = json.loads((out / f"{suite}_report.json").read_text())
            assert rep["measured_value"] == rep["bound_value"] == rep["slack"] == 0.0, suite

    def test_gronwall_constant_near_double_max_is_finite(self, tmp_path):
        # README config, side 6, T 1, seed 301: L = 32.31 and K_T = 1.70e308,
        # a representable double whose log exceeds 709
        readme = dict(base_config(), window={"side": 6.0, "dim": 2, "boundary": "periodic"},
                      horizon=1.0, seed=301, integrator={"dt": 0.015625},
                      initial_configuration={"kind": "poisson", "intensity": 0.8})
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(readme))
        out = tmp_path / "rep"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--suite", "gronwall"]) == 0
        consts = json.loads((out / "gronwall_report.json").read_text())["constants_used"]
        assert math.isclose(consts["L"], 32.31, rel_tol=1e-3)
        assert math.isfinite(consts["K_T"])
        assert math.isclose(consts["K_T"], 1.70e308, rel_tol=1e-3)

    def test_cadlag_suite(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "rep"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--suite", "cadlag"]) == 0

    def test_cadlag_suite_fails_on_a_moved_frozen_mark(self, tmp_path, monkeypatch, capsys):
        solve = cli.integrate_marks

        def nudged(traj, *args):
            path = solve(traj, *args)
            dead = int(np.flatnonzero(traj.deaths <= path.grid[-2])[0])  # absent on the last step
            path.values[-1, dead] += 0.5
            return path

        monkeypatch.setattr(cli, "integrate_marks", nudged)
        cfg = write_config(tmp_path)
        report = cli.run_suite(load_config(cfg), "cadlag")
        assert not report["passed"]
        assert 0.4 < report["frozen_mark_deviation"] < 0.6
        out = tmp_path / "rep"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--suite", "cadlag"]) == 1
        assert "witness" in capsys.readouterr().err
        assert not json.loads((out / "cadlag_report.json").read_text())["passed"]

    @pytest.mark.parametrize("shift", [1, -1], ids=["late", "early"])
    def test_cadlag_suite_fails_on_shifted_switches(self, tmp_path, capsys, shift):
        # the benchmark's verify size: README config, side 10, T 0.25
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(dict(README_CONFIG, horizon=0.25, seed=1,
                                       window={"side": 10.0, "dim": 2,
                                               "boundary": "periodic"})))
        assert cli.run_suite(load_config(cfg), "cadlag")["passed"]
        out = tmp_path / "rep"
        with shifted_switches(shift):
            report = cli.run_suite(load_config(cfg), "cadlag")
            assert main(["verify", "--config", str(cfg), "--out", str(out),
                         "--suite", "cadlag"]) == 1
        assert not report["passed"] and report["frozen_mark_deviation"] > 0
        assert "witness" in capsys.readouterr().err

    @pytest.mark.parametrize("suite,message", [("nonsense", "unknown suite"),
                                               (",", "no suite named"),
                                               (" ", "no suite named"),
                                               ("bounds,bounds", "'bounds' is named twice")],
                             ids=["nonsense", "comma", "blank", "repeated"])
    def test_unknown_suite_exit_2(self, tmp_path, capsys, suite, message):
        cfg = write_config(tmp_path)
        out = tmp_path / "r"
        code = main(["verify", "--config", str(cfg), "--out", str(out), "--suite", suite])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_failing_suite_exit_1(self, tmp_path, capsys):
        # misdeclared diffusion Lipschitz constant: bounds suite must fail
        cfg = write_config(
            tmp_path,
            coefficients={
                "single": {"kind": "zero", "params": []},
                "pair": {"kind": "zero", "params": []},
                "diffusion": {"kind": "constant", "params": [1.0]},
                "radius": 1.0,
            },
        )
        data = json.loads(cfg.read_text())
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        import bdspin.cli as cli_mod
        import dataclasses

        orig = cli_mod.check_drift_diffusion_bounds

        def misdeclared(coeffs, **kwargs):
            bad = dataclasses.replace(
                coeffs, diffusion=dataclasses.replace(coeffs.diffusion, lipschitz=0.01))
            return orig(bad, **kwargs)

        cli_mod.check_drift_diffusion_bounds = misdeclared
        try:
            code = main(["verify", "--config", str(path), "--out",
                         str(tmp_path / "r"), "--suite", "bounds"])
        finally:
            cli_mod.check_drift_diffusion_bounds = orig
        assert code == 1
        assert "witness" in capsys.readouterr().err


class TestEmitPlotdata:
    def make_observables(self, tmp_path, specs):
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(specs))
        return path

    def test_count_series_on_pure_death(self, tmp_path):
        cfg = write_config(
            tmp_path,
            kernel={"variant": "constant", "z": 0.0},
            initial_configuration={"kind": "poisson", "intensity": 2.0},
            death_rate=2.0,
            horizon=1.0,
        )
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        obs = self.make_observables(tmp_path, [
            {"name": "population", "kind": "count",
             "box": {"lo": [0.0, 0.0], "hi": [4.0, 4.0]}},
        ])
        plots = tmp_path / "plots"
        assert main(["emit-plotdata", "--artifacts", str(out),
                     "--observables", str(obs), "--out", str(plots)]) == 0
        rows = (plots / "population.csv").read_text().strip().splitlines()[1:]
        values = [float(r.split(",")[3]) for r in rows]
        # pure death: the population series is nonincreasing
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] > values[-1]

    def test_empty_spec_exit_0(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        obs = self.make_observables(tmp_path, [])
        assert main(["emit-plotdata", "--artifacts", str(out),
                     "--observables", str(obs), "--out", str(tmp_path / "p")]) == 0

    @pytest.mark.parametrize("content", [None, "{not json", '{"name": "x"}',
                                         '[{"name": "x", "kind": "count", "box": {}}]'])
    def test_bad_observables_file_exit_2(self, tmp_path, capsys, content):
        cfg = write_config(tmp_path, horizon=0.125)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        obs = tmp_path / "obs.json"
        if content is not None:
            obs.write_text(content)
        code = main(["emit-plotdata", "--artifacts", str(out),
                     "--observables", str(obs), "--out", str(tmp_path / "p")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "observables" in err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("specs, message", [
        ([{"lo": ["a", 0]}], "observables[0].box.lo: expected numbers, got ['a', 0]"),
        ([{"lo": [True, 0]}], "observables[0].box.lo: expected numbers, got [True, 0]"),
        ([{}, {"hi": [1, math.nan]}],
         "observables[1].box.hi: NaN is not a number, got [1, nan]"),
        ([{"lo": [0, 0, 0], "hi": [1, 1, 1]}], "observables[0].box: 3-d, the run is 2-d"),
        ([{"name": "../x"}], "observables[0].name: '../x' is not a plain file name"),
        ([{}, {}], "observables[1].name: 'a' would overwrite a.csv of observables[0]"),
    ], ids=["string_coordinate", "bool_coordinate", "nan_coordinate", "box_of_another_dim",
            "name_with_a_path", "name_twice"])
    def test_bad_observable_spec_exit_2_before_output(self, tmp_path, capsys, specs, message):
        cfg = write_config(tmp_path, horizon=0.125)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        obs = self.make_observables(tmp_path, [
            {"name": spec.pop("name", "a"), "kind": "count",
             "box": {"lo": spec.pop("lo", [0, 0]), "hi": spec.pop("hi", [1, 1])}}
            for spec in specs])
        code = main(["emit-plotdata", "--artifacts", str(out),
                     "--observables", str(obs), "--out", str(tmp_path / "p")])
        assert code == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"config error: {message}"]
        assert not (tmp_path / "p").exists() and not (tmp_path / "x.csv").exists()

    def test_missing_artifacts_exit_2(self, tmp_path):
        obs = self.make_observables(tmp_path, [
            {"name": "x", "kind": "count", "box": {"lo": [0, 0], "hi": [1, 1]}},
        ])
        code = main(["emit-plotdata", "--artifacts", str(tmp_path / "nope"),
                     "--observables", str(obs), "--out", str(tmp_path / "p")])
        assert code == 2
        assert not (tmp_path / "p").exists()
        # a file where the run directory should be
        code = main(["emit-plotdata", "--artifacts", str(obs),
                     "--observables", str(obs), "--out", str(tmp_path / "p")])
        assert code == 2
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("artifact", ["manifest.json", "events.jsonl", "marks.csv"])
    def test_missing_run_artifact_exit_2(self, tmp_path, capsys, artifact):
        # a run directory without its manifest is not a finished run
        cfg = write_config(tmp_path, replicas=2, horizon=0.125)
        out = tmp_path / "ens"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--jobs", "1"]) == 0
        (out / "replica_0001" / artifact).unlink()
        obs = self.make_observables(tmp_path, [
            {"name": "x", "kind": "count", "box": {"lo": [0, 0], "hi": [1, 1]}},
        ])
        capsys.readouterr()
        code = main(["emit-plotdata", "--artifacts", str(out),
                     "--observables", str(obs), "--out", str(tmp_path / "p")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(out / "replica_0001" / artifact) in err[0]
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("corruption", ["missing_id_rows", "unknown_id_death",
                                            "truncated_line", "ragged_marks",
                                            "repeated_mark_row", "not_an_event_record",
                                            "unordered_events", "blank_marks",
                                            "header_not_an_object", "window_without_side",
                                            "gamma0_record_without_id",
                                            "gamma0_id_fractional", "gamma0_id_true",
                                            "gamma0_id_negative",
                                            "kernel_without_z", "birth_position_wrong_dim",
                                            "window_norm_origin_moved", "time_a_string",
                                            "death_id_true", "death_position_strings",
                                            "death_position_3d", "death_onto_another_point"])
    def test_corrupt_run_exit_2_before_output(self, tmp_path, capsys, corruption):
        cfg = write_config(tmp_path, horizon=0.25)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "marks.csv").read_text().splitlines()
        if corruption == "missing_id_rows":
            pid = lines[1].split(",")[1]
            kept = [line for line in lines if line.split(",")[1] != pid]
            (out / "marks.csv").write_text("\n".join(kept) + "\n")
        elif corruption == "ragged_marks":  # the id's row at the last time only
            (out / "marks.csv").write_text("\n".join(lines[:-1]) + "\n")
        elif corruption == "repeated_mark_row":  # a copy of the last row, another value
            t, pid, _ = lines[-1].split(",")
            (out / "marks.csv").write_text("\n".join(lines + [f"{t},{pid},123.0"]) + "\n")
        elif corruption == "blank_marks":  # the header and a blank line, no rows
            (out / "marks.csv").write_text(lines[0] + "\n\n")
        elif corruption == "unordered_events":  # the last birth moved before the others
            header, *records = (out / "events.jsonl").read_text().splitlines()
            last = max(i for i, r in enumerate(records) if json.loads(r)["kind"] == "birth")
            assert json.loads(records[0])["t"] < json.loads(records[last])["t"]
            records.insert(0, records.pop(last))
            (out / "events.jsonl").write_text("\n".join([header] + records) + "\n")
        elif corruption.startswith(("header", "window", "gamma0", "kernel")):
            header, *records = (out / "events.jsonl").read_text().splitlines()
            header = json.loads(header)
            if corruption == "header_not_an_object":
                header = []
            elif corruption == "window_without_side":
                header["window"] = {}
            elif corruption == "window_norm_origin_moved":  # a torus norm is from the centre
                assert header["window"]["norm_origin"] == [2.0, 2.0]
                header["window"]["norm_origin"] = [0.0, 0.0]
            elif corruption == "gamma0_record_without_id":
                del header["gamma0"][0]["id"]
            elif corruption == "gamma0_id_fractional":  # int() would give the id back
                header["gamma0"][-1]["id"] += 0.5
            elif corruption == "gamma0_id_true":  # int() would give 1, the id it replaces
                assert header["gamma0"][1]["id"] == 1
                header["gamma0"][1]["id"] = True
            elif corruption == "gamma0_id_negative":  # no noise stream has a negative key
                header["gamma0"][-1]["id"] = -1
            else:
                assert header["kernel"]["variant"] == "glauber"
                del header["kernel"]["z"]
            (out / "events.jsonl").write_text("\n".join([json.dumps(header)] + records) + "\n")
        elif corruption == "birth_position_wrong_dim":  # a 3-d birth in a 2-d window
            header, *records = (out / "events.jsonl").read_text().splitlines()
            records = [json.loads(r) for r in records]
            birth = next(r for r in records if r["kind"] == "birth")
            birth["position"].append(1.0)
            (out / "events.jsonl").write_text(
                "\n".join([header] + [json.dumps(r) for r in records]) + "\n")
        elif corruption == "time_a_string" or corruption.startswith("death_"):
            header, *records = (out / "events.jsonl").read_text().splitlines()
            records = [json.loads(r) for r in records]
            # not a death of id 1, which a true id would read as
            death = next(r for r in records if r["kind"] == "death" and r["id"] > 1)
            if corruption == "time_a_string":
                death["t"] = str(death["t"])
            elif corruption == "death_id_true":
                death["id"] = True
            elif corruption == "death_position_strings":
                death["position"] = ["a", "b"]
            elif corruption == "death_position_3d":
                death["position"].append(1.0)
            else:
                other = next(p for p in json.loads(header)["gamma0"] if p["id"] != death["id"])
                death["position"] = other["position"]
            (out / "events.jsonl").write_text(
                "\n".join([header] + [json.dumps(r) for r in records]) + "\n")
        elif corruption in ("unknown_id_death", "not_an_event_record"):
            record = ({"t": 0.25, "kind": "death", "id": 999, "position": [1.0, 1.0]}
                      if corruption == "unknown_id_death" else {"t": 0.25})
            with open(out / "events.jsonl", "a") as fh:
                fh.write(json.dumps(record) + "\n")
        else:
            text = (out / "events.jsonl").read_text()
            (out / "events.jsonl").write_text(text[:-20])
        obs = self.make_observables(tmp_path, [
            {"name": "x", "kind": "count", "box": {"lo": [0, 0], "hi": [1, 1]}},
        ])
        capsys.readouterr()
        code = main(["emit-plotdata", "--artifacts", str(out),
                     "--observables", str(obs), "--out", str(tmp_path / "p")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and f"corrupt run directory {out}" in err
        if corruption == "gamma0_id_negative":  # caught at the header, not at marks.csv
            assert "point id -1 is negative" in err
        # caught at the record itself, not at the header or a later death
        cause = {"time_a_string": "not an event record", "death_id_true": "not an event record",
                 "death_position_strings": "not an event record",
                 "death_position_3d": "is not 2-d",
                 "death_onto_another_point": "is not at the position of its particle"}
        if corruption in cause:
            assert cause[corruption] in err and "header" not in err, err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("t", [math.nan, 5.0], ids=["nan", "after_horizon"])
    def test_event_time_outside_horizon_exit_2_before_output(self, tmp_path, capsys, t):
        cfg = write_config(tmp_path, horizon=1.0)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header, *records = (out / "events.jsonl").read_text().splitlines()
        last = json.loads(records[-1])
        last["t"] = t  # json writes NaN, and reads it back
        records[-1] = json.dumps(last)
        (out / "events.jsonl").write_text("\n".join([header] + records) + "\n")
        obs = self.make_observables(tmp_path, [
            {"name": "x", "kind": "count", "box": {"lo": [0, 0], "hi": [1, 1]}},
        ])
        capsys.readouterr()
        code = main(["emit-plotdata", "--artifacts", str(out),
                     "--observables", str(obs), "--out", str(tmp_path / "p")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"corrupt run directory {out}: ")
        assert (f"{last['kind']} of id {last['id']} at t={t} lies outside [0, T] "
                "for the horizon T=1.0") in err[0]
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("key", ["window", "gamma0", "kernel", "m", "T", "seed"])
    def test_header_without_key_exit_2_before_output(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, horizon=0.25)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header, *records = (out / "events.jsonl").read_text().splitlines()
        header = json.loads(header)
        del header[key]
        (out / "events.jsonl").write_text("\n".join([json.dumps(header)] + records) + "\n")
        obs = self.make_observables(tmp_path, [
            {"name": "x", "kind": "count", "box": {"lo": [0, 0], "hi": [1, 1]}},
        ])
        capsys.readouterr()
        code = main(["emit-plotdata", "--artifacts", str(out),
                     "--observables", str(obs), "--out", str(tmp_path / "p")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"corrupt run directory {out}: header has no {key!r}"]
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("case", ["glauber-1", "glauber-2", "glauber-3", "open"])
    def test_loaded_trajectory_equals_simulated(self, tmp_path, case):
        # the run directory holds gamma0 and the event log; presence and the
        # phantom derived from them equal those of the simulated path
        raw = OPEN_CONFIG if case == "open" else base_config(seed=int(case[-1]), horizon=1.0)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        cfg = load_config(cfg_path)
        traj = simulate(cfg.build_gamma0(cfg.seed), cfg.kernel, cfg.death_rate,
                        cfg.horizon, cfg.seed)
        assert any(ev.kind == "death" for ev in traj.events)
        loaded = _load_run_dir(out).base
        assert loaded.presence == traj.presence
        assert loaded.phantom_ids() == traj.phantom_ids()
        assert loaded.phantom_xy.tolist() == traj.phantom_xy.tolist()

    def test_ensemble_aggregate_rows_match_grid(self, tmp_path):
        cfg = write_config(tmp_path, replicas=3, horizon=0.25)
        out = tmp_path / "ens"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--jobs", "1"]) == 0
        obs = self.make_observables(tmp_path, [
            {"name": "pop", "kind": "count",
             "box": {"lo": [0.0, 0.0], "hi": [4.0, 4.0]}},
        ])
        plots = tmp_path / "plots"
        assert main(["emit-plotdata", "--artifacts", str(out),
                     "--observables", str(obs), "--out", str(plots)]) == 0
        agg = (plots / "pop_aggregate.csv").read_text().strip().splitlines()
        # aggregate rows cover the shared dt lattice: horizon/dt + 1 points
        assert len(agg) - 1 == int(0.25 / 0.03125) + 1

    def empty_phantom_run(self, tmp_path, stride=1):
        # nothing is ever present: marks.csv is its header alone
        cfg = write_config(
            tmp_path,
            window={"side": 4.0, "dim": 2, "boundary": "periodic"},
            kernel={"variant": "constant", "z": 0.0},
            initial_configuration={"kind": "explicit", "points": []},
            integrator={"dt": 0.015625},
            horizon=0.25,
            output={"mark_stride": stride, "snapshot_stride": 1},
        )
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "marks.csv").read_text() == "t,id,value\n"
        assert len((out / "snapshots.jsonl").read_text().splitlines()) == 17
        return out

    @pytest.mark.parametrize("stride", [1, 3])
    def test_empty_phantom_series_is_zero_on_the_grid(self, tmp_path, stride):
        out = self.empty_phantom_run(tmp_path, stride)
        obs = self.make_observables(tmp_path, [
            {"name": "n", "kind": "count", "box": {"lo": [0.0, 0.0], "hi": [4.0, 4.0]}},
        ])
        plots = tmp_path / "plots"
        assert main(["emit-plotdata", "--artifacts", str(out),
                     "--observables", str(obs), "--out", str(plots)]) == 0
        times = [repr(j / 64) for j in range(0, 17, stride)]
        rows = (plots / "n.csv").read_text().splitlines()[1:]
        assert rows == [f"0,{t},n,0.0" for t in times]
        agg = (plots / "n_aggregate.csv").read_text().splitlines()[1:]
        assert agg == [f"{t},n,0.0,0.0" for t in times]

    @pytest.mark.parametrize("manifest", ['{"config": {}}', '{"config": {"integrator": '
                                          '{"dt": 0}}}', "not json"])
    def test_empty_phantom_without_grid_exit_2(self, tmp_path, capsys, manifest):
        out = self.empty_phantom_run(tmp_path)
        (out / "manifest.json").write_text(manifest)
        obs = self.make_observables(tmp_path, [
            {"name": "n", "kind": "count", "box": {"lo": [0.0, 0.0], "hi": [4.0, 4.0]}},
        ])
        capsys.readouterr()
        assert main(["emit-plotdata", "--artifacts", str(out),
                     "--observables", str(obs), "--out", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"corrupt run directory {out}: manifest.json: no usable")
        assert not (tmp_path / "p").exists()
