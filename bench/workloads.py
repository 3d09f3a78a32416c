"""The benchmark's workloads: the operations each runs and their checks.

Every workload builds its inputs from the benchmark seed only: a run draws a
pool of ``pool`` config seeds, ``1000 * seed + k``, and round ``r`` runs the
``cases`` inputs that follow in the pool, cycling.  The cost of one input
varies a lot with its seed (the Gronwall suite's grid doubles with each
refinement it needs), so the median over rounds that each take a different
part of the pool repeats from seed to seed far better than one fixed input
or one sum over the pool.  A run covers the whole pool at least once, so
its memory high-water mark is always taken over the same inputs.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from bdspin import cli
from layers import SCALING_SIDES

# README example config; each workload overrides the window, horizon and seed
BASE_CONFIG = {
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
}


@dataclass
class Op:
    """One timed operation and the check of its outputs."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    label: str = ""


def run_cli(argv: list[str]) -> int:
    """``bdspin.cli.main`` in-process, with its progress lines swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _exit_ok(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}"]


class Workload:
    """Sizes are class attributes; ``tiny=True`` swaps in ``TINY`` (self-test)."""

    name = ""
    side = 5.0
    horizon = 1.0
    cases = 1
    pool = 1
    TINY = {"side": 4.0, "horizon": 0.5, "cases": 1, "pool": 1}

    def __init__(self, work_dir: Path, seed: int, *, tiny: bool = False):
        self.dir = work_dir
        self.seed = seed
        if tiny:
            self.__dict__.update(self.TINY)
        self.dir.mkdir(parents=True, exist_ok=True)

    @property
    def rounds_per_pool(self) -> int:
        return -(-self.pool // self.cases)

    def pool_seeds(self) -> list[int]:
        return [1000 * self.seed + k for k in range(self.pool)]

    def case_seeds(self, round_index: int) -> list[int]:
        pool, first = self.pool_seeds(), self.cases * round_index
        return [pool[(first + i) % self.pool] for i in range(self.cases)]

    def write_config(self, name: str, seed: int, side: float, **overrides) -> Path:
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg.update(seed=seed, horizon=self.horizon,
                   window={"side": float(side), "dim": 2, "boundary": "periodic"},
                   **overrides)
        path = self.dir / name
        path.write_text(json.dumps(cfg, indent=1))
        return path

    def setup_inputs(self) -> tuple[Path, Path | None]:
        """Config (and observables spec) that every CLI invocation reads first."""
        raise NotImplementedError

    def operations(self, round_index: int) -> list[Op]:
        raise NotImplementedError

    def warmup_operations(self, round_index: int) -> list[Op]:
        """The untimed round run before the timed ones."""
        return self.operations(round_index)


class RunAndPlot(Workload):
    """simulate (two replicas, --jobs 1) then emit-plotdata over nested boxes."""

    name = "run_and_plot"
    side = 8.0
    horizon = 1.0
    cases = 1
    pool = 12

    def __init__(self, work_dir, seed, *, tiny=False):
        super().__init__(work_dir, seed, tiny=tiny)
        self.observables = []
        for frac in (0.5, 1.0):
            lo = self.side * (1 - frac) / 2
            box = {"lo": [lo, lo], "hi": [lo + self.side * frac] * 2}
            self.observables.append({"name": f"count_{frac}", "kind": "count", "box": box})
            self.observables.append({"name": f"mark_sum_{frac}", "kind": "mark_sum",
                                     "box": box})
        self.obs_path = self.dir / "observables.json"
        self.obs_path.write_text(json.dumps(self.observables, indent=1))
        self.parsed: dict[int, list[checks.RunDir]] = {}  # simulate check -> emit check

    def config(self, seed: int) -> Path:
        return self.write_config(f"run_{seed}.json", seed, self.side, replicas=2)

    def setup_inputs(self):
        return self.config(self.case_seeds(0)[0]), self.obs_path

    def run_dirs(self, i: int) -> list[Path]:
        return [self.dir / f"out_{i}" / f"replica_{r:04d}" for r in range(2)]

    def operations(self, round_index):
        ops = []
        for i, seed in enumerate(self.case_seeds(round_index)):
            config = self.config(seed)
            out, plots = self.dir / f"out_{i}", self.dir / f"plots_{i}"

            def simulate(config=config, out=out):
                shutil.rmtree(out, ignore_errors=True)
                return run_cli(["simulate", "--config", str(config), "--out", str(out),
                                "--jobs", "1"])

            def check_simulate(code, i=i):
                if code != 0:
                    return _exit_ok(code)
                self.parsed[i] = [checks.RunDir(d) for d in self.run_dirs(i)]
                return [p for run in self.parsed[i] for p in checks.check_run_dir(run)]

            def emit(out=out, plots=plots):
                shutil.rmtree(plots, ignore_errors=True)
                return run_cli(["emit-plotdata", "--artifacts", str(out),
                                "--observables", str(self.obs_path), "--out", str(plots)])

            def check_emit(code, i=i, plots=plots):
                if code != 0:
                    return _exit_ok(code)
                runs = self.parsed.pop(i, None) or [checks.RunDir(d) for d in self.run_dirs(i)]
                return checks.check_plotdata(runs, self.observables, plots)

            ops.append(Op("simulate", simulate, check_simulate))
            ops.append(Op("emit-plotdata", emit, check_emit))
        return ops


class WindowScaling(Workload):
    """build_gamma0 -> simulate -> integrate_marks at two window sides, no writers."""

    name = "window_scaling"
    sides = SCALING_SIDES
    horizon = 2.0
    cases = 1
    pool = 5
    TINY = {"sides": (3, 6), "horizon": 0.5, "cases": 1, "pool": 1}

    def setup_inputs(self):
        seed = self.case_seeds(0)[0]
        return self.write_config(f"core_{seed}.json", seed, self.sides[0]), None

    def warmup_operations(self, round_index):
        return [self.core_op(self.case_seeds(round_index)[0], self.sides[0])]

    def operations(self, round_index):
        ops = []
        for seed in self.case_seeds(round_index):
            for side in self.sides:
                ops.append(self.core_op(seed, side))
        return ops

    def core_op(self, seed: int, side: int) -> Op:
        config = self.write_config(f"core_{seed}_{side}.json", seed, side)

        def core():
            cfg = cli.load_config(config)
            gamma0 = cfg.build_gamma0(cfg.seed)
            traj = cli.simulate(gamma0, cfg.kernel, cfg.death_rate, cfg.horizon, cfg.seed)
            path = cli.integrate_marks(traj, cfg.coeffs, cfg.init_marks, cfg.icfg, cfg.seed)
            return gamma0, traj, path, cfg.icfg.dt

        return Op(f"core_side{side}", core, lambda result: checks.check_core(*result),
                  label=f"side{side}")


class VerifySuites(Workload):
    """bdspin verify with all six suites on one mid-size config."""

    name = "verify_suites"
    side = 10.0
    horizon = 0.25
    cases = 1
    pool = 12

    def setup_inputs(self):
        seed = self.case_seeds(0)[0]
        return self.write_config(f"verify_{seed}.json", seed, self.side), None

    def operations(self, round_index):
        ops = []
        for i, seed in enumerate(self.case_seeds(round_index)):
            config = self.write_config(f"verify_{seed}.json", seed, self.side)
            reports = self.dir / f"reports_{i}"

            def verify(config=config, reports=reports):
                shutil.rmtree(reports, ignore_errors=True)
                return run_cli(["verify", "--config", str(config), "--out", str(reports),
                                "--suite", ",".join(cli.SUITES)])

            def check(code, reports=reports):
                if code != 0:
                    return _exit_ok(code)
                return checks.check_verify_reports(reports, cli.SUITES, self.horizon)

            ops.append(Op("verify", verify, check))
        return ops


WORKLOADS = {w.name: w for w in (RunAndPlot, WindowScaling, VerifySuites)}
