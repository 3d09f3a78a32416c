"""bdspin benchmark: one named workload, timed in-process, outputs checked.

    python3 bench/run.py --workload run_and_plot --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Set-up (``setup_s``) is timed in fresh interpreters; the workload's
operations then run in rounds until ``--seconds`` have passed, each round's
outputs are checked, and the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` wraps each layer's entry points in
spans and reports per-layer self times and counts instead.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One process, one BLAS thread: the load must not depend on the core count.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# fresh interpreters timed for setup_s; the median is reported
SETUP_SAMPLES = 3

SETUP_SNIPPET = """
import json, sys, time
src, config, observables = sys.argv[1:4]
sys.path.insert(0, src)
t0 = time.perf_counter()
import bdspin.cli as cli
t1 = time.perf_counter()
cli.load_config(config)
if observables:
    with open(observables) as fh:
        json.load(fh)
t2 = time.perf_counter()
if not cli.__file__.startswith(src):
    sys.exit(f"imported bdspin from {cli.__file__}, not {src}")
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
"""


def pin_environment() -> None:
    """Fix the BLAS thread count (before numpy loads) and drop SIM_THREADS,
    which would override ``--jobs 1``."""
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    os.environ.pop("SIM_THREADS", None)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the set-up interpreters import only from src/
    return env


def scipy_import_s(importtime: str) -> float:
    """Seconds spent importing scipy, from ``-X importtime`` output.

    ``from scipy import stats`` loads lazily, so no line is named
    ``scipy.stats``; the cost is the sum of the outermost ``scipy*`` entries.
    The output lists children before their parent, so it is read backwards.
    """
    total = 0.0
    stack: list[tuple[int, str]] = []
    for line in reversed(importtime.splitlines()):
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip())
        module = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if module.startswith("scipy") and not parent.startswith("scipy"):
            total += int(cumulative) / 1e6
        stack.append((depth, module))
    return total


def measure_setup(config: Path, observables: Path | None, trace: bool) -> dict[str, float]:
    """Median over fresh interpreters of import bdspin.cli + load_config + spec read."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [
            "-c", SETUP_SNIPPET, str(SRC), str(config), str(observables or "")]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr[-2000:]}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["scipy_stats_s"] = scipy_import_s(proc.stderr)
        samples.append(sample)
    med = lambda key: statistics.median(s[key] for s in samples)  # noqa: E731
    return {"setup_s": statistics.median(s["import_s"] + s["load_s"] for s in samples),
            "import_s": med("import_s"), "scipy_stats_s": med("scipy_stats_s")}


def run_rounds(ops_of, seconds: float, min_rounds: int = 1, tracer=None):
    """Whole rounds of the workload's operations until ``seconds`` have passed
    and at least ``min_rounds`` rounds ran.

    ``ops_of(r)`` gives round r's operations.  Returns per-round operation
    wall times and the attempted / failed counts.  Checks run outside the
    timed operations but inside the ``seconds`` budget.
    """
    walls: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    while len(walls) < min_rounds or time.perf_counter() - start < seconds:
        wall = 0.0
        for op in ops_of(len(walls)):
            attempted += 1
            if tracer is not None:
                tracer.label = op.label
            t0 = time.perf_counter()
            try:
                result, problems = op.run(), None
            except Exception as exc:  # an operation that raises counts as failed
                result, problems = None, [f"raised {exc!r}"]
            wall += time.perf_counter() - t0
            if tracer is not None:
                tracer.label = ""
            if problems is None:
                try:
                    problems = op.check(result)
                except Exception as exc:  # unreadable output fails its check
                    problems = [f"check raised {exc!r}"]
            del result
            if problems:
                failed += 1
                print(f"{op.name}: {'; '.join(problems[:5])}", file=sys.stderr)
        walls.append(wall)
    return walls, attempted, failed


def middle_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values`` (the interquartile mean).

    Each round runs other inputs, whose cost differs by up to 2x with the
    seed; a mean uses every round, and dropping the outer quarters keeps a
    stalled round of the host from moving it.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bdspin" / "cli.py").is_file():
        print(f"no bdspin sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))

    import bdspin.cli  # also compiles the bytecode the set-up interpreters load
    if not bdspin.cli.__file__.startswith(str(SRC)):
        print(f"imported bdspin from {bdspin.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2

    work_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](work_dir, args.seed)
        setup = measure_setup(*workload.setup_inputs(), trace=bool(args.trace))
        # untimed and untraced: the first calls in a process pay for lazy
        # imports and cold caches; the operations are still checked
        _, warm_attempted, warm_failed = run_rounds(workload.warmup_operations, 0.0)
        tracer = None
        if args.trace:
            tracer = layers.Tracer()
            layers.instrument(tracer)
        try:
            walls, attempted, failed = run_rounds(workload.operations, args.seconds,
                                                  workload.rounds_per_pool, tracer)
            attempted, failed = attempted + warm_attempted, failed + warm_failed
        finally:
            if tracer is not None:
                tracer.unpatch()
        peak_rss = layers.maxrss_mb()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if tracer is None:
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "wall_s": (middle_mean(walls), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    else:
        values = layers.layer_metrics(tracer, len(walls), sum(walls))
        values["cli.import_s"] = setup["import_s"]
        values["cli.import_scipy_stats_s"] = setup["scipy_stats_s"]
        values["birth_death.sample_driving_process.s"] = time_driving_sample(tracer)
        metrics = {key: (value, layers.unit_of(key)) for key, value in values.items()}
        tracer.write(OUT / "trace" / f"{args.workload}-seed{args.seed}.json",
                     blas_threads=int(BLAS_THREADS), round_walls=walls,
                     pool_seeds=workload.pool_seeds())

    print(f"{args.workload}: {len(walls)} rounds, BLAS threads {BLAS_THREADS}, "
          f"round walls {[round(w, 3) for w in walls]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


def time_driving_sample(tracer) -> float:
    """One separate sample_driving_process call with the last sweep's arguments."""
    if tracer.last_driving_args is None:
        return 0.0
    from bdspin import birth_death

    args, kwargs = tracer.last_driving_args
    t0 = time.perf_counter()
    birth_death.sample_driving_process(*args, **kwargs)
    return time.perf_counter() - t0


if __name__ == "__main__":
    sys.exit(main())
