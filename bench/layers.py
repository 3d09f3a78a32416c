"""Span tracing around the calls into each bdspin layer.

The tracer replaces module attributes (the names ``bdspin.cli`` and the
library modules call) with wrappers that record a span per call: name,
start, end, parent span and a free-form label (the window side on the
scaling workload).  Spans stay in memory; ``layer_metrics`` turns them into
per-layer self times (span minus child spans) and work counts.

Counting hooks run after the wrapped call returns, inside a span of their
own named ``trace.hooks``, so their cost is reported instead of landing in a
layer's self time.  Every span is properly nested (one thread), so the self
times of all spans plus ``other.self_s`` add up to the traced wall time.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import resource
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
from bdspin import birth_death, cli, geometry, marked_process, spin_sde


def maxrss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder with monkey-patched entry points."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.rss_rise_mb = 0.0  # largest high-water rise during one integrate_marks
        self.label = ""
        self.last_driving_args: tuple | None = None

    # -- span recording ----------------------------------------------------

    def _open(self, name: str, label: str) -> int:
        idx = len(self.spans)
        self.spans.append({
            "name": name, "label": label,
            "parent": self._stack[-1] if self._stack else -1,
            "start": time.perf_counter(), "end": math.nan,
            "rss_start_mb": maxrss_mb(), "rss_end_mb": math.nan,
        })
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span["rss_end_mb"] = maxrss_mb()
        span["end"] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, label: str = ""):
        idx = self._open(name, label)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, *, hook=None, label_of=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper.

        ``hook(args, kwargs, result, span)`` computes counts after the call;
        ``label_of(args, kwargs)`` names a sub-span (for example the suite).
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = label_of(args, kwargs) if label_of else tracer.label
            idx = tracer._open(name, label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                with tracer.span("trace.hooks"):
                    hook(args, kwargs, result, tracer.spans[idx])
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def count_calls(self, owner, attr: str, hook) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts (no span)."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, kwargs, result)
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, counted)

    def unpatch(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value
        if self.label:
            self.counts[f"{key}.{self.label}"] += value

    def write(self, path: Path, **meta) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "spans": self.spans, "counts": dict(self.counts)}, fh)
            fh.write("\n")


# -- instrumentation of bdspin ---------------------------------------------------


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions each layer exposes to its callers."""
    def both(name, attr, owners, **kw):
        for owner in owners:
            if hasattr(owner, attr):
                tracer.wrap(owner, attr, name, **kw)

    # cli
    tracer.wrap(cli, "load_config", "cli.load_config")
    tracer.wrap(cli, "run_suite", "cli.run_suite",
                label_of=lambda a, kw: a[1] if len(a) > 1 else kw["suite"])
    tracer.wrap(cli, "cmd_emit_plotdata", "cli.emit_plotdata")

    # geometry: build_gamma0 imports poisson_configuration at call time
    def on_gamma0(a, kw, result, span):
        tracer.add("geometry.initial_points", len(result))

    tracer.wrap(geometry, "poisson_configuration", "geometry.poisson_configuration",
                hook=on_gamma0)

    # birth_death
    def on_driving(a, kw, result):
        tracer.add("birth_death.candidates", len(result))
        tracer.last_driving_args = (a, kw)

    tracer.count_calls(birth_death, "sample_driving_process", on_driving)

    def on_simulate(a, kw, traj, span):
        births = sum(1 for ev in traj.events if ev.kind == "birth")
        tracer.add("birth_death.simulate.calls", 1)
        tracer.add("birth_death.events", len(traj.events))
        tracer.add("birth_death.births", births)

    both("birth_death.simulate", "simulate", (cli, birth_death), hook=on_simulate)
    tracer.wrap(cli, "verify_domination", "birth_death.verify_domination")
    tracer.wrap(cli, "verify_counting_identity", "birth_death.verify_counting_identity")
    tracer.wrap(cli, "write_event_log", "birth_death.write_event_log")
    tracer.wrap(cli, "read_event_log", "birth_death.read_event_log")

    # spin_sde
    def on_marks(key):
        def hook(a, kw, path, span):
            traj = a[0]
            tracer.add(f"spin_sde.{key}.calls", 1)
            if key != "integrate_marks":
                return
            grid = path.grid
            n_grid, n_ids = len(grid), len(path.ids)
            starts = {ev.time for ev in traj.events if ev.time < traj.horizon}
            births = np.array([traj.presence[pid][0] for pid in path.ids])
            deaths = np.array([math.inf if traj.presence[pid][1] is None
                               else traj.presence[pid][1] for pid in path.ids])
            step_starts = grid[:-1]
            steps = (np.searchsorted(step_starts, deaths, "left")
                     - np.searchsorted(step_starts, births, "left"))
            tracer.add("spin_sde.phantom", n_ids)
            tracer.add("spin_sde.grid_points", n_grid)
            tracer.add("spin_sde.segments", len(starts) + 1)
            tracer.add("spin_sde.particle_steps", int(steps.sum()))
            tracer.add("spin_sde.dense_values_mb", n_grid * n_ids * 8 / 1e6)
            tracer.rss_rise_mb = max(tracer.rss_rise_mb,
                                     span["rss_end_mb"] - span["rss_start_mb"])
        return hook

    both("spin_sde.integrate_marks", "integrate_marks", (cli, spin_sde),
         hook=on_marks("integrate_marks"))
    tracer.wrap(spin_sde, "finite_volume_solve", "spin_sde.finite_volume_solve",
                hook=on_marks("finite_volume_solve"))
    tracer.wrap(cli, "cutoff_convergence_study", "spin_sde.cutoff_convergence_study")
    tracer.wrap(cli, "check_drift_diffusion_bounds", "spin_sde.check_drift_diffusion_bounds")
    tracer.wrap(cli, "read_mark_path_csv", "spin_sde.read_mark_path_csv")
    tracer.wrap(spin_sde.MarkPath, "to_csv", "spin_sde.MarkPath.to_csv",
                hook=lambda a, kw, r, s: tracer.add("spin_sde.marks_csv_mb", _file_mb(a[1])))

    # marked_process
    tracer.wrap(cli, "combine", "marked_process.combine")
    tracer.wrap(cli, "write_marked_snapshots", "marked_process.write_marked_snapshots",
                hook=lambda a, kw, r, s: tracer.add("marked_process.snapshots_mb",
                                                    _file_mb(a[0])))
    tracer.wrap(marked_process.MarkedTrajectory, "observable_series",
                "marked_process.observable_series",
                hook=lambda a, kw, r, s: tracer.add("marked_process.observable_series.calls", 1))
    tracer.wrap(cli, "cadlag_check", "marked_process.cadlag_check")

    # scales
    def on_gronwall(a, kw, report, span):
        tracer.add("scales.gronwall_grid_points", report.grid_info["points"])
        tracer.add("scales.picard_iterations", report.grid_info["picard_iterations"])

    tracer.wrap(cli, "check_gronwall_inequality", "scales.check_gronwall_inequality",
                hook=on_gronwall)
    tracer.wrap(cli, "check_moment_growth", "scales.check_moment_growth")


# -- per-layer metrics -------------------------------------------------------------

# window sides of the scaling workload; a 2x side step is a 4x volume step
SCALING_SIDES = (16, 32)

SELF_TIMED = (
    "cli.load_config", "cli.run_suite", "cli.emit_plotdata",
    "geometry.poisson_configuration",
    "birth_death.simulate", "birth_death.verify_domination",
    "birth_death.verify_counting_identity", "birth_death.write_event_log",
    "birth_death.read_event_log",
    "spin_sde.integrate_marks", "spin_sde.finite_volume_solve",
    "spin_sde.cutoff_convergence_study", "spin_sde.check_drift_diffusion_bounds",
    "spin_sde.read_mark_path_csv", "spin_sde.MarkPath.to_csv",
    "marked_process.combine", "marked_process.write_marked_snapshots",
    "marked_process.observable_series", "marked_process.cadlag_check",
    "scales.check_gronwall_inequality", "scales.check_moment_growth",
    "trace.hooks",
)
COUNTS = (
    "geometry.initial_points", "birth_death.simulate.calls", "birth_death.candidates",
    "birth_death.events", "birth_death.births",
    "spin_sde.integrate_marks.calls", "spin_sde.finite_volume_solve.calls",
    "spin_sde.phantom", "spin_sde.grid_points", "spin_sde.segments",
    "spin_sde.particle_steps", "spin_sde.dense_values_mb", "spin_sde.marks_csv_mb",
    "marked_process.snapshots_mb", "marked_process.observable_series.calls",
    "scales.gronwall_grid_points", "scales.picard_iterations",
)
SIDE_SELF = ("birth_death.simulate", "spin_sde.integrate_marks")
SIDE_COUNTS = ("birth_death.events", "spin_sde.phantom", "spin_sde.grid_points")


def unit_of(key: str) -> str:
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    if key == "spin_sde.dense_values_mb":
        return "MB_computed"  # grid x phantom x 8 B, not a measurement
    if key.endswith("_mb"):
        return "MB"
    if key.endswith("_ratio") or key.endswith("_exponent"):
        return "ratio"
    return "count"


def self_times(spans: list[dict]) -> tuple[list[float], float]:
    """Per-span self time, and the total duration of the top-level spans."""
    selfs = [s["end"] - s["start"] for s in spans]
    top = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        if s["parent"] >= 0:
            selfs[s["parent"]] -= dur
        else:
            top += dur
    return selfs, top


def layer_metrics(tracer: Tracer, rounds: int, traced_wall: float) -> dict[str, float]:
    """Per-round per-layer figures from the recorded spans and counts.

    ``traced_wall`` is the summed wall time of the traced rounds.
    """
    unknown = {s["name"] for s in tracer.spans} - set(SELF_TIMED)
    if unknown:
        raise RuntimeError(f"spans without a metric: {sorted(unknown)}")
    selfs, top = self_times(tracer.spans)
    self_by: dict[str, float] = defaultdict(float)
    incl_by: dict[str, float] = defaultdict(float)
    for s, st in zip(tracer.spans, selfs):
        keys = [s["name"], f"{s['name']}.{s['label']}"] if s["label"] else [s["name"]]
        for key in keys:
            self_by[key] += st
            incl_by[key] += s["end"] - s["start"]

    out: dict[str, float] = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = self_by[name] / rounds
    for suite in cli.SUITES:
        out[f"cli.run_suite.{suite}.s"] = incl_by[f"cli.run_suite.{suite}"] / rounds
    out["cli.emit_plotdata.s"] = incl_by["cli.emit_plotdata"] / rounds
    for key in COUNTS:
        out[key] = tracer.counts[key] / rounds
    cands = tracer.counts["birth_death.candidates"]
    out["birth_death.acceptance_ratio"] = (tracer.counts["birth_death.births"] / cands
                                           if cands else 0.0)
    out["spin_sde.integrate_marks.rss_rise_mb"] = tracer.rss_rise_mb
    for side in SCALING_SIDES:
        for name in SIDE_SELF:
            out[f"{name}.side{side}.self_s"] = self_by[f"{name}.side{side}"] / rounds
        for key in SIDE_COUNTS:
            out[f"{key}.side{side}"] = tracer.counts[f"{key}.side{side}"] / rounds
    small, large = SCALING_SIDES
    for name in SIDE_SELF:
        t_small = self_by[f"{name}.side{small}"]
        t_large = self_by[f"{name}.side{large}"]
        out[f"{name}.volume_exponent"] = (
            math.log(t_large / t_small) / math.log((large / small) ** 2)
            if t_small > 0 and t_large > 0 else 0.0)
    out["other.self_s"] = (traced_wall - top) / rounds
    out["trace.wall_s"] = traced_wall / rounds
    return out
