"""Independent checks of bdspin outputs.

Each check recomputes a property from the artifacts (or the returned
objects) without going through the program's own query code, and returns a
list of problems; an empty list means the output is correct.  None of them
compares against a stored copy of earlier output.
"""
from __future__ import annotations

import csv
import json
import math
import statistics
import sys
from pathlib import Path

import mpmath
import numpy as np


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(np.asarray(a, dtype=np.float64).view(np.int64),
                          np.asarray(b, dtype=np.float64).view(np.int64))


# -- run directories (simulate + emit-plotdata) ------------------------------------


class RunDir:
    """Parsed artifacts of one replica directory."""

    def __init__(self, path: Path):
        self.path = path
        with open(path / "events.jsonl") as fh:
            self.header = json.loads(fh.readline())
            self.events = [json.loads(line) for line in fh]
        with open(path / "snapshots.jsonl") as fh:
            self.snapshots = [json.loads(line) for line in fh]
        with open(path / "manifest.json") as fh:
            self.manifest = json.load(fh)
        with open(path / "marks.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        times = np.array([float(r[0]) for r in rows])
        pids = np.array([int(r[1]) for r in rows])
        values = np.array([float(r[2]) for r in rows])
        self.grid, row = np.unique(times, return_inverse=True)
        ids, col = np.unique(pids, return_inverse=True)
        self.ids = ids.tolist()
        self.col = {pid: k for k, pid in enumerate(self.ids)}
        self.marks = np.zeros((len(self.grid), len(self.ids)))
        self.marks[row, col] = values
        self.rows_per_cell = np.zeros(self.marks.shape, dtype=np.int64)
        np.add.at(self.rows_per_cell, (row, col), 1)
        # snapshot points as arrays: ids, positions (n, dim), marks
        self.snap_points = [
            (np.array([p["id"] for p in snap["points"]], dtype=np.int64),
             np.array([p["position"] for p in snap["points"]], dtype=float).reshape(
                 len(snap["points"]), -1),
             np.array([p["mark"] for p in snap["points"]], dtype=float))
            for snap in self.snapshots
        ]

    def present_sets(self) -> tuple[list[dict[int, tuple]], dict[int, tuple]]:
        """Present set (id -> position) at each grid time, by one sweep over
        the event log; events at time t apply at t (right-continuous)."""
        positions = {rec["id"]: tuple(rec["position"]) for rec in self.header["gamma0"]}
        present = dict(positions)
        out = []
        k = 0
        for t in self.grid:
            while k < len(self.events) and self.events[k]["t"] <= t:
                ev = self.events[k]
                if ev["kind"] == "birth":
                    present[ev["id"]] = tuple(ev["position"])
                    positions[ev["id"]] = tuple(ev["position"])
                else:
                    del present[ev["id"]]
                k += 1
            out.append(dict(present))
        return out, positions


def check_run_dir(run: RunDir) -> list[str]:
    """Snapshots, marks and manifest of one replica agree with its event log."""
    problems = []
    name = run.path.name
    times = [ev["t"] for ev in run.events]
    if times != sorted(times):
        problems.append(f"{name}: events.jsonl is not time-ordered")
    if np.any(run.rows_per_cell != 1):
        problems.append(f"{name}: marks.csv misses or repeats (t, id) rows")
    if len(run.snapshots) != len(run.grid):
        problems.append(f"{name}: {len(run.snapshots)} snapshots for {len(run.grid)} grid times")
        return problems
    present, positions = run.present_sets()
    if sorted(positions) != run.ids:
        problems.append(f"{name}: marks.csv ids differ from the phantom of events.jsonl")
        return problems

    for j, (snap, alive) in enumerate(zip(run.snapshots, present)):
        ids, pos, marks = run.snap_points[j]
        if snap["t"] != run.grid[j]:
            problems.append(f"{name}: snapshot {j} at t={snap['t']}, grid has {run.grid[j]}")
            break
        if sorted(ids.tolist()) != sorted(alive):
            problems.append(f"{name}: snapshot at t={snap['t']} has ids differing from the "
                            f"event sweep ({len(ids)} vs {len(alive)})")
            break
        if len(ids) and not np.array_equal(pos, np.array([alive[i] for i in ids.tolist()])):
            problems.append(f"{name}: snapshot at t={snap['t']} moved a point")
            break
        if not _bits_equal(marks, run.marks[j, [run.col[i] for i in ids.tolist()]]):
            problems.append(f"{name}: snapshot marks at t={snap['t']} differ from marks.csv")
            break

    # frozen marks: a particle absent at grid[j] keeps its mark over step j
    for j in range(len(run.grid) - 1):
        absent = [run.col[pid] for pid in run.ids if pid not in present[j]]
        if absent and not _bits_equal(run.marks[j + 1, absent], run.marks[j, absent]):
            problems.append(f"{name}: a frozen mark changed over the step at t={run.grid[j]}")
            break

    derived = run.manifest["derived"]
    births = sum(1 for ev in run.events if ev["kind"] == "birth")
    want = {"events": len(run.events), "phantom_size": len(run.header["gamma0"]) + births,
            "grid_points": len(run.grid)}
    for key, value in want.items():
        if derived.get(key) != value:
            problems.append(f"{name}: manifest {key}={derived.get(key)}, files give {value}")
    return problems


def read_series(path: Path) -> dict[int, list[tuple[float, float]]]:
    """emit-plotdata series CSV: replica -> [(t, value)]."""
    out: dict[int, list[tuple[float, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            out.setdefault(int(rec["replica"]), []).append(
                (float(rec["t"]), float(rec["value"])))
    return out


def check_plotdata(runs: list[RunDir], observables: list[dict], plot_dir: Path) -> list[str]:
    """Observable series equal direct counts / mark sums over the snapshots, and
    the ensemble aggregate equals a recomputation from the series."""
    problems = []
    for obs in observables:
        name, box = obs["name"], obs["box"]
        series = read_series(plot_dir / f"{name}.csv")
        if sorted(series) != list(range(len(runs))):
            problems.append(f"{name}: replicas {sorted(series)} in the series CSV")
            continue
        for r, run in enumerate(runs):
            rows = series[r]
            if [t for t, _ in rows] != [s["t"] for s in run.snapshots]:
                problems.append(f"{name}: replica {r} series is not on its grid")
                continue
            lo, hi = np.array(box["lo"]), np.array(box["hi"])
            for (t, value), (_, pos, marks) in zip(rows, run.snap_points):
                inside = marks[np.all((pos >= lo) & (pos <= hi), axis=1)] if len(pos) else marks
                if obs["kind"] == "count":
                    ok = value == len(inside)
                else:
                    scale = 1.0 + math.fsum(np.abs(inside))
                    ok = abs(value - math.fsum(inside)) <= 1e-9 * scale
                if not ok:
                    problems.append(f"{name}: replica {r} value {value} at t={t} differs "
                                    f"from the snapshot ({len(inside)} points in box)")
                    break

        shared = set.intersection(*(set(t for t, _ in series[r]) for r in series))
        by_t = [dict(series[r]) for r in sorted(series)]
        with open(plot_dir / f"{name}_aggregate.csv", newline="") as fh:
            agg = [(float(rec["t"]), float(rec["mean"]), float(rec["stderr"]))
                   for rec in csv.DictReader(fh)]
        if [t for t, _, _ in agg] != sorted(shared):
            problems.append(f"{name}: aggregate times are not the shared grid")
            continue
        n = len(by_t)
        for t, mean, stderr in agg:
            vals = [d[t] for d in by_t]
            want_mean = math.fsum(vals) / n
            want_err = statistics.stdev(vals) / math.sqrt(n) if n > 1 else 0.0
            tol = 1e-9 * (1.0 + max(abs(v) for v in vals))
            if abs(mean - want_mean) > tol or abs(stderr - want_err) > tol:
                problems.append(f"{name}: aggregate at t={t} is ({mean}, {stderr}), "
                                f"recomputed ({want_mean}, {want_err})")
                break
    return problems


# -- in-memory core results (window scaling) -----------------------------------------


def check_core(gamma0, traj, path, dt: float) -> list[str]:
    """Marks finite and exactly frozen while absent; grid refines the dt
    lattice with every event time; counts balance; phantom is dominated."""
    problems = []
    grid = path.grid
    if not np.all(np.isfinite(path.values)):
        problems.append("non-finite mark")

    births = {pid: 0.0 for pid in gamma0.ids()}
    deaths: dict[int, float] = {}
    n_birth = n_death = 0
    for ev in traj.events:
        if ev.kind == "birth":
            births[ev.id] = ev.time
            n_birth += 1
        else:
            deaths[ev.id] = ev.time
            n_death += 1
    if sorted(births) != list(path.ids):
        problems.append("mark path ids are not the phantom of the event log")
        return problems

    step_starts = grid[:-1]
    for k, pid in enumerate(path.ids):
        col = path.values[:, k]
        # absent on step j iff grid[j] < birth or grid[j] >= death
        jb = int(np.searchsorted(step_starts, births[pid], "left"))
        jd = int(np.searchsorted(step_starts, deaths.get(pid, math.inf), "left"))
        if not (_bits_equal(col[1:jb + 1], col[:jb]) and _bits_equal(col[jd + 1:], col[jd:-1])):
            problems.append(f"frozen mark of id {pid} changed while absent")
            break

    n_lattice = int(math.floor(traj.horizon / dt + 1e-9))
    lattice = [k * dt for k in range(n_lattice + 1) if k * dt <= traj.horizon]
    wanted = np.array(lattice + [traj.horizon] + [ev.time for ev in traj.events])
    pos = np.searchsorted(grid, wanted)
    if np.any(pos >= len(grid)) or not np.array_equal(grid[np.minimum(pos, len(grid) - 1)],
                                                      wanted):
        problems.append("grid misses an event time or a dt lattice point")
    if np.any(np.diff(grid) <= 0):
        problems.append("grid is not strictly increasing")

    final = len(traj.present_ids(traj.horizon))
    if final != len(gamma0) + n_birth - n_death:
        problems.append(f"|gamma_T|={final} != |gamma_0| + births - deaths "
                        f"= {len(gamma0)} + {n_birth} - {n_death}")
    if len(path.ids) > len(gamma0) + len(traj.driving):
        problems.append("phantom outnumbers initial points plus driving candidates")
    return problems


# -- verify reports ------------------------------------------------------------------


def series_constant_mp(alpha: float, beta: float, q: float, bound_l: float,
                       horizon: float):
    """K_T = sum_n (L T)^n n^{qn} / ((beta-alpha)^{qn} n!) in 30-digit arithmetic.

    The log of each term follows from the previous one,
    log t_{n+1} = log t_n + log x + q((n+1) log(n+1) - n log n) - log(n+1).
    Every later ratio of consecutive terms is at most r = x e^q (n+1)^{q-1};
    once r < 1 the neglected tail is below t_n r / (1 - r), and summation
    stops when that is below 1e-25 of the total.  Returns the sum and the
    number of terms.
    """
    with mpmath.workdps(30):
        q_mp = mpmath.mpf(q)
        x = mpmath.mpf(bound_l) * horizon / (mpmath.mpf(beta) - alpha) ** q_mp
        if x == 0:
            return mpmath.mpf(1), 1
        log_x, e_q = mpmath.log(x), mpmath.exp(q_mp)
        total = mpmath.mpf(1)
        log_term = n_log_n = mpmath.mpf(0)
        n = 0
        while True:
            log_next = mpmath.log(n + 1)
            next_n_log_n = (n + 1) * log_next
            log_term += log_x + q_mp * (next_n_log_n - n_log_n) - log_next
            n, n_log_n = n + 1, next_n_log_n
            term = mpmath.exp(log_term)
            total += term
            ratio = x * e_q * (n + 1) ** (q_mp - 1)
            if ratio < 1 and term * ratio / (1 - ratio) < total * mpmath.mpf(10) ** -25:
                return total, n + 1


def check_series_constant(consts: dict, horizon: float) -> list[str]:
    """The report's K_T against the 50-digit sum.

    The program sums in log space, so besides the truncation tail it reports,
    each of the n terms may shift log K_T by about one ulp of log K_T; the
    allowance is 4 n eps max(1, ln K_T) relative.  The program reports inf
    once ln K_T exceeds 709.0 (its overflow cut-off, slightly below the
    ln 1.797e308 = 709.78 of the double range), so a reported inf must have
    ln K_T > 709.
    """
    k_mp, n_terms = series_constant_mp(consts["alpha"], consts["beta"], consts["q"],
                                       consts["L"], horizon)
    k_t = consts["K_T"]
    if math.isinf(k_t):
        if k_mp <= mpmath.exp(709.0):
            return [f"gronwall: K_T=inf but mpmath gives {float(k_mp)}"]
        return []
    rounding = 4 * n_terms * sys.float_info.epsilon * max(1.0, math.log(k_t)) * k_t
    if not abs(float(k_mp) - k_t) <= consts["K_T_tail_bound"] + rounding:
        return [f"gronwall: K_T={k_t} but mpmath gives {float(k_mp)} "
                f"(tail bound {consts['K_T_tail_bound']}, rounding allowance {rounding})"]
    return []


def check_verify_reports(report_dir: Path, suites, horizon: float) -> list[str]:
    """Every suite passed; measured <= bound with slack = bound - measured; the
    domination suite made 64 checks; K_T agrees with an mpmath recomputation.

    ``horizon`` is the run horizon; the Gronwall suite uses min(horizon, 0.5).
    """
    problems = []
    for suite in suites:
        with open(report_dir / f"{suite}_report.json") as fh:
            rep = json.load(fh)
        if rep.get("passed") is not True:
            problems.append(f"{suite}: suite did not pass")
        if "measured_value" in rep:
            bound, measured, slack = rep["bound_value"], rep["measured_value"], rep["slack"]
            if not measured <= bound * (1 + 1e-9):
                problems.append(f"{suite}: measured {measured} exceeds bound {bound}")
            if not math.isclose(slack, bound - measured, rel_tol=1e-12, abs_tol=1e-300):
                problems.append(f"{suite}: slack {slack} != bound - measured")
        if suite == "domination" and rep.get("checks") != 64:
            problems.append(f"domination: {rep.get('checks')} checks, expected 64")
        if suite == "gronwall":
            problems += check_series_constant(rep["constants_used"], min(horizon, 0.5))
    return problems
