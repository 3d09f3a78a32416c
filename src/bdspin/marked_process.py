"""The combined marked trajectory: positions plus marks, and its regularity.

A marked configuration pairs each present particle with its current mark.
The topology of the marked state is probed operationally, through pairings
with bounded observables of spatially compact support; the cadlag check
verifies right-continuity and existence of left limits of those pairings at
every jump time, at the resolution of the integrator grid.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .birth_death import Trajectory
from .geometry import Box, Configuration
from .spin_sde import MarkPath


@dataclass
class MarkedConfiguration:
    """Finite set of (point, mark) pairs; one mark per point."""

    config: Configuration
    marks: dict[int, float]

    def __post_init__(self):
        missing = [pid for pid in self.config.ids() if pid not in self.marks]
        if missing:
            raise ValueError(f"missing mark for present ids {missing}")

    def pairs(self) -> list[tuple[int, np.ndarray, float]]:
        return [(pid, pos, self.marks[pid]) for pid, pos in self.config.items()]

    def to_json_obj(self) -> list[dict]:
        return [
            {"id": pid, "position": [float(c) for c in pos], "mark": float(mark)}
            for pid, pos, mark in self.pairs()
        ]


@dataclass(frozen=True)
class Observable:
    """Bounded function of (position, mark) supported in a box.

    ``spin_lipschitz`` declares a Lipschitz constant in the mark argument;
    it calibrates the right-continuity modulus in the cadlag check (0 for
    counting observables that ignore marks).
    """

    func: Callable[[np.ndarray, float], float]
    support: Box
    name: str = "observable"
    spin_lipschitz: float = 0.0

    def __call__(self, position: np.ndarray, mark: float) -> float:
        return float(self.func(position, mark))


def counting_observable(box: Box, name: str = "count") -> Observable:
    return Observable(lambda pos, mark: 1.0, box, name, spin_lipschitz=0.0)


def mark_sum_observable(box: Box, name: str = "mark_sum") -> Observable:
    return Observable(lambda pos, mark: mark, box, name, spin_lipschitz=1.0)


def observable_value(mc: MarkedConfiguration, g: Observable) -> float:
    """Pairing <g, marked configuration>: sum over pairs inside the support."""
    total = 0.0
    for pid, pos, mark in mc.pairs():
        if g.support.contains(pos):
            total += g(pos, mark)
    return total


@dataclass
class MarkedTrajectory:
    """Positions and marks assembled on the integration grid."""

    base: Trajectory
    marks: MarkPath

    def __post_init__(self):
        covered = set(self.marks.ids)
        for t in (0.0, self.base.horizon):
            missing = [pid for pid in self.base.present_ids(t) if pid not in covered]
            if missing:
                raise ValueError(f"missing mark for present ids {missing}")

    @property
    def grid(self) -> np.ndarray:
        return self.marks.grid

    def at(self, t: float, side: str = "right") -> MarkedConfiguration:
        """Marked configuration at a grid time; 'left' pairs the pre-jump
        position set with the (continuous) marks at t."""
        j = self.marks.index_of(t)
        config = self.base.config_at(t, side)
        if self.marks.values.ndim != 2:
            raise ValueError("marked assembly needs a single-replica mark path")
        row = self.marks.values[j]
        marks = {pid: float(row[self.marks.ids.index(pid)]) for pid in config.ids()}
        return MarkedConfiguration(config, marks)

    def observable_series(self, g: Observable) -> np.ndarray:
        """<g, state> at every grid time (right-continuous values).

        One presence sweep walks the grid; each value sums over the present
        points in ascending id order, as a pairing with ``at(t)`` would.
        """
        ids = self.base.phantom_ids()
        col = {pid: k for k, pid in enumerate(self.marks.ids)}
        cols = [col[pid] for pid in ids]
        window = self.base.window
        # positions as a Configuration stores them (wrapped on a torus)
        positions = window.wrap(
            np.array([self.base.phantom_positions[pid] for pid in ids], dtype=float)
            .reshape(len(ids), window.dim))
        inside = g.support.contains_many(positions)
        out = np.zeros(len(self.grid))
        for j, present in enumerate(self.base.presence_masks(self.grid)):
            row = self.marks.values[j]
            total = 0.0
            for k in np.flatnonzero(present & inside):
                total += g(positions[k], float(row[cols[k]]))
            out[j] = total
        return out


def combine(traj: Trajectory, marks: MarkPath) -> MarkedTrajectory:
    """Assemble the marked trajectory; the mark path must cover the phantom."""
    phantom = set(traj.phantom_ids())
    if not phantom <= set(marks.ids):
        raise ValueError("missing mark: the path does not cover the phantom ids")
    return MarkedTrajectory(traj, marks)


@dataclass
class CadlagReport:
    """Per-event right-continuity / left-limit verification at grid resolution."""

    passed: bool
    events_checked: int
    violations: list[dict]
    max_right_modulus: float
    min_support_gap: float

    def to_json_obj(self) -> dict:
        return {"passed": self.passed, "events_checked": self.events_checked,
                "violations": self.violations,
                "max_right_modulus": self.max_right_modulus,
                "min_support_gap": self.min_support_gap}


def cadlag_check(mt: MarkedTrajectory, g: Observable, eps_t: float,
                 atol: float = 1e-9, left_points: int = 4) -> CadlagReport:
    """Check the observable path t -> <g, state_t> at every event in g's support.

    Right continuity: the value drift over the first grid step after the event
    is bounded by spin_lipschitz * (particles in support) * (mark modulus over
    that step).  Left limit: pairings at grid points approaching the event
    from below converge (non-expanding deviations) to the pairing of the
    pre-jump configuration with the marks at the event time.  All quantities
    live on the integrator grid; ``eps_t`` caps how far right of the event the
    stability point may be taken.
    """
    traj = mt.base
    grid = mt.grid
    col = {pid: k for k, pid in enumerate(mt.marks.ids)}
    support_events = [ev for ev in traj.events if g.support.contains(ev.position)]
    times = sorted({ev.time for ev in support_events})
    min_gap = min((b - a for a, b in zip(times, times[1:])), default=math.inf)

    def pairing(config: Configuration, j: int) -> float:
        row = mt.marks.values[j]
        total = 0.0
        for pid, pos in config.items():
            if g.support.contains(pos):
                total += g(pos, float(row[col[pid]]))
        return total

    def support_modulus(config: Configuration, j0: int, j1: int) -> float:
        cols = [col[pid] for pid, pos in config.items() if g.support.contains(pos)]
        if not cols:
            return 0.0
        return float(np.max(np.abs(mt.marks.values[j1, cols] - mt.marks.values[j0, cols])))

    violations: list[dict] = []
    max_modulus = 0.0
    checked = 0
    for ev in support_events:
        t = ev.time
        j = mt.marks.index_of(t)
        config_right = traj.config_at(t, "right")
        config_left = traj.config_at(t, "left")
        n_support = sum(1 for _, pos in config_right.items() if g.support.contains(pos))
        value = pairing(config_right, j)
        checked += 1

        # right side: first grid point after the event, within eps_t
        if j + 1 < len(grid):
            j_right = j + 1
            if grid[j_right] - t > eps_t * (1 + 1e-9):
                violations.append({"kind": "grid_coarser_than_eps", "t": t,
                                   "next_grid": float(grid[j_right])})
            else:
                # no event in (t, grid[j_right]): the position set is unchanged
                next_events = [s for s in times if s > t]
                if not next_events or grid[j_right] <= next_events[0]:
                    omega = support_modulus(config_right, j, j_right)
                    max_modulus = max(max_modulus, omega)
                    v_right = pairing(config_right, j_right)
                    bound = g.spin_lipschitz * n_support * omega + atol
                    if abs(v_right - value) > bound:
                        violations.append({
                            "kind": "right_continuity", "t": t, "id": ev.id,
                            "jump": abs(v_right - value), "bound": bound,
                        })

        # left side: grid points below the event inside the same constant
        # segment, approaching t; each pairing must sit within the mark
        # modulus at its own scale of the limit value (marks fluctuate, so
        # the deviations themselves need not be monotone)
        prev_events = [s for s in (ev2.time for ev2 in traj.events) if s < t]
        seg_lo = max(prev_events) if prev_events else 0.0
        left_idx = [i for i in range(max(0, j - left_points), j)
                    if grid[i] >= seg_lo]
        v_limit = pairing(config_left, j)
        n_left = sum(1 for _, pos in config_left.items() if g.support.contains(pos))
        for i in left_idx:
            cfg_i = traj.config_at(float(grid[i]), "right")
            dev = abs(pairing(cfg_i, i) - v_limit)
            omega_l = support_modulus(config_left, i, j)
            if dev > g.spin_lipschitz * n_left * omega_l + atol:
                violations.append({"kind": "left_limit_value", "t": t, "id": ev.id,
                                   "s": float(grid[i]), "deviation": dev,
                                   "bound": g.spin_lipschitz * n_left * omega_l + atol})

    return CadlagReport(not violations, checked, violations, max_modulus,
                        min_gap if math.isfinite(min_gap) else -1.0)


# -- artifact writers -----------------------------------------------------------


def write_observable_series(path, mt: MarkedTrajectory,
                            observables: Sequence[Observable]) -> None:
    """CSV columns (t, observable_name, value) over the grid."""
    series = [(g.name, mt.observable_series(g)) for g in observables]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "observable_name", "value"])
        for j, t in enumerate(mt.grid):
            for name, vals in series:
                writer.writerow([repr(float(t)), name, repr(float(vals[j]))])


def write_marked_snapshots(path, mt: MarkedTrajectory, stride: int = 1) -> None:
    """JSON Lines, one record {t, points: [{id, position, mark}]} per grid time."""
    with open(path, "w") as fh:
        for j in range(0, len(mt.grid), stride):
            t = float(mt.grid[j])
            mc = mt.at(t)
            fh.write(json.dumps({"t": t, "points": mc.to_json_obj()}) + "\n")
