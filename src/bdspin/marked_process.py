"""The combined marked trajectory: positions plus marks, and its regularity.

The marked state at a grid time pairs each present particle with its mark.
Every consumer here (observable series, snapshots, the cadlag check) reads
who is present off the trajectory's phantom table with
``Trajectory.present_at``.  The topology of the marked state is probed
operationally, through pairings with bounded observables of spatially
compact support; the cadlag check verifies right-continuity and existence of
left limits of those pairings at every jump time, at the resolution of the
integrator grid.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .birth_death import Trajectory
from .geometry import Box
from .spin_sde import MarkPath


@dataclass(frozen=True)
class Observable:
    """Bounded function of (position, mark) supported in a box.

    ``func`` is array-valued: it maps the positions ``(n, d)`` and marks
    ``(n,)`` of n points to their ``(n,)`` values.  ``pairing`` adds those
    values left to right from 0.0 in the order given (ascending ids in every
    caller), as a ``total += value`` loop would and not by numpy's pairwise
    summation, so each pairing is one fixed float.

    ``spin_lipschitz`` declares a Lipschitz constant in the mark argument;
    it calibrates the right-continuity modulus in the cadlag check (0 for
    counting observables that ignore marks).
    """

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    support: Box
    name: str = "observable"
    spin_lipschitz: float = 0.0

    def pairing(self, positions: np.ndarray, marks: np.ndarray) -> float:
        """Sum of ``func`` over the given points, added left to right from 0.0
        as ``total += value`` would add them."""
        values = np.asarray(self.func(positions, marks), dtype=float)
        if values.shape != marks.shape:
            raise ValueError(f"observable {self.name}: func gave shape {values.shape} "
                             f"for {len(marks)} points")
        return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


def counting_observable(box: Box, name: str = "count") -> Observable:
    return Observable(lambda pos, mark: np.ones_like(mark), box, name, spin_lipschitz=0.0)


def mark_sum_observable(box: Box, name: str = "mark_sum") -> Observable:
    return Observable(lambda pos, mark: mark, box, name, spin_lipschitz=1.0)


@dataclass
class MarkedTrajectory:
    """Positions and marks assembled on the integration grid.

    Build it with ``combine``, which checks that the mark columns are the
    phantom ids in ascending order, so column k of a row is the mark of the
    particle in row k of the trajectory's phantom table: position
    ``base.phantom_xy[k]``, entry k of each ``base.present_at`` mask.
    """

    base: Trajectory
    marks: MarkPath

    @property
    def grid(self) -> np.ndarray:
        return self.marks.grid

    def observable_series(self, g: Observable) -> np.ndarray:
        """<g, state> at every grid time (right-continuous values).

        Each value sums over the points present in the support, in
        ascending id order.
        """
        positions = self.base.phantom_xy
        cols = np.flatnonzero(g.support.contains_many(positions))
        present = self.base.present_at(self.grid[:, None])[:, cols]
        out = np.zeros(len(self.grid))
        for j, row in enumerate(present):
            ks = cols[row]
            out[j] = g.pairing(positions[ks], self.marks.values[j, ks])
        return out


def combine(traj: Trajectory, marks: MarkPath) -> MarkedTrajectory:
    """Assemble the marked trajectory; the mark path's ids must be the phantom
    ids in ascending order."""
    phantom = traj.phantom_ids()
    if marks.ids != phantom:
        missing = sorted(set(phantom) - set(marks.ids))
        raise ValueError(f"missing mark for ids {missing[:5]}" if missing else
                         "mark ids are not the phantom ids in ascending order")
    return MarkedTrajectory(traj, marks)


@dataclass
class CadlagReport:
    """Per-event right-continuity / left-limit verification at grid resolution."""

    passed: bool
    events_checked: int
    violations: list[dict]
    max_right_modulus: float
    min_support_gap: float


def cadlag_check(mt: MarkedTrajectory, g: Observable, eps_t: float,
                 atol: float = 1e-9) -> CadlagReport:
    """Check the observable path t -> <g, state_t> at every event in g's support.

    Right continuity: the value drift over the first grid step after the event
    is bounded by spin_lipschitz * (particles in support) * (mark modulus over
    that step).  Left limit: pairings at up to 4 grid points approaching the
    event from below converge (non-expanding deviations) to the pairing of the
    pre-jump configuration with the marks at the event time.  All quantities
    live on the integrator grid; ``eps_t`` caps how far right of the event the
    stability point may be taken.

    The event log is time-sorted (``Trajectory`` rejects any other).  For
    each support event time t = grid[j], the state at grid[j-1] is gamma_{t-}
    (the grid holds every event time, so the state is constant on
    [grid[j-1], t)) and the state at t is gamma_t.  The checks depend only on
    t, so each time is checked once; each violation is then reported once per
    support event at t, in log order, with that event's id (a
    ``grid_coarser_than_eps`` violation carries none).  ``events_checked``
    counts the support events.
    """
    traj = mt.base
    grid = mt.grid
    values = mt.marks.values
    positions = traj.phantom_xy
    cols = np.flatnonzero(g.support.contains_many(positions))
    log = np.array([(ev.time, *ev.position) for ev in traj.events],
                   dtype=float).reshape(-1, 1 + traj.window.dim)
    log_t = log[:, 0]
    support = np.flatnonzero(g.support.contains_many(log[:, 1:]))
    support_t = log_t[support]
    # the log is time-ordered, so each new time starts a run of equal times
    starts = np.flatnonzero(np.diff(support_t, prepend=-np.inf) != 0)
    times = support_t[starts]
    index = np.searchsorted(grid, times)
    # a time past the last grid point meets the NaN pad, which equals nothing
    off_grid = np.append(grid, np.nan)[index] != times
    if off_grid.any():
        raise ValueError(f"time {float(times[off_grid][0])} is not on the integration grid")
    # left side: grid points below the event inside the same constant segment
    # [seg_lo, t), where seg_lo is the last log time before t (0.0 if none)
    before = np.searchsorted(log_t, times)
    seg_lo = np.where(before > 0, log_t[before - 1], 0.0)
    lows = np.maximum(np.maximum(index - 4, 0), np.searchsorted(grid, seg_lo))
    lefts = traj.present_at(grid[np.maximum(index - 1, 0), None])[:, cols]
    rights = traj.present_at(grid[index, None])[:, cols]
    ids = [traj.events[e].id for e in support.tolist()]
    runs = [*starts.tolist(), len(ids)]

    def pairing(ks: np.ndarray, j: int) -> float:
        return g.pairing(positions[ks], values[j, ks])

    def support_modulus(ks: np.ndarray, j0: int, j1: int) -> float:
        if not len(ks):
            return 0.0
        return float(np.max(np.abs(values[j1, ks] - values[j0, ks])))

    violations: list[dict] = []
    max_modulus = 0.0
    for k, (t, j, i_lo) in enumerate(zip(times.tolist(), index.tolist(), lows.tolist())):
        left, right = cols[lefts[k]], cols[rights[k]]
        value = pairing(right, j)
        v_limit = pairing(left, j)
        found = []  # this time's violations; an "id" entry is filled per event
        # right side: first grid point after the event, within eps_t
        if j + 1 < len(grid):
            if grid[j + 1] - t > eps_t * (1 + 1e-9):
                found.append({"kind": "grid_coarser_than_eps", "t": t,
                              "next_grid": float(grid[j + 1])})
            else:
                # the grid holds every event time, so no event lies in
                # (t, grid[j + 1]): the position set is unchanged
                omega = support_modulus(right, j, j + 1)
                max_modulus = max(max_modulus, omega)
                jump = abs(pairing(right, j + 1) - value)
                bound = g.spin_lipschitz * len(right) * omega + atol
                if jump > bound:
                    found.append({"kind": "right_continuity", "t": t, "id": None,
                                  "jump": jump, "bound": bound})

        # each left pairing must sit within the mark modulus at its own scale
        # of the limit value (marks fluctuate, so the deviations themselves
        # need not be monotone)
        for i in range(i_lo, j):
            dev = abs(pairing(left, i) - v_limit)
            bound = g.spin_lipschitz * len(left) * support_modulus(left, i, j) + atol
            if dev > bound:
                found.append({"kind": "left_limit_value", "t": t, "id": None,
                              "s": float(grid[i]), "deviation": dev, "bound": bound})

        violations += [dict(v, id=pid) if "id" in v else dict(v)
                       for pid in ids[runs[k]:runs[k + 1]] for v in found]

    gaps = np.diff(times)
    return CadlagReport(not violations, len(ids), violations, max_modulus,
                        float(gaps.min()) if len(gaps) else -1.0)


# -- artifact writers -----------------------------------------------------------


def write_marked_snapshots(path, mt: MarkedTrajectory, stride: int = 1) -> None:
    """JSON Lines, one record {t, points: [{id, position, mark}]} per
    ``stride``-th grid time; points are the present ids in ascending order.

    The bytes are those of ``json.dumps`` on each record: every point's text
    up to its mark is built once, and a float is written as its repr.
    """
    prefixes = [f'{{"id": {pid}, "position": {json.dumps(pos)}, "mark": '
                for pid, pos in zip(mt.base.phantom_ids(), mt.base.phantom_xy.tolist())]
    # json.dumps writes a non-finite float as NaN or Infinity, not its repr
    fmt = repr if np.isfinite(mt.marks.values).all() else json.dumps
    present = mt.base.present_at(mt.grid[::stride, None])
    with open(path, "w") as fh:
        for j, row in zip(range(0, len(mt.grid), stride), present):
            cols = np.flatnonzero(row)
            points = "}, ".join(map(operator.add, map(prefixes.__getitem__, cols.tolist()),
                                    map(fmt, mt.marks.values[j, cols].tolist())))
            fh.write(f'{{"t": {float(mt.grid[j])!r}, "points": ['
                     + (points + "}" if points else "") + "]}\n")
