"""The combined marked trajectory: positions plus marks, and its grid checks.

The marked state at a grid time pairs each present particle with its mark.
An observable's series adds each in-box particle's marks over its lifetime
rows (``Trajectory.present_rows``), and so does the snapshot writer for each
row it writes; the cadlag check reads who is present with
``Trajectory.present_at``.  The cadlag check asks
whether the integrator grid resolves the jumps inside a support box.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from .birth_death import Trajectory
from .geometry import Box
from .spin_sde import MarkPath


@dataclass(frozen=True)
class Observable:
    """<g, gamma_t> for g = 1 (a count) or g = the mark (``marked``) on the
    support box, and 0 outside it."""

    support: Box
    marked: bool
    name: str


def counting_observable(box: Box, name: str = "count") -> Observable:
    return Observable(box, False, name)


def mark_sum_observable(box: Box, name: str = "mark_sum") -> Observable:
    return Observable(box, True, name)


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
        """<g, gamma_t> at every grid time t (right-continuous values).

        Each in-support column, in ascending order, adds its marks (or 1.0)
        over its present rows into zeros.  So each value is ``total += value``
        from 0.0 over the present ids in ascending order, not numpy's pairwise
        sum; the plot bytes depend on that order.
        """
        lo, hi = (rows.tolist() for rows in self.base.present_rows(self.grid))
        values = self.marks.values
        out = np.zeros(len(self.grid))
        for k in np.flatnonzero(g.support.contains_many(self.base.phantom_xy)).tolist():
            out[lo[k]:hi[k]] += values[lo[k]:hi[k], k] if g.marked else 1.0
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
    """The grid facts of one observable's support events (see ``cadlag_check``)."""

    passed: bool
    events_checked: int
    violations: list[dict]
    max_right_modulus: float
    min_support_gap: float


def cadlag_check(mt: MarkedTrajectory, g: Observable, eps_t: float) -> CadlagReport:
    """Check that the grid resolves every event in g's support to within ``eps_t``.

    The support events are the logged events inside g's support box, in log
    order (``Trajectory`` rejects a log that is not time-sorted);
    ``events_checked`` counts them.  Each support time t must be a grid time
    (else ``ValueError``).  Where a grid point follows t = grid[j], the step
    to it must be at most ``eps_t`` (up to a relative 1e-9): a longer step
    gives one ``grid_coarser_than_eps`` violation per support event at t, and
    a step within ``eps_t`` feeds ``max_right_modulus``, the largest
    |z(grid[j + 1]) - z(t)| of a particle present in the support at t.  The
    grid holds every event time, so no particle comes or goes in that step.
    ``min_support_gap`` is the least gap between distinct support times, or
    -1.0 with fewer than two.

    No pairing of g is compared across a jump: for an observable Lipschitz in
    its mark such a bound holds for any marks, so it could not fail on a
    wrong mark path.
    """
    traj = mt.base
    grid = mt.grid
    values = mt.marks.values
    cols = np.flatnonzero(g.support.contains_many(traj.phantom_xy))
    log = np.array([(ev.time, *ev.position) for ev in traj.events],
                   dtype=float).reshape(-1, 1 + traj.window.dim)
    support_t = log[g.support.contains_many(log[:, 1:]), 0]
    # the log is time-ordered, so each new time starts a run of equal times
    starts = np.flatnonzero(np.diff(support_t, prepend=-np.inf) != 0)
    times = support_t[starts]
    index = np.searchsorted(grid, times)
    # a time past the last grid point meets the NaN pad, which equals nothing
    off_grid = np.append(grid, np.nan)[index] != times
    if off_grid.any():
        raise ValueError(f"time {float(times[off_grid][0])} is not on the integration grid")
    rights = traj.present_at(grid[index, None])[:, cols]
    runs = np.diff(np.append(starts, len(support_t))).tolist()

    violations: list[dict] = []
    max_modulus = 0.0
    for k, (t, j) in enumerate(zip(times.tolist(), index.tolist())):
        if j + 1 == len(grid):
            continue
        if grid[j + 1] - t > eps_t * (1 + 1e-9):
            violations += [{"kind": "grid_coarser_than_eps", "t": t,
                            "next_grid": float(grid[j + 1])} for _ in range(runs[k])]
        elif rights[k].any():
            ks = cols[rights[k]]
            move = float(np.max(np.abs(values[j + 1, ks] - values[j, ks])))
            max_modulus = max(max_modulus, move)

    gaps = np.diff(times)
    return CadlagReport(not violations, len(support_t), violations, max_modulus,
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
    values = mt.marks.values
    # json.dumps writes a non-finite float as NaN or Infinity, not its repr; a
    # NaN propagates through min and max, so both are finite iff every mark is
    finite = np.isfinite([values.min(initial=0.0), values.max(initial=0.0)]).all()
    fmt = repr if finite else json.dumps
    lo, hi = mt.base.present_rows(mt.grid)
    with open(path, "w") as fh:
        for j in range(0, len(mt.grid), stride):
            cols = np.flatnonzero((lo <= j) & (j < hi))
            points = "}, ".join(map(operator.add, map(prefixes.__getitem__, cols.tolist()),
                                    map(fmt, values[j, cols].tolist())))
            fh.write(f'{{"t": {float(mt.grid[j])!r}, "points": ['
                     + (points + "}" if points else "") + "]}\n")
