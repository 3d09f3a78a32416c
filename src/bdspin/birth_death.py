"""Exact simulation of the spatial birth-and-death process.

Births are realized by thinning a dominating Poisson driving process: each
candidate carries a time, a position, a uniform thinning mark and a unit
exponential survival mark.  A candidate (s, x, u, r) becomes a birth iff
u <= b(x, gamma_{s-}); an accepted point dies at s + r/m (never, if m = 0).
Initial points carry their own independent unit exponential lifetimes.  The
sweep is event-driven and deterministic given the seed, so whole runs can be
replayed and verified pathwise.

Every point the sweep can ever hold is known before it starts: gamma0 and
the driving candidates.  ``simulate`` cuts the candidates, in rank order,
into blocks about as large as the configuration present when the block
starts, and finds the pairs within the kernel's interaction range once per
block, with one ``neighbor_pairs`` call over the block's rows: the points
present at its start (ascending id), then its candidates (rank order).  The
sweep keeps a present mask over those rows, and a rate reads its row's slice
of the pair list filtered by the mask.  An accepted candidate takes the next
id in rank order, so among present points row order is id order.  A block's
list holds only points that can meet within it, so its size follows the
present density, not the horizon or the rejection rate.  Only deaths wait in
a heap, keyed by (time, id); the candidates are already in time order.
"""
from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import rng
from .geometry import Box, Configuration, Window, neighbor_pairs

# near(row) -> (rows, dists): the present rows within the kernel's
# interaction range of ``row``, ascending, and their distances from it
Near = Callable[[int], tuple[np.ndarray, np.ndarray]]


class BoundViolationError(RuntimeError):
    """A birth kernel produced a value above its declared uniform bound.

    ``witness`` names the offending position, rate value and bound (and the
    candidate time, when raised from a sweep).
    """

    def __init__(self, message: str, **witness):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class DrivingPoint:
    """One candidate of the driving process."""

    s: float              # candidate time in (0, T]
    x: tuple[float, ...]  # candidate position
    u: float              # thinning mark in [0, b_max]
    r: float              # unit exponential survival mark
    index: int            # rank in time order; breaks float ties


@dataclass(frozen=True)
class Event:
    time: float
    kind: str  # "birth" | "death"
    id: int
    position: tuple[float, ...]


@dataclass(frozen=True)
class RadialPotential:
    """Nonnegative radial kernel, zero beyond ``range``.

    ``func`` must accept a numpy array of distances and return values
    elementwise; values are clamped to zero outside the range by the callers
    (only neighbors within ``range`` are ever summed).
    """

    func: Callable[[np.ndarray], np.ndarray]
    range: float
    name: str = "custom"
    params: tuple[float, ...] = ()

    def __call__(self, dist: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(dist), dtype=float)

    def descriptor(self) -> dict:
        return {"name": self.name, "range": self.range, "params": list(self.params)}


def step_potential(height: float, radius: float) -> RadialPotential:
    """height * indicator(dist <= radius)."""
    if height < 0:
        raise ValueError("potential height must be nonnegative")
    return RadialPotential(
        lambda d: np.where(d <= radius, height, 0.0), radius, "step", (height, radius)
    )


def gaussian_potential(height: float, width: float, cutoff: float) -> RadialPotential:
    """height * exp(-(dist/width)^2), truncated at ``cutoff``."""
    if height < 0 or width <= 0:
        raise ValueError("potential needs height >= 0 and width > 0")
    return RadialPotential(
        lambda d: np.where(d <= cutoff, height * np.exp(-((d / width) ** 2)), 0.0),
        cutoff,
        "gaussian",
        (height, width, cutoff),
    )


class BirthKernel:
    """Birth rate b(x, gamma) with a declared uniform bound b_max.

    The bound is a contract: `evaluate` raises BoundViolationError if the
    kernel ever exceeds it, which means the kernel was misdeclared.  A rate
    is evaluated at a row of the sweep's position array and sees gamma only
    through ``near``, which gives the present points within
    ``interaction_range`` of any row.
    """

    b_max: float
    interaction_range: float = 0.0

    def rate(self, row: int, near: Near) -> float:
        raise NotImplementedError

    def evaluate(self, x, row: int, near: Near) -> float:
        """The rate at ``row``, whose position is ``x`` (named in the witness)."""
        value = float(self.rate(row, near))
        if not math.isfinite(value) or value < 0:
            message = f"kernel returned invalid rate {value!r}"
        elif value > self.b_max * (1.0 + 1e-12) + 1e-300:
            message = f"bound violation: b(x, gamma) = {value} exceeds declared b_max = {self.b_max}"
        else:
            return value
        raise BoundViolationError(message, x=[float(c) for c in x], value=value,
                                  bound=self.b_max)

    def descriptor(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantBirthKernel(BirthKernel):
    """b(x, gamma) = z, the dominating (free birth) kernel."""

    z: float

    def __post_init__(self):
        if self.z < 0:
            raise ValueError("constant rate must be nonnegative")

    @property
    def b_max(self) -> float:
        return self.z

    def rate(self, row, near):
        return self.z

    def descriptor(self) -> dict:
        return {"variant": "constant", "z": self.z}


@dataclass(frozen=True)
class GlauberBirthKernel(BirthKernel):
    """b(x, gamma) = z * exp(-sum_{y in gamma, y != x} phi(|x-y|))."""

    z: float
    phi: RadialPotential

    @property
    def b_max(self) -> float:
        return self.z

    @property
    def interaction_range(self) -> float:
        return self.phi.range

    def rate(self, row, near):
        dist = near(row)[1]
        if not dist.size:
            return self.z
        # a point of gamma exactly at x is excluded (positions are distinct)
        total = float(np.sum(self.phi(dist[dist > 0.0])))
        return self.z * math.exp(-total)

    def descriptor(self) -> dict:
        return {"variant": "glauber", "z": self.z, "phi": self.phi.descriptor()}


@dataclass(frozen=True)
class DensityBirthKernel(BirthKernel):
    """A rate built from the radial potentials a, c and phi.

    The uniform bound cannot be derived from the kernels alone and must be
    declared as ``bound``; it is enforced at every evaluation.  Each subclass
    names its ``variant`` and gives its ``rate``.
    """

    a: RadialPotential
    c: RadialPotential
    phi: RadialPotential
    bound: float

    @property
    def b_max(self) -> float:
        return self.bound

    @property
    def interaction_range(self) -> float:
        return max(self.a.range, self.c.range, self.phi.range)

    def descriptor(self) -> dict:
        return {
            "variant": self.variant,
            "a": self.a.descriptor(),
            "c": self.c.descriptor(),
            "phi": self.phi.descriptor(),
            "b_max": self.bound,
        }


class FecundityBirthKernel(DensityBirthKernel):
    """Density dependent fecundity rate.

    b(x, gamma) = sum_y a(x-y) (1 + sum_{z != y} c(z-y)) exp(-sum_{z != y} phi(z-y)),
    sums over gamma.
    """

    variant = "fecundity"

    def rate(self, row, near):
        total = 0.0
        rows, dist = near(row)
        within = dist <= self.a.range
        for y, d_xy in zip(rows[within].tolist(), dist[within].tolist()):
            a_val = float(self.a(np.array([d_xy]))[0])
            if a_val == 0.0:
                continue
            dists = near(y)[1]  # gamma without y around y
            c_sum = float(np.sum(self.c(dists[dists <= self.c.range]))) if dists.size else 0.0
            phi_sum = float(np.sum(self.phi(dists[dists <= self.phi.range]))) if dists.size else 0.0
            total += a_val * (1.0 + c_sum) * math.exp(-phi_sum)
        return total


class EstablishmentBirthKernel(DensityBirthKernel):
    """Density dependent establishment rate.

    b(x, gamma) = (sum_y a(x-y)) (1 + sum_z c(x-z)) exp(-sum_z phi(x-z)),
    all sums over gamma, centered at the candidate position.
    """

    variant = "establishment"

    def rate(self, row, near):
        dist = near(row)[1]
        if not dist.size:
            return 0.0
        a_sum = float(np.sum(self.a(dist[dist <= self.a.range])))
        if a_sum == 0.0:
            return 0.0
        c_sum = float(np.sum(self.c(dist[dist <= self.c.range])))
        phi_sum = float(np.sum(self.phi(dist[dist <= self.phi.range])))
        return a_sum * (1.0 + c_sum) * math.exp(-phi_sum)


def kernel_from_descriptor(desc: dict) -> BirthKernel:
    def pot(d: dict) -> RadialPotential:
        if d["name"] == "step":
            return step_potential(*d["params"])
        if d["name"] == "gaussian":
            return gaussian_potential(*d["params"])
        raise ValueError(f"cannot rebuild potential {d['name']!r} from a descriptor")

    variant = desc["variant"]
    if variant == "constant":
        return ConstantBirthKernel(desc["z"])
    if variant == "glauber":
        return GlauberBirthKernel(desc["z"], pot(desc["phi"]))
    if variant == "fecundity":
        return FecundityBirthKernel(pot(desc["a"]), pot(desc["c"]), pot(desc["phi"]), desc["b_max"])
    if variant == "establishment":
        return EstablishmentBirthKernel(pot(desc["a"]), pot(desc["c"]), pot(desc["phi"]), desc["b_max"])
    raise ValueError(f"unknown kernel variant {variant!r}")


def sample_driving_process(window: Window, horizon: float, b_max: float,
                           seed: int) -> list[DrivingPoint]:
    """Poisson driving candidates on (0, T] x window x [0, b_max] x R_+.

    Candidate count is Poisson(b_max * T * volume); times, positions and
    thinning marks are uniform, survival marks unit exponential.  The list is
    time-sorted and deterministic given the seed.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if b_max < 0:
        raise ValueError("b_max must be nonnegative")
    if b_max == 0:
        return []
    gen = rng.keyed_generator(seed, rng.DRIVING)
    n = int(gen.poisson(b_max * horizon * window.volume()))
    times = horizon * (1.0 - gen.random(n))  # uniform on (0, T]
    pos = window.side * gen.random((n, window.dim))
    u = b_max * gen.random(n)
    r = gen.standard_exponential(n)
    order = np.argsort(times, kind="stable")
    return list(map(DrivingPoint, times[order].tolist(), map(tuple, pos[order].tolist()),
                    u[order].tolist(), r[order].tolist(), range(n)))


@dataclass
class Trajectory:
    """A realized birth-and-death path on [0, T] with its driving randomness.

    The path is fixed by ``gamma0`` and the event log; ``__post_init__``
    derives the rest in one pass over the log, in log order.  ``presence``
    maps each id to (birth_time, death_time); death_time is None for points
    alive at the horizon.  A point is present on [birth, death): the path is
    right-continuous, deaths and births take effect at their own time.
    The phantom is everything that ever lived.  A log with an event time
    outside [0, T], a death of an id that is not present, a birth of an id
    already in the phantom, a birth position of another dimension than the
    window's, or an event earlier than the one before it is rejected with a
    ValueError.  The pass also derives the phantom table, whose row k, the
    mark column k of every solve, is the k-th smallest id: ``phantom_xy``
    (wrapped), ``births`` and ``deaths`` (inf for a survivor).
    """

    window: Window
    gamma0: Configuration
    kernel: BirthKernel
    death_rate: float
    horizon: float
    seed: int
    events: list[Event]
    initial_lifetimes: dict[int, float] = field(default_factory=dict)
    driving: list[DrivingPoint] | None = None
    presence: dict[int, tuple[float, float | None]] = field(init=False)
    phantom_xy: np.ndarray = field(init=False, repr=False, compare=False)
    births: np.ndarray = field(init=False, repr=False, compare=False)
    deaths: np.ndarray = field(init=False, repr=False, compare=False)
    _ids: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dim = self.window.dim
        presence = {pid: (0.0, None) for pid in self.gamma0.ids()}
        positions = {pid: tuple(map(float, pos)) for pid, pos in self.gamma0.items()}
        last = -math.inf
        for ev in self.events:
            if not 0.0 <= ev.time <= self.horizon:
                raise ValueError(f"event log: {ev.kind} of id {ev.id} at t={ev.time} lies "
                                 f"outside [0, T] for the horizon T={self.horizon}")
            if ev.time < last:
                raise ValueError(f"event log: {ev.kind} of id {ev.id} at t={ev.time} comes "
                                 f"after an event at t={last} (the log must be time-ordered)")
            last = ev.time
            if ev.kind == "birth" and ev.id not in presence:
                if len(ev.position) != dim:
                    raise ValueError(f"event log: birth of id {ev.id} at t={ev.time} is not {dim}-d")
                presence[ev.id] = (ev.time, None)
                positions[ev.id] = ev.position
            elif ev.kind == "death" and ev.id in presence and presence[ev.id][1] is None:
                presence[ev.id] = (presence[ev.id][0], ev.time)
            else:
                raise ValueError(f"event log: invalid {ev.kind} of id {ev.id} at t={ev.time}"
                                 " (a birth needs a new id, a death a present one)")
        self.presence = presence

        self._ids = ids = sorted(presence)
        self.phantom_xy = self.window.wrap(
            np.array([positions[pid] for pid in ids], dtype=float).reshape(len(ids), dim))
        self.births = np.array([presence[pid][0] for pid in ids], dtype=float)
        self.deaths = np.array([math.inf if presence[pid][1] is None else presence[pid][1]
                                for pid in ids], dtype=float)

    def phantom_ids(self) -> list[int]:
        """The phantom ids in ascending order: row k of the phantom table."""
        return list(self._ids)

    def present_ids(self, t: float) -> list[int]:
        """Ids of gamma_t, the right-continuous state at time t."""
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        return [self._ids[k] for k in np.flatnonzero(self.present_at(t)).tolist()]

    def present_at(self, t: float | np.ndarray) -> np.ndarray:
        """Right-continuous present mask over the phantom table's rows at t.

        Row k is present iff ``births[k] <= t < deaths[k]``, which is the
        log replayed up to t: a birth and a death of one row at t leave it
        absent.  A column of times, ``times[:, None]``, gives a times x
        phantom mask.
        """
        return (self.births <= t) & (t < self.deaths)

    def present_rows(self, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``: row k is present on ``grid[lo[k]:hi[k]]`` of an
        increasing grid, the times t with ``births[k] <= t < deaths[k]``,
        whether or not its birth and death are grid times."""
        return (np.searchsorted(grid, self.births, "left"),
                np.searchsorted(grid, self.deaths, "left"))


# fewest candidates in a block: a neighbor_pairs call costs about 0.1 ms
# before any work, so a sparse configuration still gets blocks of hundreds
MIN_BLOCK = 256


def present_neighbors(window: Window, positions: np.ndarray, radius: float,
                      present: np.ndarray) -> Near:
    """``near`` over the rows of ``positions``, from one ``neighbor_pairs``
    list at ``radius`` (none for a radius of 0, where no row has neighbors).

    ``near(row)`` is the row's slice of the list, kept where ``present`` is
    set; the mask is read at each call, so the caller flips it in place.
    """
    if radius > 0:
        src, dst, dist = neighbor_pairs(window, positions, radius)
    else:
        src = dst = np.zeros(0, dtype=np.intp)
        dist = np.zeros(0)
    bounds = np.searchsorted(src, np.arange(len(positions) + 1)).tolist()

    def near(row: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = bounds[row], bounds[row + 1]
        rows = dst[lo:hi]
        keep = present[rows]
        return rows[keep], dist[lo:hi][keep]

    return near


def simulate(gamma0: Configuration, kernel: BirthKernel, death_rate: float,
             horizon: float, seed: int) -> Trajectory:
    """Run the thinning sweep and return the full trajectory.

    The sweep produces the event log; the trajectory derives presence and
    the phantom from it, and keeps the driving process and the initial
    lifetimes for replay audits.  Identical arguments give a bit-identical
    event log.  Candidates come in rank order, and before each one every
    death strictly earlier than its time s is applied, in (time, id) order:
    a candidate sees the strict left limit gamma_{s-}, and deaths at s come
    after it.  Float-equal death times therefore come in id order.
    """
    if death_rate < 0:
        raise ValueError("death rate must be nonnegative")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    window = gamma0.window
    driving = sample_driving_process(window, horizon, kernel.b_max, seed)
    init_ids = gamma0.ids()
    gen = rng.keyed_generator(seed, rng.INITIAL_LIFETIMES)
    init_marks = gen.standard_exponential(len(init_ids))
    initial_lifetimes = {pid: float(mark) for pid, mark in zip(init_ids, init_marks)}

    # rows: gamma0 in ascending id order, then the candidates in rank order
    n0 = len(init_ids)
    candidates = np.array([dp.x for dp in driving], dtype=float).reshape(-1, window.dim)
    points = window.wrap(np.concatenate([gamma0.positions_array(), candidates]))
    # the current block: its rows in ascending order, the present mask over
    # them and the end of its candidate rows; gamma0 until the first candidate
    block_rows = np.arange(n0)
    present = np.ones(n0, dtype=bool)
    block_end = n0
    # present positions, to reject a birth onto a present point
    occupant = {tuple(pos): pid for pid, pos in zip(init_ids, points[:n0].tolist())}
    events: list[Event] = []

    # pending deaths as (time, id, row); ids are unique, so rows never compare
    pending: list[tuple[float, int, int]] = []
    if death_rate > 0:
        for row, pid in enumerate(init_ids):
            death_time = initial_lifetimes[pid] / death_rate
            if death_time <= horizon:
                pending.append((death_time, pid, row))
    heapq.heapify(pending)

    def die_before(s: float) -> None:
        while pending and pending[0][0] < s:
            t, pid, row = heapq.heappop(pending)
            pos = tuple(points[row].tolist())
            del occupant[pos]
            present[np.searchsorted(block_rows, row)] = False
            events.append(Event(t, "death", pid, pos))

    next_id = max(init_ids) + 1 if init_ids else 0
    for row, dp in enumerate(driving, n0):
        die_before(dp.s)
        if row == block_end:
            held = block_rows[present]
            block_end = min(row + max(len(held), MIN_BLOCK), len(points))
            block_rows = np.concatenate([held, np.arange(row, block_end)])
            present = np.zeros(len(block_rows), dtype=bool)
            present[:len(held)] = True
            near = present_neighbors(window, points[block_rows],
                                     kernel.interaction_range, present)
        local = len(block_rows) - (block_end - row)
        try:
            b = kernel.evaluate(dp.x, local, near)
        except BoundViolationError as exc:
            exc.witness["t"] = dp.s
            raise
        if dp.u <= b:
            pid = next_id
            next_id += 1
            pos = tuple(points[row].tolist())
            other = occupant.setdefault(pos, pid)
            if other != pid:
                raise ValueError(f"points {other} and {pid} have identical positions")
            present[local] = True
            events.append(Event(dp.s, "birth", pid, pos))
            if death_rate > 0:
                death_time = dp.s + dp.r / death_rate
                if death_time <= horizon:
                    heapq.heappush(pending, (death_time, pid, row))
    die_before(math.inf)

    return Trajectory(window, gamma0, kernel, death_rate, horizon, seed, events,
                      initial_lifetimes, driving)


@dataclass
class DominationReport:
    """Pathwise verification of the dominating-process inequalities.

    ``min_margin`` is the smallest n_cand + n_init - phantom over the checks:
    how close the path came to its dominating process (negative on a
    violation).
    """

    passed: bool
    checks: int
    min_margin: int
    violations: list[dict]
    replay_consistent: bool


def _audit_sample(traj: Trajectory, key: int, n_boxes: int, min_width: float,
                  spread: float) -> tuple[list[Box], np.ndarray, np.ndarray, np.ndarray]:
    """What a replay audit counts in: the window, then ``n_boxes - 1`` boxes
    drawn from sampling key ``key`` (lower corner uniform in the lower half
    of each axis, width ``side * (min_width + spread * u)`` clipped to the
    window), and the driving candidates' times, wrapped positions
    (``(n, dim)``, also for none) and survival marks, in rank order."""
    if traj.driving is None:
        raise ValueError("trajectory did not retain its driving process")
    window = traj.window
    side, dim = window.side, window.dim
    gen = rng.keyed_generator(key, rng.SAMPLING)
    boxes = [window.box]
    for _ in range(n_boxes - 1):
        lo = side * gen.random(dim) * 0.5
        hi = np.minimum(lo + side * (min_width + spread * gen.random(dim)), side)
        boxes.append(Box(tuple(float(v) for v in lo), tuple(float(v) for v in hi)))
    s = np.array([dp.s for dp in traj.driving], dtype=float)
    x = window.wrap(np.array([dp.x for dp in traj.driving], dtype=float).reshape(-1, dim))
    r = np.array([dp.r for dp in traj.driving], dtype=float)
    return boxes, s, x, r


def verify_domination(traj: Trajectory) -> DominationReport:
    """Check the path against its dominating free-birth process.

    At 8 times t and in 8 boxes L (the window, then random ones): the
    phantom up to t restricted to L never exceeds (driving candidates with
    s <= t in L) plus the initial points in L, and the smallest difference
    is reported; every born point's (s, x) must appear among the candidates;
    and the event log must be reproducible by replay.
    """
    boxes, cand_s, cand_x, _ = _audit_sample(traj, 0, 8, 0.125, 0.375)
    violations: list[dict] = []

    replayed = simulate(traj.gamma0, traj.kernel, traj.death_rate, traj.horizon, traj.seed)
    replay_consistent = replayed.events == traj.events

    candidate_keys = {(dp.s, dp.x) for dp in traj.driving}
    for ev in traj.events:
        if ev.kind == "birth" and (ev.time, ev.position) not in candidate_keys:
            violations.append({"kind": "missing_candidate", "id": ev.id, "t": ev.time})

    init_pts = traj.gamma0.positions_array()
    inside = [(box, box.contains_many(cand_x), int(np.count_nonzero(box.contains_many(init_pts))),
               box.contains_many(traj.phantom_xy)) for box in boxes]
    margins = []
    for t in np.linspace(0.0, traj.horizon, 9)[1:]:
        # phantom up to t = gamma_0 plus all births accepted by time t
        phantom_mask, cand_mask = traj.births <= t, cand_s <= t
        for box, in_cand, n_init, in_phantom in inside:
            lhs = int(np.count_nonzero(phantom_mask & in_phantom))
            n_cand = int(np.count_nonzero(cand_mask & in_cand))
            margins.append(n_cand + n_init - lhs)
            if margins[-1] < 0:
                violations.append({
                    "kind": "domination", "t": float(t),
                    "box": box.descriptor(), "phantom": lhs,
                    "candidates": n_cand, "initial": n_init,
                })

    passed = not violations and replay_consistent
    return DominationReport(passed, len(margins), min(margins), violations, replay_consistent)


def verify_counting_identity(traj: Trajectory) -> bool:
    """Replay the counting identity behind the path construction.

    At 6 times t and in 6 boxes L (the window, then random ones), gamma_t(L)
    from the phantom table's lifetimes must equal the direct count over driving
    candidates (accepted, survival mark beyond m(t-s)) plus surviving initial
    points.  The acceptance decisions are recomputed by a fresh replay
    sweep, not read from the event log.
    """
    boxes, s, x, r = _audit_sample(traj, 1, 6, 0.0, 0.5)
    fresh = simulate(traj.gamma0, traj.kernel, traj.death_rate, traj.horizon, traj.seed)
    accepted = {(ev.time, ev.position) for ev in fresh.events if ev.kind == "birth"}
    m = traj.death_rate

    times = np.linspace(0.0, traj.horizon, 7)[1:]
    born = np.array([(dp.s, dp.x) in accepted for dp in traj.driving], dtype=bool)
    lifetimes = np.array([traj.initial_lifetimes[pid] for pid in traj.gamma0.ids()])
    x0 = traj.gamma0.positions_array()
    inside = [(box.contains_many(x), box.contains_many(x0), box.contains_many(traj.phantom_xy))
              for box in boxes]

    for t, present in zip(times, traj.present_at(times[:, None])):
        alive = born & (s <= t) & (r > m * (t - s))
        alive0 = lifetimes > m * t
        for in_x, in_x0, in_phantom in inside:
            direct = np.count_nonzero(alive & in_x) + np.count_nonzero(alive0 & in_x0)
            if direct != np.count_nonzero(present & in_phantom):
                return False
    return True


# -- event log I/O -----------------------------------------------------------


def write_event_log(traj: Trajectory, path, *, include_driving: bool = False) -> None:
    """JSON Lines: one header record, then one record per event."""
    header = {
        "record": "header",
        "seed": traj.seed,
        "T": traj.horizon,
        "m": traj.death_rate,
        "kernel": traj.kernel.descriptor(),
        "window": traj.window.descriptor(),
        "gamma0": traj.gamma0.to_json_obj(),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for ev in traj.events:
            fh.write(json.dumps({
                "t": ev.time, "kind": ev.kind, "id": ev.id,
                "position": list(ev.position),
            }) + "\n")
    if include_driving:
        drv = str(path) + ".driving"
        with open(drv, "w") as fh:
            for dp in traj.driving or []:
                fh.write(json.dumps({
                    "s": dp.s, "x": list(dp.x), "u": dp.u, "r": dp.r, "index": dp.index,
                }) + "\n")


def read_event_log(path) -> tuple[dict, list[Event]]:
    with open(path) as fh:
        header = json.loads(fh.readline())
        if not isinstance(header, dict) or header.get("record") != "header":
            raise ValueError("event log does not start with a header record")
        events = []
        for n, line in enumerate(fh, 2):
            try:
                rec = json.loads(line)
                events.append(Event(rec["t"], rec["kind"], rec["id"], tuple(rec["position"])))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"event log line {n}: not an event record ({exc!r})") from None
    return header, events

