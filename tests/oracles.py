"""Test-only functionals, oracles and studies.

Nothing in the CLI runs these; the tests import them as a plain module (the
way ``test_acceptance`` imports ``test_scales``).  They build on the library's
own pieces: ``ovsjannikov_bound_constant`` computes its L with the same
``scales._cut_radius`` and ``scales._bound_value`` as the ``gronwall`` and
``moments`` reports, and ``strong_order_study`` solves its replicas as
isolated pairs of one ``integrate_marks`` call, on noise aggregated from the
finest lattice and passed in through ``explicit_noise``.  The accessors at
the top (``phantom_positions``, ``config_at`` and ``present_ids``, a log
replay, ``restrict``, ``position_of``, ``count_in``, ``in_box``,
``grid_index``, ``radial_norm``, ``radial_norms``, ``box_volume``) are what
the tests read of the library objects beyond what the library itself needs;
``projection_consistency`` checks that a solve restricted to a shorter
horizon is the prefix of the full one.  ``reference_bounds`` is the
``bounds`` suite with every sample in one array, and ``traced_peak`` gives a
call's ``tracemalloc`` peak for the memory tests.  The artifact writers
and reader at the end are the per-value ``csv``/``json`` versions that the
library's string-joining writers and C-parsed reader must match.

The radius queries below scan every point, and ``reference_simulate`` is
the thinning sweep over a mutable point set queried that way, with each
kernel's rate written against the point set; ``simulate``'s pair-list sweep
must give the same event log.
"""
from __future__ import annotations

import csv
import heapq
import json
import math
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from bdspin import birth_death, rng, spin_sde
from bdspin.birth_death import (BirthKernel, BoundViolationError, ConstantBirthKernel, Event,
                                EstablishmentBirthKernel, FecundityBirthKernel,
                                GlauberBirthKernel, Trajectory, present_neighbors, simulate)
from bdspin.geometry import Box, Configuration, Window, neighbor_pairs, poisson_configuration
from bdspin.scales import _bound_value, _cut_radius, _neighborhoods
from bdspin.marked_process import MarkedTrajectory
from bdspin.spin_sde import (BoundsCheckReport, CoefficientSet, InitialMarkPolicy,
                             IntegratorConfig, MarkPath, integrate_marks, linear_drift,
                             linear_self_diffusion, zero_pair)


# -- accessors the library does not need ----------------------------------------


def position_of(config, pid: int) -> np.ndarray:
    """Position of point ``pid`` of a ``Configuration`` or a ``PointSet``."""
    try:
        return config._pos[pid]
    except KeyError:
        raise KeyError(f"unknown point {pid}") from None


def count_in(config: Configuration, box: Box) -> int:
    """Number of points of ``config`` in the closed ``box``."""
    pts = config.positions_array()
    return int(np.sum(box.contains_many(pts))) if len(pts) else 0


def in_box(box: Box, x) -> bool:
    """Whether the point ``x`` lies in the closed ``box``, one coordinate at a time."""
    return all(l <= xi <= h for xi, l, h in zip(x, box.lo, box.hi))


def grid_index(path: MarkPath, t: float) -> int:
    """The row of ``path.grid`` that holds the time ``t``."""
    j = int(np.searchsorted(path.grid, t))
    if j >= len(path.grid) or path.grid[j] != t:
        raise ValueError(f"time {t} is not on the integration grid")
    return j


def box_volume(box: Box) -> float:
    v = 1.0
    for lo, hi in zip(box.lo, box.hi):
        v *= hi - lo
    return v


def radial_norm(window: Window, x) -> float:
    """|x|, measured from the window's norm origin as ``Window.radial_norms`` does."""
    return window.distance(x, window.descriptor()["norm_origin"])


def radial_norms(config: Configuration) -> np.ndarray:
    """|x| of every point of ``config`` in ascending id order."""
    return config.window.radial_norms(config.positions_array())


def phantom_positions(traj: Trajectory) -> dict[int, tuple[float, ...]]:
    """Position of everything that ever lived, by id, from ``gamma0`` and the
    birth events alone, not from the trajectory's phantom table."""
    positions = {pid: tuple(map(float, pos)) for pid, pos in traj.gamma0.items()}
    positions.update((ev.id, ev.position) for ev in traj.events if ev.kind == "birth")
    return positions


def present_ids(traj: Trajectory, t: float, side: str = "right") -> list[int]:
    """Ids of gamma_t (side='right', as ``Trajectory.present_ids``) or of the
    left limit gamma_{t-} (side='left'), which is gamma_0 at t = 0.

    A replay of the event log from gamma0, not a reading of the phantom
    table: gamma_t applies every event at a time <= t in log order,
    gamma_{t-} every event before t.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if not 0.0 <= t <= traj.horizon:
        raise ValueError(f"time {t} outside [0, {traj.horizon}]")
    left = side == "left" and t > 0.0
    present = set(traj.gamma0.ids())
    for ev in traj.events:
        if ev.time > t or left and ev.time == t:
            break
        if ev.kind == "birth":
            present.add(ev.id)
        else:
            present.remove(ev.id)
    return sorted(present)


def config_at(traj: Trajectory, t: float, side: str = "right") -> Configuration:
    """The configuration gamma_t or gamma_{t-}, rebuilt from the event log."""
    positions = phantom_positions(traj)
    return Configuration(traj.window, [(pid, positions[pid])
                                       for pid in present_ids(traj, t, side)])


def restrict(traj: Trajectory, horizon: float) -> Trajectory:
    """The same path observed only on [0, horizon]; ids are unchanged."""
    if not 0.0 < horizon <= traj.horizon:
        raise ValueError("restriction horizon must lie in (0, T]")
    driving = None
    if traj.driving is not None:
        driving = [dp for dp in traj.driving if dp.s <= horizon]
    return replace(traj, horizon=horizon, driving=driving,
                   events=[ev for ev in traj.events if ev.time <= horizon])


# -- radius queries by a direct scan ----------------------------------------------


def ids_within(config, x, radius: float) -> list[tuple[int, float]]:
    """(id, distance) pairs with |x - y| <= radius (closed ball), id-sorted.

    ``config`` is a ``Configuration`` or a ``PointSet``; each distance is the
    one ``Window.row_distances`` gives from ``x``.
    """
    if not len(config):
        return []
    dist = config.window.row_distances(config.positions_array(), np.asarray(x, dtype=float))
    return [(pid, d) for pid, d in zip(config.ids(), dist.tolist()) if d <= radius]


def neighbor_count(config, x, radius: float) -> int:
    """Number of points within closed distance ``radius`` of ``x``.

    ``x`` itself is counted when it is a point of the configuration.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    return len(ids_within(config, x, radius))


def neighbors_within(config, pid: int, radius: float) -> list[tuple[int, float]]:
    """(id, distance) of all other points within ``radius`` of point ``pid``."""
    return [(q, d) for q, d in ids_within(config, position_of(config, pid), radius) if q != pid]


class PointSet:
    """A mutable id -> position map, as the thinning sweep once kept gamma:
    positions wrap and are checked as a ``Configuration`` checks them."""

    def __init__(self, config: Configuration):
        self.window = config.window
        self._pos = dict(config.items())

    def __len__(self) -> int:
        return len(self._pos)

    def ids(self) -> list[int]:
        return sorted(self._pos)

    def positions_array(self) -> np.ndarray:
        return np.stack([self._pos[pid] for pid in self.ids()])

    def insert(self, pid: int, position) -> None:
        x = position_of(Configuration(self.window, [(pid, position)]), pid)
        for other, y in self._pos.items():
            if np.array_equal(y, x):
                raise ValueError(f"points {other} and {pid} have identical positions")
        self._pos[pid] = x

    def remove(self, pid: int) -> None:
        del self._pos[pid]


# -- the thinning sweep over a point set -------------------------------------------


def reference_rate(kernel: BirthKernel, x: np.ndarray, config) -> float:
    """b(x, config) for each kernel variant, queried point by point."""
    if isinstance(kernel, ConstantBirthKernel):
        return kernel.z
    if isinstance(kernel, GlauberBirthKernel):
        hits = ids_within(config, x, kernel.phi.range)
        if not hits:
            return kernel.z
        dist = np.array([d for _, d in hits])
        # a point of gamma exactly at x is excluded (positions are distinct)
        total = float(np.sum(kernel.phi(dist[dist > 0.0])))
        return kernel.z * math.exp(-total)
    if isinstance(kernel, FecundityBirthKernel):
        total = 0.0
        for y_id, d_xy in ids_within(config, x, kernel.a.range):
            a_val = float(kernel.a(np.array([d_xy]))[0])
            if a_val == 0.0:
                continue
            y = position_of(config, y_id)
            inner = ids_within(config, y, max(kernel.c.range, kernel.phi.range))
            dists = np.array([d for zid, d in inner if zid != y_id])
            c_sum = float(np.sum(kernel.c(dists[dists <= kernel.c.range]))) if dists.size else 0.0
            phi_sum = (float(np.sum(kernel.phi(dists[dists <= kernel.phi.range])))
                       if dists.size else 0.0)
            total += a_val * (1.0 + c_sum) * math.exp(-phi_sum)
        return total
    if isinstance(kernel, EstablishmentBirthKernel):
        hits = ids_within(config, x, kernel.interaction_range)
        if not hits:
            return 0.0
        dist = np.array([d for _, d in hits])
        a_sum = float(np.sum(kernel.a(dist[dist <= kernel.a.range])))
        if a_sum == 0.0:
            return 0.0
        c_sum = float(np.sum(kernel.c(dist[dist <= kernel.c.range])))
        phi_sum = float(np.sum(kernel.phi(dist[dist <= kernel.phi.range])))
        return a_sum * (1.0 + c_sum) * math.exp(-phi_sum)
    raise TypeError(f"no reference rate for {type(kernel).__name__}")


def reference_evaluate(kernel: BirthKernel, x, config) -> float:
    """``reference_rate`` with the kernel's bound check."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite position in birth rate evaluation")
    value = float(reference_rate(kernel, x, config))
    if not math.isfinite(value) or value < 0:
        message = f"kernel returned invalid rate {value!r}"
    elif value > kernel.b_max * (1.0 + 1e-12) + 1e-300:
        message = f"bound violation: b(x, gamma) = {value} exceeds declared b_max = {kernel.b_max}"
    else:
        return value
    raise BoundViolationError(message, x=[float(c) for c in x], value=value,
                              bound=kernel.b_max)


def rate_at(kernel: BirthKernel, x, config: Configuration) -> float:
    """``kernel.evaluate`` at a position ``x`` off the configuration: ``x`` is
    the last row after the configuration's points, and only they are present."""
    positions = np.vstack([config.positions_array(), np.asarray(x, dtype=float)])
    present = np.arange(len(positions)) < len(config)
    near = present_neighbors(config.window, positions, kernel.interaction_range, present)
    return kernel.evaluate(x, len(config), near)


def reference_simulate(gamma0: Configuration, kernel: BirthKernel, death_rate: float,
                       horizon: float, seed: int) -> Trajectory:
    """The thinning sweep with gamma kept as a ``PointSet`` and every rate a
    point-by-point query of it (``reference_evaluate``)."""
    if death_rate < 0:
        raise ValueError("death rate must be nonnegative")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    window = gamma0.window
    for pid, pos in gamma0.items():
        if not window.contains(pos):
            raise ValueError(f"initial point {pid} outside the window")

    driving = birth_death.sample_driving_process(window, horizon, kernel.b_max, seed)
    init_ids = gamma0.ids()
    gen = rng.keyed_generator(seed, rng.INITIAL_LIFETIMES)
    init_marks = gen.standard_exponential(len(init_ids))
    initial_lifetimes = {pid: float(mark) for pid, mark in zip(init_ids, init_marks)}

    state = PointSet(gamma0)
    events: list[Event] = []

    heap: list[tuple[float, int, str, object]] = []
    for dp in driving:
        heap.append((dp.s, dp.index, "candidate", dp))
    seq = len(driving)
    if death_rate > 0:
        for pid in init_ids:
            death_time = initial_lifetimes[pid] / death_rate
            if death_time <= horizon:
                heap.append((death_time, seq, "death", pid))
                seq += 1
    heapq.heapify(heap)

    next_id = max(init_ids) + 1 if init_ids else 0
    while heap:
        t, _, kind, payload = heapq.heappop(heap)
        if kind == "candidate":
            dp = payload
            try:
                b = reference_evaluate(kernel, np.asarray(dp.x), state)
            except BoundViolationError as exc:
                exc.witness["t"] = t
                raise
            if dp.u <= b:
                pid = next_id
                next_id += 1
                state.insert(pid, dp.x)
                pos = tuple(float(c) for c in position_of(state, pid))
                events.append(Event(t, "birth", pid, pos))
                if death_rate > 0:
                    death_time = t + dp.r / death_rate
                    if death_time <= horizon:
                        heapq.heappush(heap, (death_time, seq, "death", pid))
                        seq += 1
        else:
            pid = payload
            pos = tuple(float(c) for c in position_of(state, pid))
            state.remove(pid)
            events.append(Event(t, "death", pid, pos))

    return Trajectory(window, gamma0, kernel, death_rate, horizon, seed, events,
                      initial_lifetimes, driving)


# -- geometry functionals --------------------------------------------------------


@dataclass(frozen=True)
class TemperedWeight:
    """Integrable weight (1+r)^(-dim-epsilon), equal to 1 at r=0."""

    epsilon: float
    dim: int

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    def value(self, r) -> float | np.ndarray:
        return (1.0 + r) ** (-(self.dim + self.epsilon))

    def at(self, window: Window, x) -> float:
        return float(self.value(radial_norm(window, x)))

    def pair(self, window: Window, x, y) -> float:
        return float(self.value(window.distance(x, y)))


def log_bound_constant(config: Configuration, radius: float) -> float:
    """Smallest a with n_{x,R}(gamma) <= a * (1 + log(1 + |x|)) over the points.

    |x| is the radial norm from the window anchor.  Raises on an empty
    configuration (the bound is vacuous there).
    """
    if len(config) == 0:
        raise ValueError("empty configuration")
    best = 0.0
    norms = radial_norms(config)
    for (pid, pos), r in zip(config.items(), norms):
        n = neighbor_count(config, pos, radius)
        best = max(best, n / (1.0 + math.log1p(r)))
    return best


def tempered_pairing(config: Configuration, f: Callable[[np.ndarray], float]) -> float:
    """Sum of f over the point positions (id order, deterministic)."""
    return float(sum(f(pos) for _, pos in config.items()))


def weighted_tail_sum(config: Configuration, alpha: float, k: int, radius: float) -> float:
    """Sum over points of exp(-alpha |x|) * n_{x,R}(gamma)^k."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    total = 0.0
    norms = radial_norms(config)
    for (pid, pos), r in zip(config.items(), norms):
        n = neighbor_count(config, pos, radius)
        total += math.exp(-alpha * r) * n**k
    return total


# -- event-log functionals and the rate perturbation bound -------------------------


def event_count_in(traj: Trajectory, box: Box, t0: float, t1: float) -> int:
    """Events with position in ``box`` and time in the closed [t0, t1]."""
    if t1 < t0:
        return 0
    return sum(
        1 for ev in traj.events
        if t0 <= ev.time <= t1 and in_box(box, ev.position)
    )


def birth_events(traj: Trajectory) -> list[Event]:
    return [ev for ev in traj.events if ev.kind == "birth"]


def death_events(traj: Trajectory) -> list[Event]:
    return [ev for ev in traj.events if ev.kind == "death"]


def check_rate_perturbation_bound(kernel: GlauberBirthKernel, window: Window,
                                  bound_B: float, weight, n_samples: int,
                                  seed: int) -> dict:
    """Sample |b(x, gamma + y) - b(x, gamma)| <= z * B * G(x - y) for Glauber.

    Valid whenever phi <= B * G pointwise; uses z(1 - e^{-phi}) <= z phi.
    Returns a report dict with the worst observed slack.
    """
    gen = rng.keyed_generator(seed, rng.SAMPLING)
    worst = -math.inf
    violations = 0
    for _ in range(n_samples):
        n = int(gen.integers(0, 30))
        pts = window.side * gen.random((n, window.dim))
        config = Configuration.from_positions(window, pts)
        x = window.side * gen.random(window.dim)
        y = window.side * gen.random(window.dim)
        base = rate_at(kernel, x, config)
        perturbed = rate_at(kernel, x, Configuration(window, [*config.items(), (10_000, y)]))
        lhs = abs(perturbed - base)
        rhs = kernel.z * bound_B * weight.pair(window, x, y)
        worst = max(worst, lhs - rhs)
        if lhs > rhs * (1 + 1e-9) + 1e-12:
            violations += 1
    return {"passed": violations == 0, "violations": violations, "worst_excess": worst}


# -- weighted norms and the operator bound -------------------------------------------


def weighted_lp_norm_from_radii(radii: np.ndarray, values: np.ndarray,
                                alpha: float, p: float) -> float:
    """(sum_x e^{-alpha r_x} |z_x|^p)^{1/p} for pre-computed radial norms."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if p < 1:
        raise ValueError("p must be >= 1")
    if len(radii) == 0:
        return 0.0
    return float(np.sum(np.exp(-alpha * radii) * np.abs(values) ** p) ** (1.0 / p))


def weighted_lp_norm(config: Configuration, marks: Mapping[int, float] | np.ndarray,
                     alpha: float, p: float) -> float:
    """Weighted p-norm of marks over a configuration.

    ``marks`` is a mapping id -> value or an array aligned with the ascending
    id order.  |x| is the radial norm from the window anchor.
    """
    ids = config.ids()
    if isinstance(marks, Mapping):
        values = np.array([marks[pid] for pid in ids], dtype=float)
    else:
        values = np.asarray(marks, dtype=float)
        if values.shape != (len(ids),):
            raise ValueError("marks array does not match the configuration size")
    return weighted_lp_norm_from_radii(radial_norms(config), values, alpha, p)


class OvsjannikovMatrix:
    """Interaction matrix over a configuration: zero beyond ``radius`` and
    |Q[x, y]| <= growth_c * n_x^k, with n_x the closed in-radius count."""

    def __init__(self, config: Configuration, matrix: np.ndarray, radius: float,
                 growth_c: float, growth_k: float):
        ids = config.ids()
        n = len(ids)
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (n, n):
            raise ValueError(f"matrix shape {matrix.shape} does not match {n} points")
        src, dst, counts = _neighborhoods(config.window, config.positions_array(), radius)
        outside = matrix != 0.0
        outside[src, dst] = False
        np.fill_diagonal(outside, False)
        # float_power rounds as C's pow does; the vectorised ** may differ in the last bit
        caps = growth_c * np.float_power(counts, growth_k)
        over = np.abs(matrix) > (caps * (1 + 1e-12))[:, None]
        bad_rows = np.flatnonzero(outside.any(axis=1) | over.any(axis=1))
        if len(bad_rows):
            i = bad_rows[0]
            if outside[i].any():
                qid = ids[int(np.argmax(outside[i]))]
                raise ValueError(f"entry ({ids[i]}, {qid}) violates the locality radius")
            raise ValueError(f"row {ids[i]} exceeds the declared magnitude bound")
        self.config = config
        self.ids = ids
        self.matrix = matrix
        self.radius = radius
        self.growth_c = growth_c
        self.growth_k = growth_k
        self.neighbor_counts = counts

    def apply(self, z: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(z, dtype=float)

    @classmethod
    def random(cls, config: Configuration, radius: float, growth_c: float,
               growth_k: float, seed: int) -> "OvsjannikovMatrix":
        """Entries uniform in [-C n_x^k, C n_x^k] on in-radius pairs (diagonal
        included), drawn row by row in ascending id order."""
        src, dst, counts = _neighborhoods(config.window, config.positions_array(), radius)
        closed = np.eye(len(config), dtype=bool)
        closed[src, dst] = True
        rows, cols = np.nonzero(closed)  # row-major: by row, then column
        gen = rng.keyed_generator(seed, rng.SAMPLING)
        matrix = np.zeros(closed.shape)
        caps = growth_c * np.float_power(counts[rows], growth_k)
        matrix[rows, cols] = caps * (2.0 * gen.random(len(rows)) - 1.0)
        return cls(config, matrix, radius, growth_c, growth_k)


class LBound(NamedTuple):
    """Operator-norm constant together with the cut radius it was computed with."""

    value: float
    r_cut: float


def ovsjannikov_bound_constant(config: Configuration, growth_c: float, growth_k: float,
                               q: float, radius: float, alpha_star: float,
                               alpha_sup: float, r_cut: float | None = None) -> LBound:
    """Constant L with ||Q z||_beta <= L / (beta-alpha)^q ||z||_alpha for every
    in-scale alpha < beta and every matrix with the declared locality/growth.

    L = C e^{alpha_sup * rho} [ (rho^q + n_{0,R}) (alpha_sup - alpha_star)^q
                                + (q/e)^q ],

    where R is any radius beyond which n_x <= |x|^{q/(2k)}; when omitted, the
    smallest such R is found by scanning the finite configuration.  A given R
    below that smallest one raises ValueError.
    """
    _, _, counts = _neighborhoods(config.window, config.positions_array(), radius)
    norms = radial_norms(config)
    smallest, n_0r = _cut_radius(norms, counts, growth_k, q, alpha_star, alpha_sup)
    if r_cut is None:
        r_cut = smallest
    else:
        if smallest > r_cut:  # the farthest point that breaks the R-condition
            worst = int(np.argmax(np.where(counts > norms ** (q / (2.0 * growth_k)),
                                           norms, -np.inf)))
            raise ValueError(
                "R-condition unsatisfiable on window: point "
                f"{config.ids()[worst]} at |x|={norms[worst]:.6g} has "
                f"n_x={counts[worst]:.0f} > |x|^(q/2k)="
                f"{norms[worst] ** (q / (2.0 * growth_k)):.6g}")
        n_0r = int(np.sum(norms <= r_cut))
    return LBound(_bound_value(growth_c, q, radius, n_0r, alpha_star, alpha_sup), r_cut)


def check_operator_bound(matrix: OvsjannikovMatrix, bound: float, alpha: float,
                         beta: float, q: float, n_vectors: int, seed: int) -> dict:
    """Sample ||Qz||_beta <= bound/(beta-alpha)^q ||z||_alpha on random vectors.

    Norms are the p = 1 members of the scale, which is the scale the operator
    bound lives on.
    """
    if beta <= alpha:
        raise ValueError("beta must exceed alpha")
    radii = radial_norms(matrix.config)
    gen = rng.keyed_generator(seed, rng.SAMPLING)
    factor = bound / (beta - alpha) ** q
    violations = 0
    worst_ratio = 0.0
    for _ in range(n_vectors):
        scale = 10.0 ** gen.uniform(-1, 2)
        z = scale * gen.standard_normal(len(matrix.ids))
        lhs = weighted_lp_norm_from_radii(radii, matrix.apply(z), beta, 1.0)
        rhs = factor * weighted_lp_norm_from_radii(radii, z, alpha, 1.0)
        if rhs > 0:
            worst_ratio = max(worst_ratio, lhs / rhs)
        if lhs > rhs * (1 + 1e-9):
            violations += 1
    return {"passed": violations == 0, "violations": violations,
            "worst_ratio": worst_ratio, "vectors": n_vectors}


# -- per-point assembly of the mark dynamics -------------------------------------------


def assemble_drift(pid: int, t: float, marks: Mapping[int, float],
                   traj: Trajectory, coeffs: CoefficientSet) -> float:
    """Drift of one mark at one time: 0 when the particle is absent, else the
    single-site term plus the pair sum over current in-radius neighbors."""
    if pid not in traj.presence:
        raise KeyError(f"unknown id {pid}")
    if pid not in traj.present_ids(t):
        return 0.0
    cfg = config_at(traj, t)
    z_x = marks[pid]
    total = float(coeffs.single.func(np.float64(z_x)))
    for qid, d in neighbors_within(cfg, pid, coeffs.radius):
        total += float(coeffs.pair.func(np.float64(z_x), np.float64(marks[qid]),
                                        np.float64(d)))
    return total


def assemble_diffusion(pid: int, t: float, marks: Mapping[int, float],
                       traj: Trajectory, coeffs: CoefficientSet) -> float:
    """Diffusion of one mark at one time; 0 when absent, no single-site term."""
    if pid not in traj.presence:
        raise KeyError(f"unknown id {pid}")
    if pid not in traj.present_ids(t):
        return 0.0
    cfg = config_at(traj, t)
    z_x = marks[pid]
    total = 0.0
    for qid, d in neighbors_within(cfg, pid, coeffs.radius):
        total += float(coeffs.diffusion.func(np.float64(z_x), np.float64(marks[qid]),
                                             np.float64(d)))
    return total


# -- the bounds suite over all samples at once --------------------------------------------


def reference_bounds(coeffs: CoefficientSet, sample_size: int = 10_000,
                     seed: int = 0) -> BoundsCheckReport:
    """``spin_sde.check_drift_diffusion_bounds`` with every sample in one
    points x samples array: the same draws, the same in-place neighbour sums
    in pair order, and the four inequalities checked in order, each keeping
    the row-major first of its largest excess and replacing the witness only
    on a strictly larger one."""
    config = poisson_configuration(Window(6.0, 2, "periodic"), 1.0, seed=seed + 1)
    ids = config.ids()
    n_pts = len(ids)
    src, dst, dist = neighbor_pairs(config.window, config.positions_array(), coeffs.radius)
    pairs = list(zip(src.tolist(), dst.tolist(), dist.tolist()))
    n_x = np.bincount(src, minlength=n_pts) + 1.0  # the point itself counts

    gen = rng.keyed_generator(seed, rng.SAMPLING)
    scales = np.array([0.3, 1.0, 3.0, 10.0])[gen.integers(0, 4, size=sample_size)]
    z1 = gen.standard_normal((n_pts, sample_size)) * scales
    z2 = gen.standard_normal((n_pts, sample_size)) * scales

    def fields(z):
        drift = coeffs.single.func(z)
        diffusion = np.zeros_like(z)
        for x, y, d in pairs:
            drift[x] += coeffs.pair.func(z[x], z[y], d)
            diffusion[x] += coeffs.diffusion.func(z[x], z[y], d)
        return drift, diffusion

    def neighbor_sum(arr):
        out = np.zeros_like(arr)
        for x, y, _ in pairs:
            out[x] += arr[y]
        return out

    phi1, psi1 = fields(z1)
    phi2, psi2 = fields(z2)
    delta, dphi, dpsi = z1 - z2, phi1 - phi2, np.abs(psi1 - psi2)
    psi0 = np.bincount(src, weights=coeffs.diffusion.func(np.zeros_like(dist),
                                                          np.zeros_like(dist), dist),
                       minlength=n_pts)

    a_bar = coeffs.pair.lipschitz
    m_diff = coeffs.diffusion.lipschitz
    c_gr = coeffs.single.growth_c
    r_gr = coeffs.single.growth_power
    b_diss = coeffs.single.dissipativity
    nx = n_x[:, None]
    violations = 0
    worst = None
    worst_excess = 0.0

    def check(name, lhs, rhs):
        nonlocal violations, worst, worst_excess
        bad = lhs > rhs + 1e-9 * (1.0 + np.abs(rhs))
        count = int(bad.sum())
        violations += count
        if count:
            excess = np.where(bad, lhs - rhs, -np.inf)
            i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
            if float(excess[i, j]) > worst_excess:
                worst_excess = float(excess[i, j])
                worst = {"inequality": name, "point": ids[int(i)], "sample": int(j),
                         "lhs": float(lhs[i, j]), "rhs": float(rhs[i, j])}

    check("diffusion_lipschitz", dpsi,
          m_diff * (nx + 1.0) * np.abs(delta) + m_diff * neighbor_sum(np.abs(delta)))
    check("diffusion_at_zero", np.abs(psi0)[:, None], (m_diff * n_x)[:, None])
    check("drift_growth", np.abs(phi1),
          c_gr * (1.0 + np.abs(z1) ** r_gr) + a_bar * nx * (1.0 + 2.0 * np.abs(z1))
          + a_bar * neighbor_sum(np.abs(z1)))
    check("drift_dissipativity", delta * dphi,
          (b_diss + 0.5 + 4.0 * a_bar**2 * nx**2) * delta**2
          + 0.5 * a_bar**2 * nx * neighbor_sum(delta**2))
    return BoundsCheckReport(violations == 0, sample_size, n_pts, violations, worst)


def traced_peak(func: Callable[[], object]) -> tuple[object, int]:
    """``func()`` and the peak bytes that ``tracemalloc`` saw allocated
    during the call."""
    tracemalloc.start()
    try:
        result = func()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


# -- horizon projection of the mark solve ----------------------------------------------


def projection_mismatch(full: MarkPath, short: MarkPath) -> tuple[int, float] | None:
    """First (id, t) where a shared mark differs, or None if exactly equal."""
    n = len(short.grid)
    if n > len(full.grid) or not np.array_equal(short.grid, full.grid[:n]):
        raise ValueError("restricted grid is not a prefix of the full grid; "
                         "choose a horizon on the dt lattice")
    col_full = {pid: k for k, pid in enumerate(full.ids)}
    for k, pid in enumerate(short.ids):
        a = short.values[:, k]
        b = full.values[:n, col_full[pid]]
        neq = a != b
        if neq.any():
            j = int(np.argmax(neq))
            return pid, float(short.grid[j])
    return None


def projection_consistency(traj: Trajectory, coeffs: CoefficientSet,
                           init: InitialMarkPolicy, icfg: IntegratorConfig,
                           horizon: float, seed: int) -> bool:
    """Re-solve on the restricted horizon and compare against the restriction
    of the full-horizon solve: exact (bitwise) equality on the shared grid for
    all shared ids.  Requires ``horizon`` to lie on the full solve's grid."""
    full = integrate_marks(traj, coeffs, init, icfg, seed)
    short = integrate_marks(restrict(traj, horizon), coeffs, init, icfg, seed)
    return projection_mismatch(full, short) is None


# -- strong order of the integrator -----------------------------------------------------


@contextmanager
def explicit_noise(dense: np.ndarray) -> Iterator[None]:
    """Drive every mark solve in the block by ``dense`` instead of the keyed
    streams: the normal of phantom column k at step j is ``dense[j, k]``.

    ``spin_sde._keyed_slices`` is replaced by the same slices of ``dense``,
    packed in the same layout, so a solve reads exactly the entries on which
    a particle moves.
    """
    def slices(seed, ids, first, stop):
        if dense.shape[1] != len(ids) or np.any(stop > len(dense)):
            raise ValueError(f"noise of shape {dense.shape} does not cover {len(ids)} ids "
                             "over the solve's steps")
        return np.concatenate([dense[first[k]:stop[k], k] for k in range(len(ids))]
                              + [np.empty(0)])

    keyed = spin_sde._keyed_slices
    spin_sde._keyed_slices = slices
    try:
        yield
    finally:
        spin_sde._keyed_slices = keyed


@contextmanager
def shifted_switches(shift: int) -> Iterator[None]:
    """Make every mark solve in the block switch rows and edges ``shift``
    steps late (+1) or early (-1): each interval's begin above step 0 and
    each end move by ``shift``, clipped to the solve's steps.

    ``spin_sde._switches`` is wrapped, so the faulty schedule is the
    library's own; only the noise slices stay where the lifetimes put them.
    """
    switches = spin_sde._switches

    def shifted(begin, end, n_steps):
        begin = np.where(begin > 0, np.clip(begin + shift, 0, n_steps), begin)
        return switches(begin, np.clip(end + shift, 0, n_steps), n_steps)

    spin_sde._switches = shifted
    try:
        yield
    finally:
        spin_sde._switches = switches


@contextmanager
def shared_streams() -> Iterator[None]:
    """Make particles 2k and 2k + 1 draw one Brownian stream, that of key k,
    in every mark solve in the block.

    ``spin_sde._keyed_slices`` is wrapped, so each particle still reads its
    own steps of the stream; only the keys are merged.
    """
    keyed = spin_sde._keyed_slices
    spin_sde._keyed_slices = lambda seed, ids, first, stop: keyed(
        seed, [pid // 2 for pid in ids], first, stop)
    try:
        yield
    finally:
        spin_sde._keyed_slices = keyed


def _keyed_normals(seed: int, ids: Sequence[int], n_steps: int) -> np.ndarray:
    """The first ``n_steps`` normals of every keyed stream, shape (n_steps, ids),
    each from its own ``rng.keyed_generator``: a SeedSequence, a Philox and a
    Generator per stream, with none of the solve's shared key derivation."""
    return np.array([rng.keyed_generator(seed, rng.BROWNIAN, pid).standard_normal(n_steps)
                     for pid in ids]).reshape(len(ids), n_steps).T


@dataclass
class StrongOrderReport:
    dts: list[float]
    errors: list[float]
    slope: float
    monotone: bool

    def to_json_obj(self) -> dict:
        return {"dts": self.dts, "errors": self.errors, "slope": self.slope,
                "monotone": self.monotone}


def strong_order_study(seed: int, *, n_paths: int = 400,
                       levels: Sequence[int] = tuple(range(4, 11)),
                       drift_rate: float = -1.0, noise_scale: float = 0.5,
                       horizon: float = 1.0, initial_value: float = 1.0) -> StrongOrderReport:
    """Strong convergence of the integrator on an exactly solvable system.

    Two static mutual neighbors with linear drift a*s and multiplicative
    per-neighbor diffusion kappa*sigma make each mark a geometric diffusion
    with the exact solution x0*exp((a - kappa^2/2)t + kappa*W_t).  Brownian
    paths are fixed on the finest lattice and aggregated to the coarser ones,
    so the levels see the same driving noise.  The ``n_paths`` paths are the
    pairs of one solve: pair r sits at offset 2.5 * (r mod 20, r div 20), so
    two pairs are at least 1.7 apart, beyond the radius of 1, and particle k
    of pair r is phantom column 2r + k.
    """
    window = Window(2.5 * max(20, -(-n_paths // 20)), 2, "open")  # side 50 up to 400 paths
    gamma0 = Configuration(window, [(2 * r + k, [x0 + 2.5 * (r % 20), 1.0 + 2.5 * (r // 20)])
                                    for r in range(n_paths) for k, x0 in enumerate((0.5, 1.3))])
    traj = simulate(gamma0, ConstantBirthKernel(0.0), 0.0, horizon, seed=seed)
    coeffs = CoefficientSet(linear_drift(drift_rate), zero_pair(),
                            linear_self_diffusion(noise_scale), radius=1.0)
    init = InitialMarkPolicy.constant(initial_value)

    levels = sorted(levels)
    finest = levels[-1]
    n_fine = 2**finest
    dt_fine = horizon / n_fine
    z_fine = np.empty((n_fine, 2, n_paths))
    for r in range(n_paths):
        z_fine[:, :, r] = _keyed_normals(rng.replica_seed(seed, r), [0, 1], n_fine)
    dw_fine = math.sqrt(dt_fine) * z_fine
    w_final = dw_fine.sum(axis=0)
    exact = initial_value * np.exp(
        (drift_rate - 0.5 * noise_scale**2) * horizon + noise_scale * w_final
    )

    dts, errors = [], []
    for lev in levels:
        n_steps = 2**lev
        block = n_fine // n_steps
        dt = horizon / n_steps
        dw = dw_fine.reshape(n_steps, block, 2, n_paths).sum(axis=1)
        noise = dw / math.sqrt(dt)
        icfg = IntegratorConfig(dt=dt)
        # column 2r + k of the solve is particle k of path r
        with explicit_noise(noise.transpose(0, 2, 1).reshape(n_steps, 2 * n_paths)):
            path = integrate_marks(traj, coeffs, init, icfg, seed)
        em_final = path.values[-1].reshape(n_paths, 2).T.copy()
        err = math.sqrt(float(np.mean((em_final - exact) ** 2)))
        dts.append(dt)
        errors.append(err)
    slope = float(np.polyfit(np.log2(dts), np.log2(errors), 1)[0])
    monotone = all(a > b for a, b in zip(errors, errors[1:]))  # errors listed coarse->fine
    return StrongOrderReport(dts, errors, slope, monotone)


# -- artifact writers and reader, one value at a time -----------------------------------


def reference_to_csv(marks: MarkPath, path, stride: int = 1) -> None:
    """``MarkPath.to_csv`` through ``csv.writer``, one row per (time, id)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "id", "value"])
        for j in range(0, len(marks.grid), stride):
            for k, pid in enumerate(marks.ids):
                writer.writerow([repr(float(marks.grid[j])), pid,
                                 repr(float(marks.values[j, k]))])


def reference_write_marked_snapshots(path, mt: MarkedTrajectory, stride: int = 1) -> None:
    """``write_marked_snapshots`` through ``json.dumps``, one dict per point."""
    traj = mt.base
    positions = phantom_positions(traj)
    ids = sorted(positions)
    coords = [traj.window.wrap(positions[pid]).tolist() for pid in ids]
    with open(path, "w") as fh:
        for j in range(0, len(mt.grid), stride):
            row = mt.marks.values[j]
            present = set(traj.present_ids(float(mt.grid[j])))
            points = [{"id": pid, "position": coords[k], "mark": float(row[k])}
                      for k, pid in enumerate(ids) if pid in present]
            fh.write(json.dumps({"t": float(mt.grid[j]), "points": points}) + "\n")


def reference_read_mark_path_csv(path) -> MarkPath:
    """``read_mark_path_csv`` through ``csv.reader`` and a dict per time; a
    repeated (t, id) row keeps its last value."""
    rows: dict[float, dict[int, float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for t_s, pid_s, v_s in reader:
            rows.setdefault(float(t_s), {})[int(pid_s)] = float(v_s)
    times = sorted(rows)
    ids = sorted(rows[times[0]]) if times else []
    if any(rows[t].keys() != rows[times[0]].keys() for t in times):
        raise ValueError(f"mark path {path}: the ids differ between times")
    values = np.array([[rows[t][pid] for pid in ids] for t in times])
    return MarkPath(np.array(times), ids, values)
