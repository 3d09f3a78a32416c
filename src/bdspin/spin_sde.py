"""Spin diffusions along a frozen birth-and-death path.

Every particle that ever lives on [0, T] carries a real mark.  While present,
a mark follows

    d xi_x = [ f(xi_x) + sum_{y ~ x} g(xi_x, xi_y) ] dt
             + [ sum_{y ~ x} h(xi_x, xi_y) ] dW_x,

where y ~ x ranges over the current neighbors within the interaction radius;
while absent, drift and diffusion are identically zero, so the mark is frozen
bit-exactly.  The integrator is Euler-Maruyama (optionally drift-tamed) on a
grid refined to contain every jump time, so coefficients are constant within
each step.  Wiener increments for particle k at step j are a pure function of
(seed, k, j), which makes solves pathwise comparable across volume cutoffs
and horizons.

A solve walks the grid once.  The in-radius pairs of the phantom
configuration are found once (``geometry.neighbor_pairs``).  Row k of the
trajectory's phantom table moves on the grid steps from ``births[k]`` to
``deaths[k]``, and an edge is alive while its source moves and its
destination is present: the walk switches rows and edges at the ends of
these intervals and gathers the live graph only at a step with a switch.
Each particle's keyed stream is drawn up to its death step and stored only
over its lifetime; marks frozen by a volume cutoff draw nothing.  The
streams' keys come from one vectorised pass (``rng.keyed_streams``).  The
mark array stays dense (grid x phantom).
"""
from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import rng
from .birth_death import Trajectory
from .geometry import Box, Window, neighbor_pairs, poisson_configuration


class IntegrationBlowUpError(RuntimeError):
    """A mark became non-finite during integration.

    ``witness`` names the particle id and the grid time of the blow-up.
    """

    def __init__(self, message: str, **witness):
        super().__init__(message)
        self.witness = witness


# -- coefficient data model ---------------------------------------------------


@dataclass(frozen=True)
class SingleDrift:
    """Single-site drift with declared growth and one-sided dissipativity.

    |func(s)| <= growth_c * (1 + |s|^growth_power) and
    (s1-s2)(func(s1)-func(s2)) <= dissipativity * (s1-s2)^2.
    """

    func: Callable[[np.ndarray], np.ndarray]
    growth_c: float
    growth_power: float
    dissipativity: float
    name: str = "custom"
    params: tuple[float, ...] = ()

    def descriptor(self) -> dict:
        return {"name": self.name, "params": list(self.params),
                "growth_c": self.growth_c, "growth_power": self.growth_power,
                "dissipativity": self.dissipativity}


@dataclass(frozen=True)
class PairTerm:
    """A pair drift g or pair diffusion h, ``func(sigma, s, dist)``, uniformly
    Lipschitz: |f(a1,b1,.) - f(a2,b2,.)| <= lipschitz * (|a1-a2| + |b1-b2|).
    A pair drift grows at most linearly, |g(a,b,.)| <= lipschitz * (1 + |a|
    + |b|); a pair diffusion has |h(0,0,.)| <= lipschitz.
    """

    func: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    lipschitz: float
    name: str = "custom"
    params: tuple[float, ...] = ()

    def descriptor(self) -> dict:
        return {"name": self.name, "params": list(self.params),
                "lipschitz": self.lipschitz}


@dataclass(frozen=True)
class CoefficientSet:
    """Drift/diffusion pieces plus the interaction radius."""

    single: SingleDrift
    pair: PairTerm
    diffusion: PairTerm
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("interaction radius must be positive")

    def descriptor(self) -> dict:
        return {
            "single_drift": self.single.descriptor(),
            "pair_drift": self.pair.descriptor(),
            "pair_diffusion": self.diffusion.descriptor(),
            "radius": self.radius,
        }


def cubic_drift(theta: float) -> SingleDrift:
    """-s^3 + theta*s: cubic pinning, dissipativity constant theta."""
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    return SingleDrift(lambda s: -s**3 + theta * s, growth_c=1.0 + theta,
                       growth_power=3.0, dissipativity=theta,
                       name="cubic", params=(theta,))


def linear_drift(rate: float) -> SingleDrift:
    """rate*s; dissipativity max(rate, 0)."""
    return SingleDrift(lambda s: rate * s, growth_c=abs(rate), growth_power=2.0,
                       dissipativity=max(rate, 0.0), name="linear", params=(rate,))


def zero_drift() -> SingleDrift:
    return SingleDrift(lambda s: np.zeros_like(s), growth_c=0.0, growth_power=2.0,
                       dissipativity=0.0, name="zero")


def linear_coupling(strength: float) -> PairTerm:
    """g(sigma, s) = strength * s."""
    return PairTerm(lambda a, b, d: strength * b, lipschitz=abs(strength),
                    name="linear", params=(strength,))


def exchange_coupling(strength: float) -> PairTerm:
    """g(sigma, s) = strength * (s - sigma): conserves the pairwise sum."""
    return PairTerm(lambda a, b, d: strength * (b - a), lipschitz=abs(strength),
                    name="exchange", params=(strength,))


def zero_pair() -> PairTerm:
    return PairTerm(lambda a, b, d: np.zeros_like(a), lipschitz=0.0, name="zero")


def constant_diffusion(kappa: float) -> PairTerm:
    """h = kappa per neighbor."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    return PairTerm(lambda a, b, d: np.full_like(a, kappa), lipschitz=kappa,
                    name="constant", params=(kappa,))


def tanh_diffusion(kappa: float) -> PairTerm:
    """h(sigma, s) = kappa * tanh(s): bounded, Lipschitz constant kappa."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    return PairTerm(lambda a, b, d: kappa * np.tanh(b), lipschitz=kappa,
                    name="tanh", params=(kappa,))


def linear_self_diffusion(kappa: float) -> PairTerm:
    """h(sigma, s) = kappa * sigma: multiplicative noise per neighbor."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    return PairTerm(lambda a, b, d: kappa * a, lipschitz=kappa,
                    name="linear_self", params=(kappa,))


def zero_diffusion() -> PairTerm:
    return PairTerm(lambda a, b, d: np.zeros_like(a), lipschitz=0.0, name="zero")


COEFFICIENT_LIBRARY = {
    "single": {"cubic": cubic_drift, "linear": linear_drift, "zero": zero_drift},
    "pair": {"linear": linear_coupling, "exchange": exchange_coupling, "zero": zero_pair},
    "diffusion": {"constant": constant_diffusion, "tanh": tanh_diffusion,
                  "linear_self": linear_self_diffusion, "zero": zero_diffusion},
}


@dataclass(frozen=True)
class InitialMarkPolicy:
    """Marks of points that are not initially present: a deterministic field."""

    kind: str
    value: float = 0.0
    field_func: Callable[[np.ndarray], float] | None = None
    name: str = ""

    @classmethod
    def constant(cls, value: float) -> "InitialMarkPolicy":
        return cls("constant", value=float(value))

    @classmethod
    def from_field(cls, func: Callable[[np.ndarray], float], name: str = "field") -> "InitialMarkPolicy":
        return cls("field", field_func=func, name=name)

    def evaluate(self, position: np.ndarray) -> float:
        if self.kind == "constant":
            return self.value
        return float(self.field_func(np.asarray(position, dtype=float)))

    def descriptor(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": self.value}
        return {"kind": "field", "name": self.name}


@dataclass(frozen=True)
class IntegratorConfig:
    """Euler-Maruyama step control.

    ``dt`` is the maximum step; the actual grid additionally contains every
    jump time of the trajectory.  ``scheme`` is "euler" or "tamed" (the tamed
    variant divides the drift increment by 1 + dt*|drift| to stop discrete
    blow-up of the cubic drift).  Wiener increments are always keyed per
    particle; the descriptor records that as ``"noise_mode": "keyed"``.
    """

    dt: float
    scheme: str = "euler"

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in ("euler", "tamed"):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    def descriptor(self) -> dict:
        return {"dt": self.dt, "scheme": self.scheme, "noise_mode": "keyed"}


# -- mark paths ----------------------------------------------------------------


@dataclass
class MarkPath:
    """Marks of every phantom id on the integration grid.

    ``values[j, k]`` is the mark of ``ids[k]`` at ``grid[j]``.
    """

    grid: np.ndarray
    ids: list[int]
    values: np.ndarray

    def to_csv(self, path, stride: int = 1) -> None:
        """CSV columns (t, id, value); rows grouped by time, id-ascending, each
        value its float repr, lines ended by ``\\r\\n`` (as ``csv.writer``
        writes them).

        A value bitwise equal to its predecessor in the previous written row
        keeps that row's text, so a frozen mark is formatted once.
        """
        with open(path, "w", newline="") as fh:
            fh.write("t,id,value\r\n")
            if not self.values.size:
                return
            prefixes = [f",{pid}," for pid in self.ids]
            cells = list(map(operator.add, prefixes, map(repr, self.values[0].tolist())))
            bits = self.values.view(np.int64)
            prev = 0
            for j in range(0, len(self.grid), stride):
                changed = np.flatnonzero(bits[j] != bits[prev])
                for k, v in zip(changed.tolist(), self.values[j, changed].tolist()):
                    cells[k] = prefixes[k] + repr(v)
                prev = j
                t = repr(float(self.grid[j]))
                fh.write(t + ("\r\n" + t).join(cells) + "\r\n")


# the longest repr of a float64, as in -2.2250738585072014e-308
_REPR_MAX = 24


def read_mark_path_csv(path) -> MarkPath:
    """Read a ``MarkPath.to_csv`` file.

    The rows of one time form a block; blocks come in strictly increasing
    time and list the same ids, strictly ascending.  A file of any other
    layout (a repeated ``(t, id)`` row, a missing or extra id, an
    out-of-order time) raises ``ValueError``.  numpy parses the ids and
    values in C, exactly as ``float`` does, and skips blank lines; a file
    with no rows is an empty path.  The time column is read as text, which
    numpy reads faster than it parses a float: only the first t of each
    block is parsed, and the block's other rows must repeat it byte for byte.
    """
    with warnings.catch_warnings():  # loadtxt warns on a file with no rows
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, ndmin=1,
                          dtype=[("t", f"S{_REPR_MAX + 1}"), ("id", np.int64),
                                 ("value", float)])
    if not rows.size:
        return MarkPath(np.array([]), [], np.array([]))
    t, ids = rows["t"], rows["id"]
    starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
    heads = t[starts].tolist()
    if max(map(len, heads)) > _REPR_MAX:
        raise ValueError(f"mark path {path}: a time is longer than a float repr")
    grid = np.array([float(s) for s in heads])
    if not np.all(np.diff(grid) > 0):
        raise ValueError(f"mark path {path}: the times are not strictly increasing")
    ascending = np.diff(ids) > 0
    ascending[starts[1:] - 1] = True
    if not ascending.all():
        i = int(np.argmin(ascending)) + 1
        raise ValueError(f"mark path {path}: id {ids[i]} at t={float(t[i])} repeats "
                         "or breaks the ascending order")
    n = len(t) // len(starts)
    if (n * len(starts) != len(t) or not np.array_equal(starts, np.arange(0, len(t), n))
            or not np.all(ids.reshape(-1, n) == ids[:n])):
        raise ValueError(f"mark path {path}: the ids differ between times")
    return MarkPath(grid, ids[:n].tolist(), rows["value"].reshape(-1, n).copy())


# -- grid and segment machinery -------------------------------------------------


def build_time_grid(horizon: float, dt: float, event_times: Sequence[float]) -> np.ndarray:
    """Uniform dt-lattice refined with every event time in (0, T]; starts 0, ends T.

    Restricting to a shorter horizon T1 that lies on the grid yields exactly
    the prefix of this grid, which is what makes horizon projections exact.
    """
    n = int(math.floor(horizon / dt + 1e-9))
    base = dt * np.arange(n + 1)
    if base[-1] > horizon:
        base = base[:-1]
    ev = np.asarray(event_times, dtype=float)
    ev = ev[(0.0 < ev) & (ev <= horizon)]
    s = np.sort(np.concatenate((base, [0.0, horizon], ev)))
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def integration_grid(traj: Trajectory, dt: float) -> np.ndarray:
    """The grid ``integrate_marks`` solves ``traj`` on: the dt-lattice over
    [0, T] refined with every birth and death time of the phantom table."""
    return build_time_grid(traj.horizon, dt, np.concatenate((traj.births, traj.deaths)))


def _keyed_slices(seed: int, ids: Sequence[int], first: np.ndarray,
                  stop: np.ndarray) -> np.ndarray:
    """Entries [first[k], stop[k]) of every stream (seed, BROWNIAN, ids[k]),
    packed id after id into one buffer.

    A stream is drawn up to ``stop[k]`` and its first ``first[k]`` normals
    are dropped: entry j of a stream is the j-th normal it yields.
    """
    lengths = stop - first
    out = np.empty(int(lengths.sum()))
    moving = np.flatnonzero(lengths).tolist()
    ends = np.cumsum(lengths)
    starts, ends = (ends - lengths).tolist(), ends.tolist()
    first, stop = first.tolist(), stop.tolist()
    streams = rng.keyed_streams(seed, rng.BROWNIAN, [ids[k] for k in moving])
    for k, gen in zip(moving, streams):
        out[starts[k]:ends[k]] = gen.standard_normal(stop[k])[first[k]:]
    return out


def _switches(begin: np.ndarray, end: np.ndarray,
              n_steps: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Switches of the items on over steps [begin[i], end[i]), empty ones
    dropped: step j < n_steps sets ``items[ptr[j]:ptr[j + 1]]`` to ``on[...]``."""
    keep = np.flatnonzero(begin < end)
    steps = np.concatenate((begin[keep], end[keep]))
    order = np.argsort(steps, kind="stable")
    ptr = np.searchsorted(steps[order], np.arange(n_steps + 1)).tolist()
    return np.concatenate((keep, keep))[order], order < keep.size, ptr


def _solve(traj: Trajectory, coeffs: CoefficientSet, init: InitialMarkPolicy,
           icfg: IntegratorConfig, seed: int, *,
           frozen_box: Box | None = None) -> MarkPath:
    ids = traj.phantom_ids()
    n_ids = len(ids)
    src, dst, dist = neighbor_pairs(traj.window, traj.phantom_xy, coeffs.radius)
    grid = integration_grid(traj, icfg.dt)
    n_steps = len(grid) - 1

    frozen_mask = np.zeros(n_ids, dtype=bool)
    if frozen_box is not None:
        frozen_mask = ~frozen_box.contains_many(traj.phantom_xy)

    # Particle k is present on steps [first[k], ends[k]).  Its noise at step
    # j is flat[base[k] + j], stored only for the steps on which k moves.
    first, ends = traj.present_rows(grid)
    ends = np.minimum(ends, n_steps)
    stop = np.where(frozen_mask, first, ends)
    flat = _keyed_slices(seed, ids, first, stop)
    base = np.cumsum(stop - first) - stop

    z0 = np.array([init.evaluate(x) for x in traj.phantom_xy], dtype=float)
    values = np.empty((n_steps + 1, n_ids))
    values[0] = z0

    # Row k moves on steps [first[k], stop[k]), and edge e (sorted by src,
    # dst) is alive while src[e] moves and dst[e] is present.  At step 0 and
    # at each step where a row or an edge switches, the walk applies the
    # step's switches and gathers the active set and the alive edges again;
    # ``act`` ascends and ``live`` keeps (src, dst) order, so ``np.add.at``
    # adds each particle's pair terms in one fixed order.
    rows, row_on, row_ptr = _switches(first, stop, n_steps)
    edges, edge_on, edge_ptr = _switches(np.maximum(first[src], first[dst]),
                                         np.minimum(stop[src], ends[dst]), n_steps)
    act_mask = np.zeros(n_ids, dtype=bool)
    alive = np.zeros(len(src), dtype=bool)
    local = np.zeros(n_ids, dtype=np.intp)
    widths = np.diff(grid)
    h_steps, sqrt_h = widths.tolist(), np.sqrt(widths).tolist()
    tamed = icfg.scheme == "tamed"

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_steps):
            z = values[j]
            values[j + 1] = z
            a, b, c, d = row_ptr[j], row_ptr[j + 1], edge_ptr[j], edge_ptr[j + 1]
            if j == 0 or a < b or c < d:
                act_mask[rows[a:b]] = row_on[a:b]
                alive[edges[c:d]] = edge_on[c:d]
                act = act_mask.nonzero()[0]
                live = alive.nonzero()[0]
                esrc, edst, edist = src[live], dst[live], dist[live]
                local[act] = np.arange(act.size)
                lsrc = local[esrc]  # position of each edge's source in act
                noise_at = base[act]
            if act.size == 0:
                continue
            z_act = z[act]
            drift = np.empty_like(z_act)  # own buffer: add.at accumulates into it
            drift[...] = coeffs.single.func(z_act)
            diffusion = np.zeros(z_act.shape)
            if esrc.size:
                z_src, z_dst = z[esrc], z[edst]
                np.add.at(drift, lsrc, coeffs.pair.func(z_src, z_dst, edist))
                np.add.at(diffusion, lsrc, coeffs.diffusion.func(z_src, z_dst, edist))
            incr = h_steps[j] * drift
            if tamed:
                incr = incr / (1.0 + np.abs(incr))
            step = incr + diffusion * (sqrt_h[j] * flat[noise_at + j])
            new = z_act + step
            if not np.isfinite(new).all():
                bad = np.argwhere(~np.isfinite(new))[0]
                pid = ids[int(act[bad[0]])]
                t = float(grid[j + 1])
                raise IntegrationBlowUpError(f"blow-up at (id={pid}, t={t})", id=pid, t=t)
            values[j + 1][act] = new

    return MarkPath(grid, ids, values)


# -- public solve operations ----------------------------------------------------


def integrate_marks(traj: Trajectory, coeffs: CoefficientSet, init: InitialMarkPolicy,
                    icfg: IntegratorConfig, seed: int) -> MarkPath:
    """Solve the mark system along the trajectory.

    Every mark starts at the policy's value at its particle's position.
    Identical arguments give bit-identical paths.
    """
    return _solve(traj, coeffs, init, icfg, seed)


def finite_volume_solve(traj: Trajectory, coeffs: CoefficientSet,
                        init: InitialMarkPolicy, icfg: IntegratorConfig,
                        box: Box, seed: int) -> MarkPath:
    """Volume-cutoff solve: marks of phantom points outside ``box`` stay frozen
    at their initial values; inside points evolve against the frozen values.

    Uses the same keyed noise streams as the full solve, so the two paths are
    pathwise comparable (and bit-identical when the box covers the window).
    """
    return _solve(traj, coeffs, init, icfg, seed, frozen_box=box)


def frozen_mark_deviation(path: MarkPath, traj: Trajectory) -> float:
    """Largest change of any mark over a step on which its particle is absent.

    The integrator contract makes this exactly 0.0; a NaN change gives NaN.
    """
    if path.ids != traj.phantom_ids():
        raise ValueError("mark path columns are not the trajectory's phantom ids")
    # column k is absent on the steps before its first present row,
    # [0, born[k]), and on those from its first absent row on, [gone[k], ...)
    born, gone = (rows.tolist() for rows in traj.present_rows(path.grid))
    changes = [0.0]  # np.max, unlike Python's max, keeps a NaN anywhere in it
    for k, (a, b) in enumerate(zip(born, gone)):
        for run in (path.values[:a + 1, k], path.values[b:, k]):
            if len(run) > 1:
                changes.append(np.abs(np.diff(run)).max())
    return float(np.max(changes))


# -- verification studies ---------------------------------------------------------


@dataclass
class BoundsCheckReport:
    """Sampled verification of the four drift/diffusion envelope inequalities."""

    passed: bool
    samples: int
    points: int
    violations: int
    worst: dict | None


# sample columns per block of the bounds suite (only its two samples are full)
BOUNDS_BLOCK = 1024


def check_drift_diffusion_bounds(coeffs: CoefficientSet, sample_size: int = 10_000,
                                 seed: int = 0) -> BoundsCheckReport:
    """Sample random mark states and assert the envelope inequalities implied
    by the declared constants (Lipschitz/growth of the pair terms, growth and
    one-sided dissipativity of the single-site term), on the points of a
    unit-intensity Poisson sample of the periodic side-6 square (seed + 1).

    Both samples are drawn in full, and every other array spans one block of
    ``BOUNDS_BLOCK`` sample columns, so the peak is about two samples and a
    block.  Each neighbour sum adds one pair's term into its point's row in
    place, in pair order (as ``np.add.at`` adds).  The witness is the largest
    excess, a tie going to the earliest inequality below (``diffusion_at_zero``
    is sample-free and checked once), then the lowest point row, then the
    lowest sample.  A misdeclared constant (for example a Lipschitz constant
    below the true one) shows up as a reported violation with a witness.
    """
    config = poisson_configuration(Window(6.0, 2, "periodic"), 1.0, seed=seed + 1)
    ids = config.ids()
    n_pts = len(ids)
    src, dst, dist = neighbor_pairs(config.window, config.positions_array(), coeffs.radius)
    pairs = list(zip(src.tolist(), dst.tolist(), dist.tolist()))
    n_x = np.bincount(src, minlength=n_pts) + 1.0  # the point itself counts

    gen = rng.keyed_generator(seed, rng.SAMPLING)
    scales = np.array([0.3, 1.0, 3.0, 10.0])[gen.integers(0, 4, size=sample_size)]
    z1 = gen.standard_normal((n_pts, sample_size))
    z1 *= scales
    z2 = gen.standard_normal((n_pts, sample_size))
    z2 *= scales

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

    a_bar = coeffs.pair.lipschitz
    m_diff = coeffs.diffusion.lipschitz
    c_gr = coeffs.single.growth_c
    r_gr = coeffs.single.growth_power
    b_diss = coeffs.single.dissipativity
    nx = n_x[:, None]
    violations = 0
    worst = None
    worst_key = (0.0,)

    def check(rank, name, lhs, rhs, first):
        nonlocal violations, worst, worst_key
        bad = lhs > rhs + 1e-9 * (1.0 + np.abs(rhs))
        count = int(bad.sum())
        violations += count
        if count:
            excess = np.where(bad, lhs - rhs, -np.inf)
            i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
            sample = first + int(j)
            key = (float(excess[i, j]), -rank, -int(i), -sample)
            if key[0] > 0.0 and key > worst_key:
                worst_key = key
                worst = {"inequality": name, "point": ids[int(i)], "sample": sample,
                         "lhs": float(lhs[i, j]), "rhs": float(rhs[i, j])}

    psi0 = np.bincount(src, weights=coeffs.diffusion.func(np.zeros_like(dist),
                                                          np.zeros_like(dist), dist),
                       minlength=n_pts)
    check(1, "diffusion_at_zero", np.abs(psi0)[:, None], (m_diff * n_x)[:, None], 0)
    for first in range(0, sample_size, BOUNDS_BLOCK):
        block = slice(first, first + BOUNDS_BLOCK)
        z1b, z2b = np.ascontiguousarray(z1[:, block]), np.ascontiguousarray(z2[:, block])
        phi1, psi1 = fields(z1b)
        phi2, psi2 = fields(z2b)
        delta, dphi, dpsi = z1b - z2b, phi1 - phi2, np.abs(psi1 - psi2)
        del z2b, phi2, psi1, psi2
        check(0, "diffusion_lipschitz", dpsi,
              m_diff * (nx + 1.0) * np.abs(delta) + m_diff * neighbor_sum(np.abs(delta)),
              first)
        check(2, "drift_growth", np.abs(phi1),
              c_gr * (1.0 + np.abs(z1b) ** r_gr) + a_bar * nx * (1.0 + 2.0 * np.abs(z1b))
              + a_bar * neighbor_sum(np.abs(z1b)), first)
        check(3, "drift_dissipativity", delta * dphi,
              (b_diss + 0.5 + 4.0 * a_bar**2 * nx**2) * delta**2
              + 0.5 * a_bar**2 * nx * neighbor_sum(delta**2), first)
    return BoundsCheckReport(violations == 0, sample_size, n_pts, violations, worst)


@dataclass
class CutoffStudyReport:
    """Monte Carlo decay of the cutoff error across nested boxes."""

    boxes: list[Box]
    estimates: list[float]  # sup_t of the seed-mean p-th moment of the cutoff error
    spearman_rho: float
    nonincreasing: bool


def _spearman(x, y) -> float:
    """Spearman rank correlation: Pearson's r of the average ranks (tied
    values share the mean of their ranks).  Quadratic in the length."""
    def ranks(v):
        v = np.asarray(v, dtype=float)
        return ((v[:, None] > v).sum(axis=1) + (v[:, None] >= v).sum(axis=1) + 1) / 2.0

    return float(np.corrcoef(np.column_stack((ranks(x), ranks(y))), rowvar=False)[1, 0])


def cutoff_convergence_study(traj: Trajectory, coeffs: CoefficientSet,
                             init: InitialMarkPolicy, icfg: IntegratorConfig,
                             boxes: Sequence[Box], beta: float, p: float,
                             seeds: Sequence[int]) -> CutoffStudyReport:
    """Estimate sup_t E || cutoff minus full solve ||^p in the beta-weighted
    norm for each nested box, and report the monotone decay trend."""
    if p < coeffs.single.growth_power:
        raise ValueError(f"moment order p={p} below drift growth power "
                         f"{coeffs.single.growth_power}")
    radii = traj.window.radial_norms(traj.phantom_xy)  # the MarkPath columns' order
    weights = np.exp(-beta * radii)
    per_box_means: list[np.ndarray] = [None] * len(boxes)
    for seed in seeds:
        full = integrate_marks(traj, coeffs, init, icfg, seed)
        for i, box in enumerate(boxes):
            part = finite_volume_solve(traj, coeffs, init, icfg, box, seed)
            diff = np.abs(part.values - full.values) ** p
            norms = diff @ weights  # per grid time: sum_x e^{-beta|x|} |diff|^p
            per_box_means[i] = norms if per_box_means[i] is None else per_box_means[i] + norms
    estimates = [float(np.max(acc / len(seeds))) for acc in per_box_means]
    rho = _spearman(np.arange(len(boxes)), estimates) if len(set(estimates)) > 1 else 0.0
    nonincr = all(a >= b - 1e-15 for a, b in zip(estimates, estimates[1:]))
    return CutoffStudyReport(list(boxes), estimates, rho, nonincr)


def run_manifest(traj: Trajectory, coeffs: CoefficientSet, init: InitialMarkPolicy,
                 icfg: IntegratorConfig, seed: int) -> dict:
    """Every constant entering a mark solve, for the run manifest."""
    return {
        "window": traj.window.descriptor(),
        "kernel": traj.kernel.descriptor(),
        "death_rate": traj.death_rate,
        "horizon": traj.horizon,
        "trajectory_seed": traj.seed,
        "coefficients": coeffs.descriptor(),
        "initial_marks": init.descriptor(),
        "integrator": icfg.descriptor(),
        "mark_seed": seed,
    }
