"""The quantitative growth constants and the Gronwall and moment checks.

Marks over a configuration are measured in exponentially weighted p-norms
||z||_{alpha,p} = (sum_x e^{-alpha|x|} |z_x|^p)^{1/p}; larger alpha means a
weaker norm, so the spaces grow with alpha and the norms shrink.  Interaction
matrices that vanish beyond the coupling radius and grow at most like
C * n_x^k map a stronger space into a weaker one with an explicit constant L,
and iterating that map yields the series constant K_T that bounds integral
inequalities across the scale.  These two constants are what the Gronwall and
moment-growth checks are verified against.  The Gronwall check solves its
extremal equation, e^{TC}b, exactly by a truncated Taylor series on the pairs.
The norms themselves, the interaction matrices and the sampled operator-bound
check are test oracles; they compute L with the functions below.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import Window, neighbor_pairs
from .spin_sde import CoefficientSet, MarkPath


@dataclass(frozen=True)
class ScaleParams:
    """Index data of the weighted-norm scale: alpha_star <= alpha < beta <= alpha_sup."""

    alpha_star: float
    alpha_sup: float
    alpha: float
    beta: float
    p: float
    q: float

    def __post_init__(self):
        if not 0.0 <= self.alpha_star <= self.alpha < self.beta <= self.alpha_sup:
            raise ValueError("need 0 <= alpha_star <= alpha < beta <= alpha_sup")
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if self.p < 1.0:
            raise ValueError("p must be >= 1")


# -- the operator constant L -------------------------------------------------------


def _neighborhoods(window: Window, positions: np.ndarray,
                   radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed in-radius pairs ``(src, dst)`` of distinct rows of
    ``positions`` and the closed in-radius count n_x of every row."""
    src, dst, _ = neighbor_pairs(window, positions, radius)
    return src, dst, (np.bincount(src, minlength=len(positions)) + 1).astype(float)


def _cut_radius(norms: np.ndarray, counts: np.ndarray, growth_k: float, q: float,
                alpha_star: float, alpha_sup: float) -> tuple[float, int]:
    """Check the scale indices; return the smallest cut radius R of the
    operator bound, beyond which every point has n_x <= |x|^(q/2k), and the
    number n_{0,R} of points within R of the anchor.  ``norms`` and
    ``counts`` give |x| and n_x of each point."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if growth_k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= alpha_star <= alpha_sup:
        raise ValueError("need 0 <= alpha_star <= alpha_sup")
    violates = counts > norms ** (q / (2.0 * growth_k))
    r_cut = float(norms[violates].max()) if violates.any() else 0.0
    n_0r = int(np.sum(norms <= r_cut)) if len(norms) else 0
    return r_cut, n_0r


def _bound_value(growth_c: float, q: float, radius: float, n_0r: int,
                 alpha_star: float, alpha_sup: float) -> float:
    return growth_c * math.exp(alpha_sup * radius) * (
        (radius**q + n_0r) * (alpha_sup - alpha_star) ** q + (q / math.e) ** q
    )


# -- the series constant K_T ------------------------------------------------------


class KTEstimate(NamedTuple):
    """Truncated series value and a rigorous bound on its error (truncation
    tail plus log-space rounding)."""

    value: float
    tail_bound: float


# ln of the largest double, rounded down: exp of any log up to it is finite,
# and a sum whose log exceeds it is not representable
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


def gronwall_series_constant(alpha: float, beta: float, q: float, bound_l: float,
                             horizon: float, tol: float = 1e-12) -> KTEstimate:
    """K_T(alpha, beta) = sum_n L^n T^n n^{qn} / ((beta-alpha)^{qn} n!).

    Terms are summed until the current term drops below ``tol`` and the
    remaining terms are provably dominated by a geometric series with ratio
    < 1/2 (using (1 + 1/n)^{qn} <= e^q), whose sum bounds the truncation
    error.  The sum is taken in log space, where each of the n terms may move
    ln K_T by about one ulp of ln K_T; the returned tail bound is the
    truncation bound plus a rounding allowance of 4 n eps max(1, ln K_T) K_T.
    The sum is finite for every q < 1 but can exceed the double range, in
    which case the value comes back as inf (growth bounds built from it then
    hold vacuously).
    """
    if beta <= alpha:
        raise ValueError("beta must exceed alpha")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if bound_l < 0 or horizon < 0:
        raise ValueError("L and T must be nonnegative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if bound_l == 0.0 or horizon == 0.0:
        return KTEstimate(1.0, 0.0)

    x = bound_l * horizon / (beta - alpha) ** q
    log_x = math.log(x)

    def log_term(n: int) -> float:
        if n == 0:
            return 0.0
        return n * log_x + q * n * math.log(n) - math.lgamma(n + 1)

    # accumulate in log space: single terms can overflow a double even when
    # the parameters are legitimate; the value is inf only if the sum itself
    # exceeds the double range
    log_total = -math.inf
    n = 0
    while True:
        lt = log_term(n)
        m = max(log_total, lt)
        log_total = m + math.log(math.exp(log_total - m) + math.exp(lt - m))
        if log_total > _LOG_DOUBLE_MAX:
            # partial sums only grow: the value is beyond double range already
            return KTEstimate(math.inf, math.inf)
        # ratio of any later consecutive terms is at most x e^q (m+1)^{q-1}
        ratio_cap = x * math.exp(q) * (n + 2) ** (q - 1.0)
        if lt < math.log(tol) and ratio_cap < 0.5:
            value = math.exp(log_total)
            rounding = 4 * (n + 1) * sys.float_info.epsilon * max(1.0, log_total) * value
            tail = math.exp(log_term(n + 1)) / (1.0 - ratio_cap)
            return KTEstimate(value, tail + rounding)
        n += 1
        if n > 500_000:
            raise RuntimeError("series truncation did not trigger; check parameters")


def _k_t_times(k_t: float, weighted_sum: float) -> float:
    """A growth bound, K_T times a weighted sum over the points.  A sum over
    no points is 0.0, and so is the bound, also where K_T is inf."""
    return k_t * weighted_sum if weighted_sum else 0.0


# -- generalized Gronwall inequality check ------------------------------------------


@dataclass
class GronwallReport:
    """Outcome of the inequality check against the exact extremal solution."""

    passed: bool
    bound_value: float
    measured_value: float
    slack: float
    constants_used: dict
    grid_info: dict


def _extremal_solution(row: np.ndarray, src: np.ndarray, dst: np.ndarray,
                       b_vec: np.ndarray, horizon: float) -> tuple[np.ndarray, int, int]:
    """rho(H) = e^{HC} b, C_xy = row_x on the closed in-radius pairs (y = x and
    each ``(src, dst)``), row and b >= 0, by the truncated Taylor series of the
    exponential's action (Al-Mohy & Higham, SIAM J. Sci. Comput. 2011).

    s = ceil(H ||C||_inf) equal steps give h ||C||_inf <= 1.  All entries are
    nonnegative, so the terms left out after term j sum to at most term j / j.
    A step stops once its newest term's max is at most machine epsilon times
    its partial sum's max.  The partial sums are the Picard iterates of
    rho = v + hC int rho, integrated exactly.  Returns rho(H), s and the most
    terms (Picard sweeps) of one step.
    """
    n = len(b_vec)

    def apply(v: np.ndarray) -> np.ndarray:
        return row * (v + np.bincount(src, weights=v[dst], minlength=n))

    # C >= 0, so its row sums C 1 give ||C||_inf
    steps = max(1, math.ceil(horizon * float(np.max(apply(np.ones(n)), initial=0.0))))
    h = horizon / steps
    rho = b_vec
    sweeps = 0
    for _ in range(steps):
        term = rho
        for j in itertools.count(1):
            term = h * apply(term) / j
            rho = rho + term
            # written so that a NaN (from overflow) also ends the series
            if not term.max(initial=0.0) > sys.float_info.epsilon * rho.max(initial=0.0):
                break
        sweeps = max(sweeps, j)
    return rho, steps, sweeps


def check_gronwall_inequality(window: Window, positions: np.ndarray, coupling_b: float,
                              growth_k: float, b_vec: np.ndarray, horizon: float,
                              alpha: float, beta: float, q: float, radius: float, *,
                              alpha_star: float, alpha_sup: float) -> GronwallReport:
    """Solve the extremal equation of the integral inequality

        rho_x(t) = B n_x^k sum_{|y-x| <= radius} int_0^t rho_y(s) ds + b_x

    exactly, rho(t) = e^{tC} b (``_extremal_solution``), then assert

        sum_x e^{-beta|x|} sup_t rho_x(t) <= K_T(alpha, beta) sum_x e^{-alpha|x|} b_x

    with K_T built from the operator constant of the coupling matrix, over
    the points x given as the rows of ``positions`` in ``window``.
    The y-sum runs over the closed neighborhood (y = x included).  C and b
    are nonnegative, so rho does not decrease and sup_t rho = rho(T).
    ``grid_info`` gives the solve's step count plus one (``points``) and the
    most Picard sweeps of one step (``picard_iterations``).
    """
    if beta <= alpha:
        raise ValueError("beta must exceed alpha")
    if not coupling_b >= 0:
        raise ValueError("coupling_b must be nonnegative")
    b_arr = np.asarray(b_vec, dtype=float)
    if b_arr.shape != (len(positions),) or not np.all(b_arr >= 0):
        raise ValueError("b_vec must be nonnegative and match the configuration")

    radii = window.radial_norms(positions)
    src, dst, counts = _neighborhoods(window, positions, radius)
    r_cut, n_0r = _cut_radius(radii, counts, growth_k, q, alpha_star, alpha_sup)
    l_value = _bound_value(coupling_b, q, radius, n_0r, alpha_star, alpha_sup)
    k_t = gronwall_series_constant(alpha, beta, q, l_value, horizon)
    rho, steps, sweeps = _extremal_solution(coupling_b * counts**growth_k, src, dst,
                                            b_arr, horizon)

    measured = float(np.sum(np.exp(-beta * radii) * rho))
    bound = _k_t_times(k_t.value, float(np.sum(np.exp(-alpha * radii) * b_arr)))
    return GronwallReport(
        passed=measured <= bound * (1 + 1e-9),
        bound_value=bound,
        measured_value=measured,
        slack=bound - measured,
        constants_used={
            "B": coupling_b, "k": growth_k, "q": q, "radius": radius,
            "alpha": alpha, "beta": beta, "alpha_star": alpha_star,
            "alpha_sup": alpha_sup, "L": l_value, "r_cut": r_cut,
            "K_T": k_t.value, "K_T_tail_bound": k_t.tail_bound,
        },
        grid_info={"points": steps + 1, "picard_iterations": sweeps},
    )


# -- moment growth of mark solves ----------------------------------------------------


@dataclass
class MomentGrowthReport:
    """Monte Carlo check of the weighted moment growth bound."""

    passed: bool
    bound_value: float
    measured_value: float
    slack: float
    empirical_c1: float
    constants_used: dict


def conservative_moment_constants(coeffs: CoefficientSet, p: float,
                                  horizon: float) -> tuple[float, float]:
    """Generous Ito/Young bookkeeping constants for the moment growth bound.

    Collecting the p-th moment drift of one mark under the declared envelope
    constants (growth c, dissipativity b, pair Lipschitz a, diffusion
    Lipschitz M) and absorbing neighbor counts into n_x^2 yields coefficients
    no larger than these; they are deliberately loose rather than sharp.
    """
    a = coeffs.pair.lipschitz
    b = coeffs.single.dissipativity
    c = coeffs.single.growth_c
    m = coeffs.diffusion.lipschitz
    c1 = p * (b + c + 3.0 * a) + 9.0 * p * p * m * m + 1.0
    c2 = horizon * p * (c + a + 3.0 * p * m * m + 1.0)
    return c1, c2


def check_moment_growth(paths: Sequence[MarkPath], traj, coeffs: CoefficientSet,
                        params: ScaleParams, c1: float, c2: float) -> MomentGrowthReport:
    """Assert sup_t E||marks_t||^p_{beta, present} against the growth bound

        c1 * K_T * ( E||marks_0||^p_{alpha, phantom} + ||c2 n^2||_{alpha, p} ),

    estimating expectations over the supplied ensemble of solves (same
    trajectory, different noise seeds).  Also reports the smallest c1 that
    would make the bound hold (c1 enters K_T through L, so this is solved
    by bisection).
    """
    if params.p < coeffs.single.growth_power:
        raise ValueError(f"moment order p={params.p} below drift growth power "
                         f"{coeffs.single.growth_power}")
    if not paths:
        raise ValueError("need at least one solved path")
    ids = paths[0].ids
    if ids != traj.phantom_ids():
        raise ValueError("paths do not cover the trajectory phantom")
    radii = traj.window.radial_norms(traj.phantom_xy)
    grid = paths[0].grid
    p = params.p

    first, ends = (rows.tolist() for rows in traj.present_rows(grid))
    absent = [(slice(None, a), k) for k, a in enumerate(first) if a > 0]
    absent += [(slice(b, None), k) for k, b in enumerate(ends) if b < len(grid)]

    w_beta = np.exp(-params.beta * radii)
    w_alpha = np.exp(-params.alpha * radii)
    lhs_sum = np.zeros(len(grid))
    init_sum = 0.0
    contrib = np.empty_like(paths[0].values)
    for path in paths:
        if not np.array_equal(path.grid, grid) or path.ids != ids:
            raise ValueError("ensemble paths disagree on grid or ids")
        np.abs(path.values, out=contrib)
        contrib **= p
        for rows, k in absent:
            contrib[rows, k] *= 0.0  # a product, not a zero fill: inf * 0.0 is NaN
        lhs_sum += contrib @ w_beta
        init_sum += float(np.sum(w_alpha * np.abs(path.values[0]) ** p))
    measured = float(np.max(lhs_sum / len(paths)))
    init_moment = init_sum / len(paths)

    # the counts and the cut radius do not depend on the prefactor c, so the
    # bisection below evaluates only L(c) and K_T afresh
    _, _, counts = _neighborhoods(traj.window, traj.phantom_xy, coeffs.radius)
    c2_norm = float(np.sum(w_alpha * (c2 * counts**2) ** p) ** (1.0 / p))
    base = init_moment + c2_norm
    _, n_0r = _cut_radius(radii, counts, 2.0, params.q, params.alpha_star,
                          params.alpha_sup)

    def bound_for(c: float) -> float:
        l_value = _bound_value(c, params.q, coeffs.radius, n_0r, params.alpha_star,
                               params.alpha_sup)
        k_t = gronwall_series_constant(params.alpha, params.beta, params.q,
                                       l_value, traj.horizon, 1e-12)
        return _k_t_times(c * k_t.value, base)

    bound = bound_for(c1)
    # smallest prefactor that still dominates the measurement (diagnostic)
    if measured == 0.0:
        empirical = 0.0
    else:
        lo, hi = 0.0, max(c1, 1e-6)
        while bound_for(hi) < measured:
            hi *= 2.0
            if hi > 1e12:
                break
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if bound_for(mid) >= measured:
                hi = mid
            else:
                lo = mid
        empirical = hi
    return MomentGrowthReport(
        passed=measured <= bound * (1 + 1e-9),
        bound_value=bound,
        measured_value=measured,
        slack=bound - measured,
        empirical_c1=empirical,
        constants_used={"c1": c1, "c2": c2, **asdict(params),
                        "radius": coeffs.radius, "replicas": len(paths)},
    )
