"""Weighted norms, operator bound, series constant, Gronwall and moment checks."""

import json
import math
from dataclasses import asdict

import mpmath
import numpy as np
import pytest

from bdspin import rng, scales
from bdspin.birth_death import ConstantBirthKernel, GlauberBirthKernel, simulate, step_potential
from bdspin.geometry import Configuration, Window, poisson_configuration
from bdspin.scales import (
    MomentGrowthReport,
    ScaleParams,
    check_gronwall_inequality,
    check_moment_growth,
    conservative_moment_constants,
    gronwall_series_constant,
)
from bdspin.spin_sde import (
    CoefficientSet,
    InitialMarkPolicy,
    IntegratorConfig,
    MarkPath,
    constant_diffusion,
    cubic_drift,
    exchange_coupling,
    integrate_marks,
    linear_drift,
    tanh_diffusion,
    zero_diffusion,
    zero_drift,
    zero_pair,
)
from oracles import (
    OvsjannikovMatrix,
    check_operator_bound,
    ids_within,
    neighbor_count,
    ovsjannikov_bound_constant,
    phantom_positions,
    position_of,
    present_ids,
    radial_norm,
    radial_norms,
    traced_peak,
    weighted_lp_norm,
    weighted_lp_norm_from_radii,
)


def kt_reference(alpha, beta, q, bound_l, horizon, terms=500, dps=50):
    """High-precision truncated series for K_T."""
    with mpmath.workdps(dps):
        total = mpmath.mpf(1)
        for n in range(1, terms):
            total += (
                (mpmath.mpf(bound_l) * horizon) ** n
                * mpmath.mpf(n) ** (q * n)
                / ((mpmath.mpf(beta) - alpha) ** (q * n) * mpmath.factorial(n))
            )
        return float(total)


class TestWeightedNorms:
    def test_single_point_at_anchor(self):
        window = Window(4.0, 2, "open")
        config = Configuration(window, [(0, [0.0, 0.0])])
        assert weighted_lp_norm(config, {0: 2.0}, alpha=0.7, p=2.0) == pytest.approx(2.0)

    def test_zero_marks(self):
        window = Window(4.0, 2, "open")
        config = poisson_configuration(window, 1.0, seed=0)
        marks = {pid: 0.0 for pid in config.ids()}
        assert weighted_lp_norm(config, marks, 0.3, 3.0) == 0.0

    def test_matches_direct_summation(self):
        window = Window(10.0, 2, "open")
        config = poisson_configuration(window, 1.0, seed=1)
        gen = rng.keyed_generator(1, rng.SAMPLING)
        marks = {pid: float(v) for pid, v in zip(config.ids(),
                                                 gen.standard_normal(len(config)))}
        alpha, p = 0.4, 2.5
        want = sum(
            math.exp(-alpha * radial_norm(window, pos)) * abs(marks[pid]) ** p
            for pid, pos in config.items()
        ) ** (1 / p)
        assert weighted_lp_norm(config, marks, alpha, p) == pytest.approx(want, rel=1e-12)

    def test_scale_monotonicity_randomized(self):
        gen = rng.keyed_generator(7, rng.SAMPLING)
        window = Window(10.0, 2, "open")
        config = poisson_configuration(window, 0.8, seed=3)
        radii = radial_norms(config)
        for _ in range(500):
            values = 10.0 ** gen.uniform(-2, 2) * gen.standard_normal(len(config))
            alpha = float(2.0 * gen.random())
            beta = alpha + float(2.0 * gen.random()) + 1e-6
            p = float(1.0 + 4.0 * gen.random())
            na = weighted_lp_norm_from_radii(radii, values, alpha, p)
            nb = weighted_lp_norm_from_radii(radii, values, beta, p)
            assert nb <= na * (1 + 1e-12)


class TestOperatorBound:
    def test_formula_value_empty_config(self):
        window = Window(4.0, 2, "open")
        config = Configuration(window)
        got = ovsjannikov_bound_constant(config, growth_c=1.0, growth_k=1.0, q=0.5,
                                         radius=1.0, alpha_star=0.0, alpha_sup=1.0,
                                         r_cut=1.0)
        want = math.e * ((1.0 + 0.0) * 1.0 + (0.5 / math.e) ** 0.5)
        assert got.value == pytest.approx(want, rel=1e-12)

    def test_zero_prefactor(self):
        window = Window(4.0, 2, "open")
        config = poisson_configuration(window, 1.0, seed=0)
        got = ovsjannikov_bound_constant(config, 0.0, 1.0, 0.5, 1.0, 0.0, 1.0)
        assert got.value == 0.0

    def test_supplied_r_cut_checked(self):
        window = Window(8.0, 2, "open")
        config = poisson_configuration(window, 2.0, seed=5)
        with pytest.raises(ValueError, match="R-condition unsatisfiable"):
            # a tiny R cannot cover the dense far-out points
            ovsjannikov_bound_constant(config, 1.0, 1.0, 0.5, 1.0, 0.0, 1.0, r_cut=0.5)

    def test_computed_r_cut_is_valid_and_minimal(self):
        window = Window(10.0, 2, "open")
        config = poisson_configuration(window, 1.5, seed=2)
        got = ovsjannikov_bound_constant(config, 1.0, 2.0, 0.6, 1.0, 0.0, 1.0)
        norms = radial_norms(config)
        counts = np.array([neighbor_count(config, pos, 1.0) for _, pos in config.items()])
        beyond = norms > got.r_cut
        assert np.all(counts[beyond] <= norms[beyond] ** (0.6 / 4.0))
        # minimality: the cut sits exactly on a violator
        if got.r_cut > 0:
            at_cut = np.isclose(norms, got.r_cut)
            assert np.any(counts[at_cut] > norms[at_cut] ** (0.6 / 4.0))

    @pytest.mark.parametrize("seed", range(5))
    def test_sampled_operator_norm(self, seed):
        window = Window(8.0, 2, "periodic")
        config = poisson_configuration(window, 1.0, seed=seed)
        matrix = OvsjannikovMatrix.random(config, radius=1.0, growth_c=0.8,
                                          growth_k=1.5, seed=seed)
        bound = ovsjannikov_bound_constant(config, 0.8, 1.5, 0.5, 1.0, 0.0, 1.0)
        report = check_operator_bound(matrix, bound.value, alpha=0.2, beta=0.7,
                                      q=0.5, n_vectors=200, seed=seed)
        assert report["passed"], report

    def test_matrix_validation(self):
        window = Window(6.0, 2, "open")
        config = poisson_configuration(window, 1.0, seed=1)
        n = len(config)
        dense = np.ones((n, n))
        with pytest.raises(ValueError, match="locality"):
            OvsjannikovMatrix(config, dense, radius=0.5, growth_c=100.0, growth_k=1.0)

    @pytest.mark.parametrize("boundary,radius,growth_k", [
        ("periodic", 1.0, 1.5), ("open", 0.7, 1.0), ("periodic", 1.3, 2.5)])
    def test_random_and_validation_match_per_point_reference(self, boundary, radius,
                                                              growth_k):
        for seed in range(4):
            config = poisson_configuration(Window(6.0, 2, boundary), 1.2, seed=seed)
            got = OvsjannikovMatrix.random(config, radius, 0.8, growth_k, seed)
            want = reference_random_matrix(config, radius, 0.8, growth_k, seed)
            assert got.matrix.tobytes() == want.tobytes()
            gen = np.random.default_rng(seed)
            for _ in range(20):
                bad = want.copy()
                i, j = gen.integers(0, len(config), 2)
                bad[i, j] = gen.choice([1.0, 2.0 * bad[i, j], 100.0])
                expected = reference_validation_error(config, bad, radius, 0.8, growth_k)
                try:
                    OvsjannikovMatrix(config, bad, radius, 0.8, growth_k)
                    message = None
                except ValueError as err:
                    message = str(err)
                assert message == expected


def reference_random_matrix(config, radius, growth_c, growth_k, seed):
    """``OvsjannikovMatrix.random`` drawn point by point from ``ids_within``."""
    ids = config.ids()
    index_of = {pid: i for i, pid in enumerate(ids)}
    gen = rng.keyed_generator(seed, rng.SAMPLING)
    matrix = np.zeros((len(ids), len(ids)))
    for i, pid in enumerate(ids):
        hits = ids_within(config, position_of(config, pid), radius)
        cap = growth_c * len(hits) ** growth_k
        for qid, _ in hits:
            matrix[i, index_of[qid]] = cap * (2.0 * gen.random() - 1.0)
    return matrix


def reference_validation_error(config, matrix, radius, growth_c, growth_k):
    """First error the point-by-point locality and magnitude checks raise."""
    ids = config.ids()
    for i, pid in enumerate(ids):
        hits = ids_within(config, position_of(config, pid), radius)
        allowed = {qid for qid, _ in hits}
        for j, qid in enumerate(ids):
            if matrix[i, j] != 0.0 and qid not in allowed:
                return f"entry ({pid}, {qid}) violates the locality radius"
        cap = growth_c * np.float64(len(hits)) ** growth_k
        if np.any(np.abs(matrix[i]) > cap * (1 + 1e-12)):
            return f"row {pid} exceeds the declared magnitude bound"
    return None


class TestSeriesConstant:
    def test_trivial_cases(self):
        assert gronwall_series_constant(0.0, 1.0, 0.5, 0.0, 1.0).value == 1.0
        assert gronwall_series_constant(0.0, 1.0, 0.5, 2.0, 0.0).value == 1.0

    def test_order_violation(self):
        with pytest.raises(ValueError, match="beta must exceed alpha"):
            gronwall_series_constant(1.0, 1.0, 0.5, 1.0, 1.0)

    def test_reference_case(self):
        got = gronwall_series_constant(0.0, 1.0, 0.5, 1.0, 1.0, tol=1e-12)
        want = kt_reference(0.0, 1.0, 0.5, 1.0, 1.0)
        assert abs(got.value - want) <= 10 * 1e-12
        assert got.tail_bound <= 1e-11

    @pytest.mark.parametrize("params", [
        (0.0, 1.0, 0.5, 1.0, 1.0),
        (0.1, 0.6, 0.3, 2.5, 1.0),
        (0.2, 1.2, 0.7, 0.5, 2.0),
        (0.0, 0.5, 0.5, 3.0, 0.5),
        (0.3, 0.8, 0.4, 1.5, 1.5),
    ])
    def test_against_high_precision_oracle(self, params):
        alpha, beta, q, bound_l, horizon = params
        tol = 1e-10
        got = gronwall_series_constant(alpha, beta, q, bound_l, horizon, tol=tol)
        want = kt_reference(alpha, beta, q, bound_l, horizon)
        assert abs(got.value - want) <= 10 * tol * max(1.0, want)

    def test_partial_sums_increase_and_tail_honored(self):
        tol = 1e-9
        got = gronwall_series_constant(0.1, 0.9, 0.5, 2.0, 1.0, tol=tol)
        want = kt_reference(0.1, 0.9, 0.5, 2.0, 1.0)
        assert got.value <= want + 1e-12 * want  # truncation undershoots
        assert want - got.value <= got.tail_bound + 1e-12 * want

    def test_sum_just_below_double_max_is_finite(self):
        # the README config's Gronwall constants at side 6, T 1, seed 301:
        # ln K_T = 709.73 lies between 709 and ln(DBL_MAX) = 709.78
        bound_l = 32.30888997397645
        got = gronwall_series_constant(0.2, 0.7, 0.5, bound_l, 0.5)
        want = kt_reference(0.2, 0.7, 0.5, bound_l, 0.5, terms=2000)
        assert math.log(want) > 709.0
        assert math.isfinite(got.value)
        assert math.isclose(got.value, want, rel_tol=1e-9)

    def test_tail_bound_covers_log_space_rounding(self):
        # the README config's Gronwall constants at side 6, T 1, seed 701:
        # ln K_T = 595, where the truncation tail underflows to 0 but the
        # log-space sum still sits about 7.7e-13 relative off the exact value
        bound_l = 29.590608145517404
        got = gronwall_series_constant(0.2, 0.7, 0.5, bound_l, 0.5)
        want = kt_reference(0.2, 0.7, 0.5, bound_l, 0.5, terms=2000)
        assert math.log(want) > 590.0
        assert got.value != want
        assert abs(got.value - want) <= got.tail_bound

    def test_overflow_returns_inf(self):
        got = gronwall_series_constant(0.0, 0.2, 0.8, 50.0, 1.0)
        assert math.isinf(got.value)


def dense_coupling(config, coupling_b, growth_k, radius):
    """C_xy = B n_x^k on the closed in-radius pairs, built point by point."""
    ids = config.ids()
    index_of = {pid: i for i, pid in enumerate(ids)}
    coupling = np.zeros((len(ids), len(ids)))
    for i, pid in enumerate(ids):
        hits = ids_within(config, position_of(config, pid), radius)
        for qid, _ in hits:
            coupling[i, index_of[qid]] = coupling_b * len(hits) ** growth_k
    return coupling


def picard_extremal(coupling, b_vec, grid, tol, max_iter=1000):
    """Fixed point of rho(t) = b + coupling @ int_0^t rho(s) ds (trapezoid)."""
    n_grid = len(grid)
    rho = np.tile(b_vec[:, None], (1, n_grid))
    h = np.diff(grid)
    for it in range(max_iter):
        integrals = np.zeros_like(rho)
        avg = 0.5 * (rho[:, 1:] + rho[:, :-1]) * h
        integrals[:, 1:] = np.cumsum(avg, axis=1)
        new = b_vec[:, None] + coupling @ integrals
        delta = float(np.max(np.abs(new - rho)))
        rho = new
        if delta < tol:
            return rho, it + 1
    raise RuntimeError(f"Picard iteration did not converge within {max_iter} sweeps")


def picard_measurement(config, coupling, b_vec, horizon, beta, grid_points=256,
                       picard_tol=1e-10, agreement_tol=1e-6):
    """sum_x e^{-beta|x|} sup_t rho_x(t) from Picard fixed points on a
    trapezoid grid that doubles until two grids agree (relative to max rho)."""
    grid = np.linspace(0.0, horizon, grid_points)
    rho, _ = picard_extremal(coupling, b_vec, grid, picard_tol)
    for _ in range(9):
        finer = np.linspace(0.0, horizon, 2 * (len(grid) - 1) + 1)
        rho_fine, _ = picard_extremal(coupling, b_vec, finer, picard_tol)
        scale = max(1.0, float(np.max(np.abs(rho_fine))))
        disagreement = float(np.max(np.abs(rho_fine[:, ::2] - rho))) / scale
        grid, rho = finer, rho_fine
        if disagreement < agreement_tol:
            radii = radial_norms(config)
            return float(np.sum(np.exp(-beta * radii) * rho.max(axis=1)))
    raise RuntimeError("grid refinement did not reach the agreement tolerance")


def expm_measurement(config, coupling, b_vec, horizon, beta):
    """sum_x e^{-beta|x|} (e^{HC} b)_x from scipy's sparse expm action."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import expm_multiply

    rho = expm_multiply(horizon * csr_matrix(coupling), b_vec)
    return float(np.sum(np.exp(-beta * radial_norms(config)) * rho))


def gronwall_check(config, *args):
    """``check_gronwall_inequality`` over the points of ``config``, with
    ``args`` (coupling_b, growth_k, b_vec, horizon, alpha, beta, q, radius)
    and the scale alpha_star = alpha, alpha_sup = beta."""
    alpha, beta = args[4], args[5]
    return check_gronwall_inequality(config.window, config.positions_array(), *args,
                                     alpha_star=alpha, alpha_sup=beta)


class TestGronwallInequality:
    def test_zero_coupling_reduces_to_monotonicity(self):
        window = Window(6.0, 2, "open")
        config = poisson_configuration(window, 1.0, seed=4)
        b = np.abs(rng.keyed_generator(4, rng.SAMPLING).standard_normal(len(config)))
        report = gronwall_check(config, 0.0, 1.0, b, 1.0, 0.1, 0.6, 0.5, 1.0)
        assert report.passed
        assert report.constants_used["K_T"] == 1.0
        radii = radial_norms(config)
        assert report.measured_value == pytest.approx(
            float(np.sum(np.exp(-0.6 * radii) * b)), rel=1e-12)

    def test_single_point_closed_form(self):
        window = Window(4.0, 2, "open")
        config = Configuration(window, [(0, [1.0, 1.0])])
        coupling_b, b0 = 1.3, 0.8
        report = gronwall_check(config, coupling_b, 1.0, np.array([b0]),
                                1.0, 0.1, 0.6, 0.5, 1.0)
        # rho(t) = b exp(B t): sup at t = T
        r = radial_norm(window, [1.0, 1.0])
        want = math.exp(-0.6 * r) * b0 * math.exp(coupling_b)
        assert report.passed
        assert abs(report.measured_value - want) < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_random_instances_hold(self, seed):
        window = Window(8.0, 2, "open")
        config = poisson_configuration(window, 0.8, seed=seed)
        gen = rng.keyed_generator(seed, rng.SAMPLING)
        b = np.abs(gen.standard_normal(len(config)))
        report = gronwall_check(config, 0.2, 1.0, b, 0.5, 0.1, 0.6, 0.5, 1.0)
        assert report.passed
        assert math.isfinite(report.bound_value)
        assert report.slack >= 0

    @pytest.mark.parametrize("boundary,coupling_b,growth_k,horizon", [
        ("periodic", 0.2, 1.0, 0.5),
        ("periodic", 0.05, 2.0, 1.0),
        ("open", 0.5, 1.5, 2.0),
    ])
    def test_matches_picard_and_expm_oracles(self, boundary, coupling_b, growth_k, horizon):
        config = poisson_configuration(Window(5.0, 2, boundary), 1.2, seed=9)
        b = np.abs(rng.keyed_generator(9, rng.SAMPLING).standard_normal(len(config)))
        report = gronwall_check(config, coupling_b, growth_k, b, horizon,
                                0.1, 0.6, 0.5, 1.0)
        coupling = dense_coupling(config, coupling_b, growth_k, 1.0)
        got = report.measured_value
        assert got == pytest.approx(expm_measurement(config, coupling, b, horizon, 0.6),
                                    rel=1e-12)
        assert got == pytest.approx(picard_measurement(config, coupling, b, horizon, 0.6),
                                    rel=1e-6)
        # h ||C||_inf <= 1 on each of the report's steps
        steps = report.grid_info["points"] - 1
        assert horizon * np.abs(coupling).sum(axis=1).max() <= steps
        assert horizon * np.abs(coupling).sum(axis=1).max() > steps - 1

    def test_grid_info_and_zero_data(self):
        config = poisson_configuration(Window(6.0, 2, "open"), 1.0, seed=4)
        report = gronwall_check(config, 0.2, 1.0, np.zeros(len(config)),
                                0.5, 0.1, 0.6, 0.5, 1.0)
        assert report.measured_value == 0.0
        assert report.grid_info["picard_iterations"] == 1
        assert set(report.grid_info) == {"points", "picard_iterations"}

    def test_rejects_invalid_data(self):
        config = poisson_configuration(Window(6.0, 2, "open"), 1.0, seed=4)
        b = np.ones(len(config))
        for bad in (b[1:], -b, np.where(np.arange(len(b)) == 0, np.nan, b)):
            with pytest.raises(ValueError, match="b_vec"):
                gronwall_check(config, 0.2, 1.0, bad, 0.5, 0.1, 0.6, 0.5, 1.0)
        with pytest.raises(ValueError, match="coupling_b"):
            gronwall_check(config, -0.2, 1.0, b, 0.5, 0.1, 0.6, 0.5, 1.0)

    def test_pairs_built_once(self, monkeypatch):
        config = poisson_configuration(Window(8.0, 2, "open"), 0.8, seed=2)
        b = np.abs(rng.keyed_generator(2, rng.SAMPLING).standard_normal(len(config)))
        calls = []
        real = scales.neighbor_pairs

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(scales, "neighbor_pairs", counting)
        report = gronwall_check(config, 0.2, 1.0, b, 0.5, 0.1, 0.6, 0.5, 1.0)
        assert report.passed
        assert len(calls) == 1


def make_two_point_ou(kappa=0.5, lam=1.0, x0=2.0, T=1.0, dt=1e-3, seeds=range(64)):
    """Two static mutual neighbors with constant per-neighbor diffusion:
    each mark is an OU process dxi = -lam xi dt + kappa dW."""
    window = Window(3.0, 2, "open")
    gamma0 = Configuration(window, [(0, [1.0, 1.5]), (1, [1.8, 1.5])])
    traj = simulate(gamma0, ConstantBirthKernel(0.0), 0.0, T, seed=0)
    coeffs = CoefficientSet(linear_drift(-lam), zero_pair(),
                            constant_diffusion(kappa), radius=1.0)
    init = InitialMarkPolicy.constant(x0)
    icfg = IntegratorConfig(dt=dt)
    paths = [integrate_marks(traj, coeffs, init, icfg, seed=s) for s in seeds]
    return traj, coeffs, paths


class TestMomentGrowth:
    def test_zero_initial_zero_drift(self):
        window = Window(4.0, 2, "open")
        gamma0 = Configuration(window, [(0, [1.0, 1.0]), (1, [3.0, 3.0])])
        traj = simulate(gamma0, ConstantBirthKernel(0.0), 0.0, 1.0, seed=0)
        coeffs = CoefficientSet(zero_drift(), zero_pair(), zero_diffusion(), radius=1.0)
        paths = [integrate_marks(traj, coeffs, InitialMarkPolicy.constant(0.0),
                                 IntegratorConfig(dt=0.125), seed=s) for s in range(3)]
        params = ScaleParams(0.0, 1.0, 0.2, 0.7, 4.0, 0.5)
        report = check_moment_growth(paths, traj, coeffs, params, c1=1.0, c2=0.0)
        assert report.passed
        assert report.measured_value == 0.0
        assert report.empirical_c1 == 0.0

    def test_ou_closed_form(self):
        lam, kappa, x0, T = 1.0, 0.5, 2.0, 1.0
        traj, coeffs, paths = make_two_point_ou(kappa, lam, x0, T, dt=1e-3,
                                                seeds=range(256))
        params = ScaleParams(0.0, 1.0, 0.2, 0.7, 4.0, 0.5)
        c1, c2 = conservative_moment_constants(coeffs, params.p, T)
        report = check_moment_growth(paths, traj, coeffs, params, c1, c2)
        assert report.passed
        # oracle: E X^4 = mu^4 + 6 mu^2 v + 3 v^2 for X ~ N(mu, v), per particle
        radii = traj.window.radial_norms(traj.phantom_xy)
        grid = paths[0].grid
        mu = x0 * np.exp(-lam * grid)
        v = kappa**2 * (1 - np.exp(-2 * lam * grid)) / (2 * lam)
        fourth = mu**4 + 6 * mu**2 * v + 3 * v**2
        closed = float(np.max(fourth) * np.sum(np.exp(-params.beta * radii)))
        assert report.measured_value == pytest.approx(closed, rel=0.15)

    def test_empirical_constant_stable_across_ensembles(self):
        params = ScaleParams(0.0, 1.0, 0.2, 0.7, 4.0, 0.5)
        empiricals = []
        for block in range(4):
            traj, coeffs, paths = make_two_point_ou(
                seeds=range(64 * block, 64 * (block + 1)), dt=4e-3)
            c1, c2 = conservative_moment_constants(coeffs, params.p, 1.0)
            report = check_moment_growth(paths, traj, coeffs, params, c1, c2)
            assert report.passed
            empiricals.append(report.empirical_c1)
        empiricals = np.array(empiricals)
        assert empiricals.std() / empiricals.mean() < 0.5

    def test_moment_order_below_growth_power_rejected(self):
        window = Window(4.0, 2, "open")
        gamma0 = Configuration(window, [(0, [1.0, 1.0])])
        traj = simulate(gamma0, ConstantBirthKernel(0.0), 0.0, 1.0, seed=0)
        from bdspin.spin_sde import cubic_drift
        coeffs = CoefficientSet(cubic_drift(0.1), zero_pair(), zero_diffusion(), 1.0)
        path = integrate_marks(traj, coeffs, InitialMarkPolicy.constant(0.1),
                               IntegratorConfig(dt=0.25), seed=0)
        params = ScaleParams(0.0, 1.0, 0.2, 0.7, 2.0, 0.5)
        with pytest.raises(ValueError, match="below drift growth power"):
            check_moment_growth([path], traj, coeffs, params, 1.0, 1.0)


def reference_moment_growth(paths, traj, coeffs, params, c1, c2, series_tol=1e-12):
    """check_moment_growth with the operator constant L recomputed from
    per-point neighbor counts at every bisection step."""
    phantom = Configuration(traj.window, phantom_positions(traj).items())
    radii = radial_norms(phantom)
    grid = paths[0].grid
    p = params.p
    ids = traj.phantom_ids()
    alive = np.array([np.isin(ids, present_ids(traj, float(t))) for t in grid])
    w_beta = np.exp(-params.beta * radii)
    w_alpha = np.exp(-params.alpha * radii)
    lhs_sum = np.zeros(len(grid))
    init_sum = 0.0
    for path in paths:
        contrib = np.abs(path.values) ** p * alive
        lhs_sum += contrib @ w_beta
        init_sum += float(np.sum(w_alpha * np.abs(path.values[0]) ** p))
    measured = float(np.max(lhs_sum / len(paths)))
    init_moment = init_sum / len(paths)

    def counts():
        return np.array([neighbor_count(phantom, pos, coeffs.radius)
                         for _, pos in phantom.items()], dtype=float)

    c2_norm = float(np.sum(w_alpha * (c2 * counts()**2) ** p) ** (1.0 / p))
    base = init_moment + c2_norm

    def bound_for(c):
        q, a_star, a_sup, radius = params.q, params.alpha_star, params.alpha_sup, coeffs.radius
        violates = counts() > radii ** (q / 4.0)  # n_x <= |x|^(q/2k), k = 2
        r_cut = float(radii[violates].max()) if violates.any() else 0.0
        n_0r = int(np.sum(radii <= r_cut)) if len(radii) else 0
        l_value = c * math.exp(a_sup * radius) * (
            (radius**q + n_0r) * (a_sup - a_star) ** q + (q / math.e) ** q)
        k_t = gronwall_series_constant(params.alpha, params.beta, q, l_value,
                                       traj.horizon, series_tol)
        return c * k_t.value * base

    bound = bound_for(c1)
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
        passed=measured <= bound * (1 + 1e-9), bound_value=bound, measured_value=measured,
        slack=bound - measured, empirical_c1=empirical,
        constants_used={"c1": c1, "c2": c2, "alpha_star": params.alpha_star,
                        "alpha_sup": params.alpha_sup, "alpha": params.alpha,
                        "beta": params.beta, "p": params.p, "q": params.q,
                        "radius": coeffs.radius, "replicas": len(paths)})


def glauber_moment_case(seed=3, side=6.0, T=0.5, dt=1 / 32, n_paths=4):
    window = Window(side, 2, "periodic")
    gamma0 = poisson_configuration(window, 0.8, seed=seed)
    traj = simulate(gamma0, GlauberBirthKernel(2.0, step_potential(0.5, 1.0)), 1.0, T, seed)
    coeffs = CoefficientSet(cubic_drift(0.4), exchange_coupling(0.3),
                            tanh_diffusion(0.25), radius=1.0)
    paths = [integrate_marks(traj, coeffs, InitialMarkPolicy.constant(0.5),
                             IntegratorConfig(dt=dt), seed=s) for s in range(n_paths)]
    return traj, coeffs, paths


class TestMomentGrowthReference:
    @pytest.mark.parametrize("case", ["ou", "glauber"])
    def test_report_equals_reference(self, case):
        if case == "ou":
            traj, coeffs, paths = make_two_point_ou(seeds=range(16), dt=1e-2)
        else:
            traj, coeffs, paths = glauber_moment_case()
        params = ScaleParams(0.0, 1.0, 0.2, 0.7, 4.0, 0.5)
        c1, c2 = conservative_moment_constants(coeffs, params.p, traj.horizon)
        got = check_moment_growth(paths, traj, coeffs, params, c1, c2)
        want = reference_moment_growth(paths, traj, coeffs, params, c1, c2)
        assert got.empirical_c1 > 0.0
        assert json.dumps(asdict(got)) == json.dumps(asdict(want))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_a_non_finite_absent_mark_gives_nan(self, bad):
        # an absent mark is multiplied by 0.0, not overwritten: inf * 0.0 is NaN
        traj, coeffs, paths = glauber_moment_case()
        grid = paths[0].grid
        dead = int(np.flatnonzero(traj.deaths <= grid[-2])[0])  # absent on the last step
        values = paths[0].values.copy()
        values[-1, dead] = bad
        paths[0] = MarkPath(grid, paths[0].ids, values)
        params = ScaleParams(0.0, 1.0, 0.2, 0.7, 4.0, 0.5)
        with np.errstate(invalid="ignore", over="ignore"):
            report = check_moment_growth(paths, traj, coeffs, params, 1.0, 1.0)
        assert math.isnan(report.measured_value) and not report.passed

    def test_moment_check_needs_one_values_sized_buffer(self):
        # one buffer holds each path's |z|^p in turn; the absent runs are
        # multiplied by 0.0 in it, with no grid x phantom mask
        traj, coeffs, paths = glauber_moment_case(seed=1, side=24.0, T=1.0, dt=1 / 64,
                                                  n_paths=3)
        params = ScaleParams(0.0, 1.0, 0.2, 0.7, 4.0, 0.5)
        check_moment_growth(paths, traj, coeffs, params, 1.0, 1.0)  # one-off allocations
        _, peak = traced_peak(lambda: check_moment_growth(paths, traj, coeffs, params,
                                                          1.0, 1.0))
        nbytes = paths[0].values.nbytes
        assert nbytes > 1_000_000
        assert peak <= 1.5 * nbytes, (peak, nbytes)

    def test_neighbor_counts_built_once(self, monkeypatch):
        traj, coeffs, paths = glauber_moment_case()
        calls = []
        real = scales.neighbor_pairs

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(scales, "neighbor_pairs", counting)
        params = ScaleParams(0.0, 1.0, 0.2, 0.7, 4.0, 0.5)
        c1, c2 = conservative_moment_constants(coeffs, params.p, traj.horizon)
        report = check_moment_growth(paths, traj, coeffs, params, c1, c2)
        assert report.empirical_c1 > 0.0
        assert len(calls) == 1
