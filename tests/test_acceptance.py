"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a [PASS]/[FAIL] line for its criterion (visible with -s or
-rA).  Criteria with stated runtime limits assert wall-clock as well.
"""

import dataclasses
import json
import math
import time
from contextlib import contextmanager

import mpmath
import numpy as np
import pytest
from scipy import stats

from bdspin import rng
from bdspin.birth_death import (
    ConstantBirthKernel,
    GlauberBirthKernel,
    simulate,
    step_potential,
    verify_domination,
)
from bdspin.cli import main
from bdspin.geometry import Box, Configuration, Window, poisson_configuration
from bdspin.marked_process import cadlag_check, combine
from bdspin.scales import (
    check_gronwall_inequality,
    gronwall_series_constant,
    _extremal_solution,
)
from bdspin.spin_sde import (
    CoefficientSet,
    InitialMarkPolicy,
    IntegratorConfig,
    check_drift_diffusion_bounds,
    constant_diffusion,
    cubic_drift,
    cutoff_convergence_study,
    exchange_coupling,
    frozen_mark_deviation,
    integrate_marks,
    linear_coupling,
    linear_drift,
    linear_self_diffusion,
    tanh_diffusion,
    zero_diffusion,
    zero_drift,
    zero_pair,
)
from oracles import (
    OvsjannikovMatrix,
    birth_events,
    check_operator_bound,
    death_events,
    ovsjannikov_bound_constant,
    projection_consistency,
    radial_norms,
    shared_streams,
    strong_order_study,
    weighted_lp_norm_from_radii,
)
from test_scales import dense_coupling, expm_measurement, picard_extremal, picard_measurement


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def glauber_run(seed, side=5.0, T=1.0, m=1.0, z=2.0, intensity=0.5, c=0.6, rho=1.0):
    window = Window(side, 2, "periodic")
    gamma0 = poisson_configuration(window, intensity, seed=seed)
    kernel = GlauberBirthKernel(z, step_potential(c, rho))
    return simulate(gamma0, kernel, m, T, seed)


def test_criterion_01_thinning_exactness():
    with criterion("criterion 1: thinning exactness (Poisson birth counts)"):
        t0 = time.perf_counter()
        window = Window(5.0, 2, "periodic")
        kernel = ConstantBirthKernel(2.0)
        lam = 2.0 * 1.0 * window.volume()  # 50
        counts = np.empty(2000, dtype=int)
        for s in range(2000):
            traj = simulate(Configuration(window), kernel, 0.0, 1.0, seed=s)
            counts[s] = len(birth_events(traj))
        elapsed = time.perf_counter() - t0

        sigma_mean = math.sqrt(lam / len(counts))
        assert abs(counts.mean() - lam) < 3 * sigma_mean
        assert 0.9 <= counts.var() / counts.mean() <= 1.1
        # chi-square GOF against Poisson(50), tail bins merged to keep
        # expected counts above 5
        lo = int(stats.poisson.ppf(0.005, lam))
        hi = int(stats.poisson.ppf(0.995, lam))
        clipped = np.clip(counts, lo, hi)
        observed = np.bincount(clipped - lo, minlength=hi - lo + 1)
        probs = stats.poisson.pmf(np.arange(lo, hi + 1), lam)
        probs[0] = stats.poisson.cdf(lo, lam)
        probs[-1] = 1.0 - stats.poisson.cdf(hi - 1, lam)
        res = stats.chisquare(observed, probs * len(counts))
        assert res.pvalue > 0.01, res
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_pure_death():
    with criterion("criterion 2: pure death (Binomial survivors, Exp lifetimes)"):
        t0 = time.perf_counter()
        window = Window(5.0, 2, "open")
        gen = rng.keyed_generator(0, rng.SAMPLING)
        gamma0 = Configuration.from_positions(window, 5.0 * gen.random((500, 2)))
        m, t_obs = 1.0, 0.7
        p = math.exp(-m * t_obs)
        survivors = np.empty(2000)
        lifetimes = []
        for s in range(2000):
            traj = simulate(gamma0, ConstantBirthKernel(0.0), m, t_obs, seed=s)
            survivors[s] = len(traj.present_ids(t_obs))
            lifetimes.append([ev.time * m for ev in death_events(traj)])
        elapsed = time.perf_counter() - t0

        mean = 500 * p
        sigma = math.sqrt(500 * p * (1 - p) / len(survivors))
        assert abs(survivors.mean() - mean) < 3 * sigma
        # observed lifetimes are censored at m*T = 0.7 for every initial
        # point; condition by truncating the reference exponential there
        sample = np.concatenate(lifetimes)
        cut = m * t_obs
        truncated_cdf = lambda x: (1 - np.exp(-x)) / (1 - math.exp(-cut))
        res = stats.kstest(sample, truncated_cdf)
        assert res.pvalue > 0.01, res
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_03_domination():
    with criterion("criterion 3: pathwise domination on 200 Glauber runs"):
        for seed in range(200):
            traj = glauber_run(seed, m=1.0, z=2.0)
            report = verify_domination(traj)
            assert report.passed, (seed, report.violations)


def test_criterion_04_frozen_marks():
    with criterion("criterion 4: frozen-mark invariant on 50 random runs"):
        coeffs = CoefficientSet(cubic_drift(0.4), exchange_coupling(0.3),
                                tanh_diffusion(0.25), radius=1.0)
        icfg = IntegratorConfig(dt=1 / 32)
        for seed in range(50):
            traj = glauber_run(seed, m=2.0, z=3.0, T=1.0, intensity=0.6)
            path = integrate_marks(traj, coeffs, InitialMarkPolicy.constant(0.5),
                                   icfg, seed=seed)
            assert frozen_mark_deviation(path, traj) == 0.0, seed


def linear_pairs_solve():
    """One solve of 5000 isolated pairs: particles 2r and 2r + 1 at 1 + 4r and
    1.5 + 4r, mutual neighbours 0.5 apart and 3.5 from the next pair.  With
    drift -z and noise 1 per neighbour, each mark follows
    z_{j+1} = (1 - h_j) z_j + sqrt(h_j) xi_j from z_0 = 4."""
    window = Window(20_000.0, 1, "open")
    gamma0 = Configuration(window, [(2 * r + k, [x + 4.0 * r])
                                    for r in range(5000) for k, x in enumerate((1.0, 1.5))])
    traj = simulate(gamma0, ConstantBirthKernel(0.0), 0.0, 1.0, seed=0)
    coeffs = CoefficientSet(linear_drift(-1.0), zero_pair(), constant_diffusion(1.0),
                            radius=1.0)
    return integrate_marks(traj, coeffs, InitialMarkPolicy.constant(4.0),
                           IntegratorConfig(dt=1e-3), seed=1)


def linear_pairs_checks(path) -> dict:
    """The final marks of ``linear_pairs_solve`` against their exact Euler law:
    mean prod(1 - h_j) * 4, variance v with v_{j+1} = (1 - h_j)^2 v_j + h_j,
    and independent pair members, each to 3 standard errors; the mean also
    within max(3 SE, 5 dt) of the limit 4/e, where 3 SE must exceed 5 dt."""
    finals, widths = path.values[-1], np.diff(path.grid)
    n, dt = len(finals), float(widths.max())
    v = 0.0
    for h in widths.tolist():
        v = (1.0 - h) ** 2 * v + h
    mean = float(finals.mean())
    se = float(finals.std(ddof=1)) / math.sqrt(n)
    rho = float(np.corrcoef(finals[0::2], finals[1::2])[0, 1])
    return {
        "euler_mean": abs(mean - 4.0 * float(np.prod(1.0 - widths))) < 3 * se,
        "limit_mean": abs(mean - 4.0 * math.exp(-1.0)) < max(3 * se, 5 * dt),
        "noise_decides": 3 * se > 5 * dt,
        "variance": abs(float(finals.var(ddof=1)) / v - 1.0) < 3 * math.sqrt(2 / (n - 1)),
        "pair_correlation": abs(rho) < 3 / math.sqrt(n // 2),
    }


def test_criterion_05_sde_linear_oracle():
    with criterion("criterion 5: linear SDE oracle (Euler mean, variance, 4/e)"):
        t0 = time.perf_counter()
        checks = linear_pairs_checks(linear_pairs_solve())
        elapsed = time.perf_counter() - t0
        assert all(checks.values()), checks
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_05_fails_on_shared_streams():
    # pair members drawing one stream keep their marginal law, not their independence
    with shared_streams():
        checks = linear_pairs_checks(linear_pairs_solve())
    assert not checks["pair_correlation"], checks


def test_criterion_06_strong_order():
    with criterion("criterion 6: strong-order slope in [0.35, 1.2], monotone"):
        report = strong_order_study(seed=2, n_paths=400, levels=range(4, 11))
        assert report.monotone, report.errors
        assert 0.35 <= report.slope <= 1.2, report.slope


def test_criterion_07_projection_consistency():
    with criterion("criterion 7: horizon projection exact on 20 seeded runs"):
        coeffs = CoefficientSet(cubic_drift(0.4), exchange_coupling(0.3),
                                tanh_diffusion(0.25), radius=1.0)
        icfg = IntegratorConfig(dt=1 / 32)
        for seed in range(20):
            traj = glauber_run(seed, m=1.0, z=2.5, T=1.0, intensity=0.6)
            assert projection_consistency(traj, coeffs, InitialMarkPolicy.constant(0.2),
                                          icfg, 0.5, seed=seed), seed


def test_criterion_08_cutoff_convergence():
    with criterion("criterion 8: cutoff convergence trend (Spearman < -0.8)"):
        traj = glauber_run(3, side=8.0, T=1.0, m=1.0, z=2.0, intensity=1.2)
        assert len(traj.phantom_ids()) >= 80  # ~100-point phantom
        coeffs = CoefficientSet(cubic_drift(0.4), exchange_coupling(0.4),
                                tanh_diffusion(0.3), radius=1.0)
        icfg = IntegratorConfig(dt=1 / 32)
        boxes = [traj.window.box.scaled(f) for f in (0.35, 0.55, 0.75, 0.95)]
        report = cutoff_convergence_study(
            traj, coeffs, InitialMarkPolicy.constant(1.0), icfg, boxes,
            beta=0.7, p=4.0,
            seeds=[rng.replica_seed(7, r) for r in range(20)],
        )
        assert report.spearman_rho < -0.8, report.estimates


def test_criterion_09a_gronwall_single_point_closed_form():
    with criterion("criterion 9a: extremal solve and Picard match b e^{Bt} within 1e-6"):
        coupling_b, b0, horizon = 1.3, 0.8, 1.0
        grid = np.linspace(0.0, horizon, 2049)
        closed = b0 * np.exp(coupling_b * grid)
        rho, _ = picard_extremal(np.array([[coupling_b]]), np.array([b0]), grid,
                                 tol=1e-12)
        assert float(np.max(np.abs(rho[0] - closed))) < 1e-6
        no_pairs = np.zeros(0, dtype=np.intp)
        exact = np.array([
            _extremal_solution(np.array([coupling_b]), no_pairs, no_pairs,
                               np.array([b0]), t)[0][0]
            for t in grid
        ])
        assert float(np.max(np.abs(exact - closed))) < 1e-6


def test_criterion_09b_gronwall_random_instances():
    with criterion("criterion 9b: Gronwall inequality on 25 random 50-point instances"):
        for seed in range(25):
            window = Window(8.0, 2, "open")
            config = poisson_configuration(window, 0.8, seed=seed)
            gen = rng.keyed_generator(seed, rng.SAMPLING)
            b_vec = np.abs(gen.standard_normal(len(config)))
            report = check_gronwall_inequality(
                window, config.positions_array(), coupling_b=0.2, growth_k=1.0,
                b_vec=b_vec, horizon=0.5, alpha=0.1, beta=0.6, q=0.5, radius=1.0,
                alpha_star=0.1, alpha_sup=0.6)
            assert report.passed, (seed, dataclasses.asdict(report))
            assert math.isfinite(report.bound_value), seed
            # the exact solve against two independent oracles on the dense coupling
            coupling = dense_coupling(config, 0.2, 1.0, 1.0)
            got = report.measured_value
            picard = picard_measurement(config, coupling, b_vec, 0.5, 0.6)
            assert abs(got - picard) <= 1e-6 * picard, seed
            expm = expm_measurement(config, coupling, b_vec, 0.5, 0.6)
            assert abs(got - expm) <= 1e-12 * expm, seed


def test_criterion_09c_series_constant_oracle():
    with criterion("criterion 9c: K_T matches 500-term high-precision oracle"):
        tol = 1e-10
        parameter_sets = [
            (0.0, 1.0, 0.5, 1.0, 1.0),
            (0.1, 0.6, 0.5, 0.8, 1.0),
            (0.0, 0.5, 0.4, 1.2, 0.5),
            (0.2, 0.9, 0.6, 0.5, 2.0),
            (0.0, 1.5, 0.3, 2.0, 0.5),
            (0.3, 0.8, 0.5, 1.5, 0.5),
            (0.0, 2.0, 0.7, 1.0, 1.0),
            (0.1, 0.35, 0.5, 0.3, 1.0),
            (0.0, 0.6, 0.2, 1.0, 1.5),
            (0.5, 1.25, 0.45, 0.9, 1.2),
        ]
        for alpha, beta, q, bound_l, horizon in parameter_sets:
            got = gronwall_series_constant(alpha, beta, q, bound_l, horizon, tol=tol)
            with mpmath.workdps(50):
                want = mpmath.mpf(1)
                for n in range(1, 500):
                    want += ((mpmath.mpf(bound_l) * horizon) ** n
                             * mpmath.mpf(n) ** (q * n)
                             / ((mpmath.mpf(beta) - alpha) ** (q * n)
                                * mpmath.factorial(n)))
                want = float(want)
            assert abs(got.value - want) <= 10 * tol, (alpha, beta, q, bound_l, horizon)


def test_criterion_10_operator_bound():
    with criterion("criterion 10: operator bound on 10 matrices x 1000 vectors"):
        for seed in range(10):
            window = Window(8.0, 2, "periodic")
            config = poisson_configuration(window, 1.0, seed=seed)
            growth_c, growth_k, q = 0.8, 1.5, 0.5
            matrix = OvsjannikovMatrix.random(config, radius=1.0, growth_c=growth_c,
                                              growth_k=growth_k, seed=seed)
            bound = ovsjannikov_bound_constant(config, growth_c, growth_k, q,
                                               1.0, 0.0, 1.0)
            alpha, beta = 0.1 + 0.05 * seed, 0.6 + 0.04 * seed
            report = check_operator_bound(matrix, bound.value, alpha, beta, q,
                                          n_vectors=1000, seed=seed)
            assert report["passed"], (seed, report)


def test_criterion_11_norm_monotonicity():
    with criterion("criterion 11: norm scale monotonicity on 1e4 triples"):
        window = Window(10.0, 2, "open")
        config = poisson_configuration(window, 1.0, seed=0)
        radii = radial_norms(config)
        gen = rng.keyed_generator(11, rng.SAMPLING)
        for _ in range(10_000):
            values = 10.0 ** gen.uniform(-3, 3) * gen.standard_normal(len(radii))
            alpha = float(3.0 * gen.random())
            beta = alpha + float(2.0 * gen.random()) + 1e-9
            p = float(1.0 + 5.0 * gen.random())
            na = weighted_lp_norm_from_radii(radii, values, alpha, p)
            nb = weighted_lp_norm_from_radii(radii, values, beta, p)
            assert nb <= na * (1 + 1e-12)


def test_criterion_12_drift_diffusion_bounds():
    with criterion("criterion 12: envelope inequalities + negative control"):
        builtin_sets = [
            CoefficientSet(cubic_drift(0.5), exchange_coupling(0.3),
                           tanh_diffusion(0.2), radius=1.0),
            CoefficientSet(linear_drift(-1.0), linear_coupling(0.4),
                           constant_diffusion(0.5), radius=1.0),
            CoefficientSet(cubic_drift(0.0), zero_pair(),
                           linear_self_diffusion(0.3), radius=1.0),
            CoefficientSet(zero_drift(), exchange_coupling(0.6),
                           zero_diffusion(), radius=1.0),
        ]
        for i, coeffs in enumerate(builtin_sets):
            report = check_drift_diffusion_bounds(coeffs, sample_size=10_000, seed=i)
            assert report.passed, (i, report.worst)
        good = builtin_sets[0]
        bad = dataclasses.replace(
            good, pair=dataclasses.replace(good.pair, lipschitz=0.01))
        report = check_drift_diffusion_bounds(bad, sample_size=10_000, seed=0)
        assert not report.passed


def test_criterion_13_cadlag_checks():
    with criterion("criterion 13: cadlag grid checks, 20 runs x 20 observables"):
        coeffs = CoefficientSet(cubic_drift(0.4), exchange_coupling(0.3),
                                tanh_diffusion(0.25), radius=1.0)
        dt = 1 / 64
        icfg = IntegratorConfig(dt=dt)
        for seed in range(20):
            traj = glauber_run(seed, m=1.5, z=3.0, T=1.0, intensity=0.6)
            path = integrate_marks(traj, coeffs, InitialMarkPolicy.constant(0.5),
                                   icfg, seed=seed)
            marked = combine(traj, path)
            gen = rng.keyed_generator(1000 + seed, rng.SAMPLING)
            from bdspin.marked_process import counting_observable, mark_sum_observable

            for i in range(20):
                lo = 5.0 * gen.random(2) * 0.6
                hi = np.minimum(lo + 5.0 * (0.2 + 0.6 * gen.random(2)), 5.0)
                box = Box(tuple(float(v) for v in lo), tuple(float(v) for v in hi))
                g = (counting_observable(box, f"count_{i}") if i % 2 == 0
                     else mark_sum_observable(box, f"marks_{i}"))
                report = cadlag_check(marked, g, eps_t=dt)
                assert report.passed, (seed, i, report.violations)


def test_criterion_14_determinism(tmp_path):
    with criterion("criterion 14: byte-identical artifacts on repeated runs"):
        cfg = {
            "schema": "bdspin-run/1",
            "window": {"side": 4.0, "dim": 2, "boundary": "periodic"},
            "kernel": {"variant": "glauber", "z": 2.0,
                       "phi": {"name": "step", "params": [0.5, 1.0]}},
            "death_rate": 1.0,
            "horizon": 0.5,
            "initial_configuration": {"kind": "poisson", "intensity": 0.6},
            "initial_marks": {"kind": "constant", "value": 0.5},
            "coefficients": {
                "single": {"kind": "cubic", "params": [0.4]},
                "pair": {"kind": "exchange", "params": [0.3]},
                "diffusion": {"kind": "tanh", "params": [0.25]},
                "radius": 1.0,
            },
            "integrator": {"dt": 0.03125},
            "scale_params": {"alpha_star": 0.0, "alpha_sup": 1.0, "alpha": 0.2,
                             "beta": 0.7, "p": 4.0, "q": 0.5},
            "seed": 13,
            "replicas": 1,
            "output": {"persist_driving": True},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
        names = ["events.jsonl", "events.jsonl.driving", "marks.csv",
                 "snapshots.jsonl", "manifest.json"]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
