"""Spin SDE integrator: assembly oracles, frozen marks, cutoffs, projections."""

import itertools
import math

import numpy as np
import pytest

from bdspin import rng, spin_sde
from bdspin.birth_death import ConstantBirthKernel, GlauberBirthKernel, simulate, step_potential
from bdspin.geometry import Box, Configuration, Window, neighbor_pairs, poisson_configuration
from bdspin.spin_sde import (
    BoundsCheckReport,
    CoefficientSet,
    InitialMarkPolicy,
    IntegrationBlowUpError,
    IntegratorConfig,
    PairDiffusion,
    PairDrift,
    SingleDrift,
    build_time_grid,
    check_drift_diffusion_bounds,
    constant_diffusion,
    cubic_drift,
    cutoff_convergence_study,
    exchange_coupling,
    finite_volume_solve,
    frozen_mark_deviation,
    integrate_marks,
    linear_coupling,
    linear_drift,
    linear_self_diffusion,
    read_mark_path_csv,
    tanh_diffusion,
    zero_diffusion,
    zero_drift,
    zero_pair,
    _spearman,
)
from oracles import (assemble_diffusion, assemble_drift, explicit_noise, in_box,
                     phantom_positions, position_of, projection_consistency,
                     projection_mismatch, reference_bounds, restrict, strong_order_study,
                     traced_peak)
import dataclasses


def make_glauber_traj(seed=0, side=5.0, T=1.0, m=1.0, z=2.0, intensity=0.8, rho=1.0):
    window = Window(side, 2, "periodic")
    gamma0 = poisson_configuration(window, intensity, seed=seed)
    kernel = GlauberBirthKernel(z, step_potential(0.6, rho))
    return simulate(gamma0, kernel, m, T, seed)


def static_traj(positions, side=5.0, T=1.0, boundary="open", seed=0):
    window = Window(side, 2, boundary)
    gamma0 = Configuration(window, list(enumerate(positions)))
    return simulate(gamma0, ConstantBirthKernel(0.0), 0.0, T, seed=seed)


def shared_noise(traj, icfg, seed):
    """Normals for every step and phantom id drawn row by row from one stream."""
    n_steps = len(build_time_grid(traj.horizon, icfg.dt, [ev.time for ev in traj.events])) - 1
    gen = np.random.default_rng(seed)
    return gen.standard_normal((n_steps, len(traj.phantom_ids())))


def default_coeffs(rho=1.0, theta=0.5, J=0.3, kappa=0.2):
    return CoefficientSet(cubic_drift(theta), exchange_coupling(J),
                          tanh_diffusion(kappa), radius=rho)


def misdeclared(coeffs, part, lipschitz):
    """``coeffs`` with the Lipschitz constant of one term declared as ``lipschitz``."""
    term = dataclasses.replace(getattr(coeffs, part), lipschitz=lipschitz)
    return dataclasses.replace(coeffs, **{part: term})


# coefficient sets whose declared constants are too small; criterion 12's is
# the first of its builtin sets with the pair constant at 0.01
MISDECLARED = {
    "pair": misdeclared(CoefficientSet(zero_drift(), linear_coupling(1.0), zero_diffusion(), 1.0),
                        "pair", 0.05),
    "diffusion": misdeclared(CoefficientSet(zero_drift(), zero_pair(), constant_diffusion(1.0),
                                            1.0), "diffusion", 0.01),
    "criterion_12": misdeclared(default_coeffs(), "pair", 0.01),
    "tanh_diffusion": misdeclared(default_coeffs(), "diffusion", 0.02),
}

# a constant pair drift and pair diffusion of 1 declared with Lipschitz
# constant 0: each exceeds its bound by the neighbour count, on every sample
CONSTANT_PAIR = PairDrift(lambda a, b, d: np.full_like(a, 1.0), 0.0)
CONSTANT_DIFFUSION = PairDiffusion(lambda a, b, d: np.full_like(a, 1.0), 0.0)
TIES = {
    "drift_growth": CoefficientSet(zero_drift(), CONSTANT_PAIR, zero_diffusion(), 1.0),
    "diffusion_at_zero": CoefficientSet(zero_drift(), CONSTANT_PAIR, CONSTANT_DIFFUSION, 1.0),
}
# a pair drift of 1 for each neighbour whose mark exceeds 2 in magnitude,
# declared with Lipschitz constant 0: the largest excess is a whole neighbour
# count, which several rows reach on different samples, so in small blocks
# rows tie across blocks (a single-site dissipativity of 100 keeps every
# drift_dissipativity excess below 1)
ROW_TIE = CoefficientSet(SingleDrift(np.zeros_like, 0.0, 2.0, 100.0),
                         PairDrift(lambda a, b, d: (np.abs(b) > 2.0) * 1.0, 0.0),
                         zero_diffusion(), 1.0)

# every builtin term kind at radii 1.0 and 1.7, the misdeclared sets and the ties
BOUNDS_CASES = {
    **{f"{coeffs.single.name}-{coeffs.pair.name}-{coeffs.diffusion.name}-{rho}":
       dataclasses.replace(coeffs, radius=rho)
       for rho in (1.0, 1.7)
       for coeffs in (default_coeffs(),
                      CoefficientSet(linear_drift(-1.0), linear_coupling(0.4),
                                     constant_diffusion(0.5), 1.0),
                      CoefficientSet(zero_drift(), zero_pair(), linear_self_diffusion(0.3), 1.0),
                      CoefficientSet(linear_drift(0.7), exchange_coupling(0.2),
                                     zero_diffusion(), 1.0))},
    **{f"misdeclared-{name}": coeffs for name, coeffs in MISDECLARED.items()},
    **{f"tie-{name}": coeffs for name, coeffs in TIES.items()},
    "tie-rows": ROW_TIE,
}


class TestAssembly:
    def test_absent_particle_gets_zero(self):
        traj = make_glauber_traj(seed=1, m=1.0, z=3.0)
        coeffs = default_coeffs()
        births = [ev for ev in traj.events if ev.kind == "birth"]
        assert births
        ev = births[-1]
        marks = {pid: 1.0 for pid in traj.phantom_ids()}
        t_before = ev.time / 2.0
        if ev.id not in traj.present_ids(t_before):
            assert assemble_drift(ev.id, t_before, marks, traj, coeffs) == 0.0
            assert assemble_diffusion(ev.id, t_before, marks, traj, coeffs) == 0.0

    def test_single_site_cubic(self):
        traj = static_traj([[2.5, 2.5]])
        coeffs = CoefficientSet(cubic_drift(0.0), zero_pair(), zero_diffusion(), radius=1.0)
        got = assemble_drift(0, 0.5, {0: 2.0}, traj, coeffs)
        assert got == pytest.approx(-8.0)
        assert assemble_diffusion(0, 0.5, {0: 2.0}, traj, coeffs) == 0.0

    def test_constant_diffusion_counts_neighbors(self):
        # center point with k in-radius neighbors: diffusion = k * kappa
        kappa = 0.7
        center = np.array([2.5, 2.5])
        offsets = [[0.3, 0.0], [0.0, -0.4], [-0.5, 0.1]]
        positions = [center] + [center + np.array(o) for o in offsets] + [[0.1, 0.1]]
        traj = static_traj(positions)
        coeffs = CoefficientSet(zero_drift(), zero_pair(), constant_diffusion(kappa),
                                radius=1.0)
        marks = {pid: 0.33 * pid for pid in traj.phantom_ids()}
        got = assemble_diffusion(0, 0.2, marks, traj, coeffs)
        assert got == pytest.approx(3 * kappa, rel=1e-12)

    def test_unknown_id_raises(self):
        traj = static_traj([[1.0, 1.0]])
        with pytest.raises(KeyError, match="unknown id"):
            assemble_drift(99, 0.1, {99: 1.0}, traj, default_coeffs())

    @pytest.mark.parametrize("seed", [3, 4])
    def test_matches_all_pairs_brute_force(self, seed):
        window = Window(6.0, 2, "periodic")
        gamma0 = poisson_configuration(window, 0.9, seed=seed)  # ~30 points
        traj = simulate(gamma0, ConstantBirthKernel(0.0), 0.0, 1.0, seed=seed)
        coeffs = default_coeffs(rho=1.3)
        gen = rng.keyed_generator(seed, rng.SAMPLING)
        marks = {pid: float(v) for pid, v in zip(traj.phantom_ids(),
                                                 gen.standard_normal(len(traj.phantom_ids())))}
        t = 0.4
        for pid in traj.phantom_ids():
            drift = float(coeffs.single.func(np.float64(marks[pid])))
            diff = 0.0
            for qid in traj.phantom_ids():
                if qid == pid:
                    continue
                d = window.distance(position_of(gamma0, pid), position_of(gamma0, qid))
                if d <= coeffs.radius:
                    drift += float(coeffs.pair.func(np.float64(marks[pid]),
                                                    np.float64(marks[qid]), d))
                    diff += float(coeffs.diffusion.func(np.float64(marks[pid]),
                                                        np.float64(marks[qid]), d))
            assert assemble_drift(pid, t, marks, traj, coeffs) == pytest.approx(drift, rel=1e-12)
            assert assemble_diffusion(pid, t, marks, traj, coeffs) == pytest.approx(diff, rel=1e-12)


class TestGrid:
    def test_grid_contains_events_and_endpoints(self):
        grid = build_time_grid(1.0, 0.25, [0.1, 0.6, 1.0])
        assert grid[0] == 0.0 and grid[-1] == 1.0
        for t in (0.1, 0.25, 0.5, 0.6, 0.75):
            assert t in grid

    def test_prefix_property(self):
        events = [0.11, 0.42, 0.77]
        full = build_time_grid(1.0, 0.125, events)
        half = build_time_grid(0.5, 0.125, [t for t in events if t <= 0.5])
        assert np.array_equal(half, full[: len(half)])

    def test_nonbinary_dt_covers_horizon(self):
        grid = build_time_grid(1.0, 1e-3, [])
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert len(grid) == 1001


class TestIntegration:
    def test_deterministic_given_seed(self):
        traj = make_glauber_traj(seed=5)
        coeffs = default_coeffs()
        icfg = IntegratorConfig(dt=1 / 64)
        init = InitialMarkPolicy.constant(0.5)
        a = integrate_marks(traj, coeffs, init, icfg, seed=9)
        b = integrate_marks(traj, coeffs, init, icfg, seed=9)
        assert np.array_equal(a.values, b.values)
        c = integrate_marks(traj, coeffs, init, icfg, seed=10)
        assert not np.array_equal(a.values, c.values)

    def test_linear_decay_oracle(self):
        # single static particle, drift -s, no pair terms: exact EM recursion
        # z_{j+1} = z_j (1 - dt), and the limit is 4 e^{-1}
        traj = static_traj([[2.5, 2.5]])
        coeffs = CoefficientSet(linear_drift(-1.0), zero_pair(), zero_diffusion(),
                                radius=1.0)
        icfg = IntegratorConfig(dt=1e-3)
        path = integrate_marks(traj, coeffs, InitialMarkPolicy.constant(4.0), icfg, seed=0)
        got = float(path.values[-1, 0])
        assert got == pytest.approx(4.0 * (1.0 - 1e-3) ** 1000, rel=1e-12)
        assert got == pytest.approx(4.0 * math.exp(-1.0), abs=5e-3)

    def test_pairwise_sum_conserved_by_exchange_coupling(self):
        traj = static_traj([[2.0, 2.0], [2.5, 2.0]])
        coeffs = CoefficientSet(zero_drift(), exchange_coupling(0.8), zero_diffusion(),
                                radius=1.0)
        icfg = IntegratorConfig(dt=1 / 128)
        init = InitialMarkPolicy.from_field(lambda pos: 8.0 * pos[0] - 17.0)
        path = integrate_marks(traj, coeffs, init, icfg, seed=0)
        assert path.values[0].tolist() == [-1.0, 3.0]
        sums = path.values.sum(axis=1)
        assert np.max(np.abs(sums - 2.0)) < 1e-12

    def test_mark_frozen_before_birth(self):
        traj = make_glauber_traj(seed=7, m=0.0, z=3.0)
        births = {ev.id: ev.time for ev in traj.events if ev.kind == "birth"}
        assert births
        coeffs = default_coeffs()
        icfg = IntegratorConfig(dt=1 / 32)
        path = integrate_marks(traj, coeffs, InitialMarkPolicy.constant(5.0), icfg, seed=1)
        for pid, t_birth in births.items():
            series = path.values[:, path.ids.index(pid)]
            before = path.grid < t_birth
            assert np.all(series[before] == 5.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_frozen_mark_deviation_is_zero(self, seed):
        traj = make_glauber_traj(seed=seed, m=2.0, z=3.0, T=1.5)
        coeffs = default_coeffs()
        icfg = IntegratorConfig(dt=1 / 32)
        path = integrate_marks(traj, coeffs, InitialMarkPolicy.constant(1.0), icfg,
                               seed=seed)
        assert frozen_mark_deviation(path, traj) == 0.0

    def test_frozen_mark_deviation_reports_a_nudged_absent_mark(self):
        traj = make_glauber_traj(seed=2, m=2.0, z=3.0, T=1.5)
        coeffs = default_coeffs()
        icfg = IntegratorConfig(dt=1 / 32)
        path = integrate_marks(traj, coeffs, InitialMarkPolicy.constant(1.0), icfg, seed=2)
        values, grid = path.values, path.grid
        dead = int(np.flatnonzero(traj.deaths <= grid[-2])[0])  # absent on the last step
        late = int(np.flatnonzero(traj.births >= grid[1])[0])  # absent on the first step
        alive = int(np.flatnonzero(traj.deaths == math.inf)[0])  # present on the last step
        values[-1, dead] += 0.3
        values[0, late] -= 0.7
        values[-1, alive] += 10.0  # a present step: not a frozen mark
        want = max(abs(float(values[-1, dead]) - float(values[-2, dead])),
                   abs(float(values[1, late]) - float(values[0, late])))
        assert 0.6 < want < 0.8
        assert frozen_mark_deviation(path, traj) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("first", [True, False])
    def test_frozen_mark_deviation_keeps_a_non_finite_change(self, bad, first):
        # a NaN or inf change on an absent step is reported whether it comes
        # before or after a finite one, which a Python max(dev, nan) would drop
        traj = make_glauber_traj(seed=2, m=2.0, z=3.0, T=1.5)
        path = integrate_marks(traj, default_coeffs(), InitialMarkPolicy.constant(1.0),
                               IntegratorConfig(dt=1 / 32), seed=2)
        absent = np.flatnonzero(traj.deaths <= path.grid[-2])  # absent on the last step
        bad_col, nudged_col = (absent[0], absent[-1]) if first else (absent[-1], absent[0])
        path.values[-1, bad_col] = bad
        path.values[-1, nudged_col] += 0.3
        got = frozen_mark_deviation(path, traj)
        assert math.isnan(got) if math.isnan(bad) else got == math.inf

    def test_frozen_mark_deviation_needs_no_grid_sized_temporary(self):
        traj = make_glauber_traj(seed=1, side=16.0, T=1.0, m=2.0, z=3.0)
        path = integrate_marks(traj, default_coeffs(), InitialMarkPolicy.constant(1.0),
                               IntegratorConfig(dt=1 / 64), seed=1)
        deviation, peak = traced_peak(lambda: frozen_mark_deviation(path, traj))
        assert deviation == 0.0
        assert path.values.nbytes > 1_000_000
        assert peak < path.values.nbytes / 10, (peak, path.values.nbytes)

    def test_one_step_matches_assembly(self):
        # a single drift-only EM step must equal the reference assembly ops
        traj = make_glauber_traj(seed=11, m=1.0, z=2.0, T=0.5)
        coeffs = default_coeffs(rho=1.2)
        icfg = IntegratorConfig(dt=1 / 16)
        init = InitialMarkPolicy.constant(0.7)
        ids = traj.phantom_ids()
        zeros = np.zeros((len(build_time_grid(0.5, 1 / 16, [e.time for e in traj.events])) - 1,
                          len(ids)))
        with explicit_noise(zeros):
            path = integrate_marks(traj, coeffs, init, icfg, seed=0)
        grid = path.grid
        marks0 = {pid: 0.7 for pid in ids}
        h = float(grid[1] - grid[0])
        for k, pid in enumerate(ids):
            want = marks0[pid] + h * assemble_drift(pid, 0.0, marks0, traj, coeffs)
            assert float(path.values[1, k]) == pytest.approx(want, rel=1e-12)

    def test_diffusion_step_matches_assembly(self):
        traj = make_glauber_traj(seed=13, m=0.0, z=2.0, T=0.5)
        coeffs = CoefficientSet(zero_drift(), zero_pair(), tanh_diffusion(0.5), radius=1.2)
        icfg = IntegratorConfig(dt=1 / 16)
        init = InitialMarkPolicy.constant(0.9)
        ids = traj.phantom_ids()
        grid = build_time_grid(0.5, 1 / 16, [e.time for e in traj.events])
        ones = np.ones((len(grid) - 1, len(ids)))
        with explicit_noise(ones):
            path = integrate_marks(traj, coeffs, init, icfg, seed=0)
        h = float(grid[1] - grid[0])
        marks0 = {pid: 0.9 for pid in ids}
        for k, pid in enumerate(ids):
            want = 0.9 + math.sqrt(h) * assemble_diffusion(pid, 0.0, marks0, traj, coeffs)
            assert float(path.values[1, k]) == pytest.approx(want, rel=1e-12)

    def test_blow_up_detected_and_tamed(self):
        traj = static_traj([[2.5, 2.5]])
        coeffs = CoefficientSet(cubic_drift(0.0), zero_pair(), zero_diffusion(), radius=1.0)
        init = InitialMarkPolicy.constant(1e5)
        with pytest.raises(IntegrationBlowUpError, match="blow-up"):
            integrate_marks(traj, coeffs, init, IntegratorConfig(dt=0.25), seed=0)
        tamed = integrate_marks(traj, coeffs, init,
                                IntegratorConfig(dt=0.25, scheme="tamed"), seed=0)
        assert np.all(np.isfinite(tamed.values))


class TestFiniteVolume:
    def test_covering_box_is_bit_identical(self):
        traj = make_glauber_traj(seed=19, m=1.0, z=2.0)
        coeffs = default_coeffs()
        icfg = IntegratorConfig(dt=1 / 32)
        init = InitialMarkPolicy.constant(0.4)
        full = integrate_marks(traj, coeffs, init, icfg, seed=2)
        fv = finite_volume_solve(traj, coeffs, init, icfg, traj.window.box, seed=2)
        assert np.array_equal(full.values, fv.values)

    def test_empty_box_freezes_everything(self):
        traj = make_glauber_traj(seed=23, m=1.0, z=2.0)
        coeffs = default_coeffs()
        icfg = IntegratorConfig(dt=1 / 32)
        init = InitialMarkPolicy.constant(0.4)
        # a degenerate box that contains no phantom point freezes all marks
        degenerate = Box((0.0, 0.0), (0.0, 0.0))
        if degenerate.contains_many(traj.phantom_xy).any():
            pytest.skip("degenerate corner hit a point")
        path = finite_volume_solve(traj, coeffs, init, icfg, degenerate, seed=2)
        assert np.all(path.values == path.values[0])

    def test_cutoff_study_shrinks_with_box(self):
        traj = make_glauber_traj(seed=29, m=1.0, z=3.0, side=6.0, intensity=1.0)
        coeffs = default_coeffs(J=0.4, kappa=0.3)
        icfg = IntegratorConfig(dt=1 / 16)
        init = InitialMarkPolicy.constant(1.0)
        boxes = [traj.window.box.scaled(f) for f in (0.3, 0.6, 0.85)] + [traj.window.box]
        report = cutoff_convergence_study(traj, coeffs, init, icfg, boxes,
                                          beta=0.7, p=4.0, seeds=range(5))
        assert report.estimates[-1] == 0.0
        assert report.spearman_rho < -0.5
        assert report.estimates[0] > report.estimates[-2] or report.estimates[0] == 0.0

    def test_deep_inside_difference_shrinks_with_box(self):
        # growing cutoff boxes: points well inside the smallest box see an
        # error that shrinks as the frozen region recedes
        traj = make_glauber_traj(seed=41, m=1.0, z=3.0, side=8.0, intensity=1.0)
        coeffs = default_coeffs(J=0.4, kappa=0.3)
        icfg = IntegratorConfig(dt=1 / 16)
        init = InitialMarkPolicy.constant(1.0)
        full = integrate_marks(traj, coeffs, init, icfg, seed=4)
        inner = traj.window.box.scaled(0.3)
        positions = phantom_positions(traj)
        deep = [k for k, pid in enumerate(full.ids)
                if in_box(inner.scaled(0.5), positions[pid])]
        assert deep
        sups = []
        for f in (0.3, 0.6, 0.9):
            part = finite_volume_solve(traj, coeffs, init, icfg,
                                       traj.window.box.scaled(f), seed=4)
            sups.append(float(np.max(np.abs(part.values[:, deep] - full.values[:, deep]))))
        assert sups[0] >= sups[1] >= sups[2]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_spearman_bit_equal_to_scipy(self, n):
        from scipy import stats

        # every non-constant pattern of n values drawn from n levels, against
        # the box index and, with ties on both sides, against its own reversal
        for pattern in itertools.product(range(n), repeat=n):
            if len(set(pattern)) == 1:
                continue
            y = np.array(pattern, dtype=float)
            for x in (np.arange(n), y[::-1]):
                if len(set(x)) == 1:
                    continue
                got = np.float64(_spearman(x, y)).view(np.int64)
                want = np.float64(stats.spearmanr(x, y).statistic).view(np.int64)
                assert got == want, (x, y)


class TestProjection:
    def test_full_horizon_trivially_consistent(self):
        traj = make_glauber_traj(seed=31, m=1.0, z=2.0)
        assert projection_consistency(traj, default_coeffs(),
                                      InitialMarkPolicy.constant(0.1),
                                      IntegratorConfig(dt=1 / 32), traj.horizon, seed=3)

    @pytest.mark.parametrize("seed", range(5))
    def test_half_horizon_exact(self, seed):
        traj = make_glauber_traj(seed=seed, m=1.0, z=2.5, T=1.0)
        assert projection_consistency(traj, default_coeffs(),
                                      InitialMarkPolicy.constant(0.1),
                                      IntegratorConfig(dt=1 / 32), 0.5, seed=seed)

    def test_shared_noise_breaks_projection(self):
        # negative control: noise that is not keyed per particle must be
        # detected as inconsistent.  One stream filled row by row over the
        # phantom shifts every later draw once the phantom grows.
        icfg = IntegratorConfig(dt=1 / 32)
        for seed in range(6):
            traj = make_glauber_traj(seed=seed, m=0.5, z=3.0, T=1.0)
            n_births = len([e for e in traj.events if e.kind == "birth" and e.time > 0.5])
            if n_births == 0:
                continue  # phantom identical on both horizons: sharing is harmless
            paths = []  # the full and the restricted solve
            for tr in (traj, restrict(traj, 0.5)):
                with explicit_noise(shared_noise(tr, icfg, seed)):
                    paths.append(integrate_marks(tr, default_coeffs(kappa=0.4),
                                                 InitialMarkPolicy.constant(0.1), icfg, seed))
            assert projection_mismatch(*paths) is not None
            return
        pytest.fail("no run with late births found")


class TestStrongOrder:
    def test_error_decays_with_expected_order(self):
        report = strong_order_study(seed=1, n_paths=200, levels=range(4, 9))
        assert report.monotone
        assert 0.35 <= report.slope <= 1.2


class TestBoundsCheck:
    @pytest.mark.parametrize("coeffs", [
        CoefficientSet(cubic_drift(0.5), exchange_coupling(0.3), tanh_diffusion(0.2), 1.0),
        CoefficientSet(linear_drift(-1.0), linear_coupling(0.4), constant_diffusion(0.5), 1.0),
        CoefficientSet(zero_drift(), zero_pair(), zero_diffusion(), 1.0),
    ])
    def test_builtins_pass(self, coeffs):
        report = check_drift_diffusion_bounds(coeffs, sample_size=2000, seed=0)
        assert report.passed, report.worst

    def test_equal_states_trivially_tight(self):
        coeffs = default_coeffs()
        # Z1 == Z2 collapses the Lipschitz inequalities to 0 <= 0
        report = check_drift_diffusion_bounds(coeffs, sample_size=100, seed=1)
        assert report.passed

    def test_misdeclared_lipschitz_caught(self):
        report = check_drift_diffusion_bounds(MISDECLARED["pair"], sample_size=2000, seed=3)
        assert not report.passed
        assert report.worst["inequality"] in ("drift_growth", "drift_dissipativity")

    def test_misdeclared_diffusion_caught(self):
        report = check_drift_diffusion_bounds(MISDECLARED["diffusion"], sample_size=500, seed=4)
        assert not report.passed

    @pytest.mark.parametrize(
        "name,samples,seed,points,violations,inequality,point,sample,lhs,rhs", [
            ("pair", 2000, 3, 30, 65330, "drift_dissipativity", 0, 1775,
             2291.777911708416, 362.53068892609264),
            ("pair", 2000, 5, 41, 83984, "drift_dissipativity", 4, 84,
             3461.952970793437, 1072.9702863064488),
            ("diffusion", 500, 4, 44, 43, "diffusion_at_zero", 9, 0, 6.0, 0.07),
            ("diffusion", 500, 6, 42, 40, "diffusion_at_zero", 8, 0, 7.0, 0.08),
            ("criterion_12", 10_000, 0, 34, 28287, "drift_dissipativity", 31, 8076,
             31.422140223803336, 3.3424064792047203),
            ("criterion_12", 10_000, 1, 40, 39337, "drift_dissipativity", 18, 3611,
             45.75588884828017, 6.592874152860315),
            ("tanh_diffusion", 2000, 0, 34, 28082, "diffusion_lipschitz", 32, 601,
             1.4124486627699828, 0.34387806528509285),
            ("tanh_diffusion", 2000, 1, 40, 30390, "diffusion_lipschitz", 36, 11,
             2.0819764023243628, 0.620845269592527),
        ])
    def test_misdeclared_reports_are_pinned(self, name, samples, seed, points, violations,
                                            inequality, point, sample, lhs, rhs):
        """The whole report of each misdeclared set, recorded when the neighbour
        sums were still gathered into (pairs x samples) arrays.

        This pins the report's bits, not the order in which the pairs are
        summed: adding them in reverse order leaves all eight reports as they
        are.
        """
        report = check_drift_diffusion_bounds(MISDECLARED[name], sample_size=samples, seed=seed)
        worst = {"inequality": inequality, "point": point, "sample": sample,
                 "lhs": lhs, "rhs": rhs}
        assert report == BoundsCheckReport(False, samples, points, violations, worst)

    @pytest.mark.parametrize("seed", [0, 4])
    def test_peak_memory_does_not_grow_with_the_pairs(self, seed):
        """At radius 1.7 a point has about nine neighbours, yet the peak stays
        within 12 arrays of points x samples; a row per pair would take 30-40."""
        report, peak = traced_peak(lambda: check_drift_diffusion_bounds(
            default_coeffs(rho=1.7), sample_size=2000, seed=seed))
        assert peak <= 12 * report.points * report.samples * 8

    @pytest.mark.parametrize("seed", [0, 4])
    def test_peak_memory_is_two_samples_and_a_block(self, seed):
        """At 10 000 samples only the two samples are held in full; every other
        array spans one block of columns.  All samples at once peak at 10."""
        report, peak = traced_peak(lambda: check_drift_diffusion_bounds(
            default_coeffs(rho=1.7), sample_size=10_000, seed=seed))
        assert peak <= 4 * report.points * report.samples * 8, peak

    @pytest.mark.parametrize("samples", [0, 1, 1023, 1024, 1025, 2000])
    @pytest.mark.parametrize("coeffs", [
        pytest.param(coeffs, id=name) for name, coeffs in BOUNDS_CASES.items()])
    def test_blocks_match_the_unblocked_reference(self, coeffs, samples):
        report = check_drift_diffusion_bounds(coeffs, sample_size=samples, seed=2)
        assert report == reference_bounds(coeffs, sample_size=samples, seed=2)

    @pytest.mark.parametrize("name", ["tie-rows", "tie-diffusion_at_zero",
                                      "misdeclared-criterion_12"])
    def test_small_blocks_match_the_unblocked_reference(self, monkeypatch, name):
        # 15 blocks of 7 columns: in tie-rows the blocks' own witnesses tie on
        # different rows, so the row order decides between blocks
        monkeypatch.setattr(spin_sde, "BOUNDS_BLOCK", 7)
        coeffs = BOUNDS_CASES[name]
        report = check_drift_diffusion_bounds(coeffs, sample_size=100, seed=2)
        assert report == reference_bounds(coeffs, sample_size=100, seed=2)

    @pytest.mark.parametrize("inequality", TIES)
    def test_a_tied_witness_is_the_first(self, inequality):
        """The excess of each tie set is largest on every sample of the rows
        with most neighbours, in both blocks, and with a constant diffusion on
        ``diffusion_at_zero`` too: the witness is the earliest inequality, the
        lowest of those rows and sample 0."""
        report = check_drift_diffusion_bounds(TIES[inequality], sample_size=2000, seed=2)
        config = poisson_configuration(Window(6.0, 2, "periodic"), 1.0, seed=3)
        counts = np.bincount(neighbor_pairs(config.window, config.positions_array(), 1.0)[0],
                             minlength=report.points)
        rows = np.flatnonzero(counts == counts.max())
        assert len(rows) > 1 and report.worst["inequality"] == inequality
        assert (report.worst["point"], report.worst["sample"]) == (config.ids()[rows[0]], 0)


class TestMarkPathIO:
    def test_csv_round_trip(self, tmp_path):
        traj = make_glauber_traj(seed=37, m=1.0, z=2.0, T=0.5)
        path = integrate_marks(traj, default_coeffs(), InitialMarkPolicy.constant(0.3),
                               IntegratorConfig(dt=1 / 16), seed=1)
        f = tmp_path / "marks.csv"
        path.to_csv(f)
        back = read_mark_path_csv(f)
        assert back.ids == path.ids
        assert np.array_equal(back.grid, path.grid)
        assert np.array_equal(back.values, path.values)
