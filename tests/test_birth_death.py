"""Birth-death process: thinning exactness, replay oracles, domination."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from bdspin import rng
from bdspin.birth_death import (
    BoundViolationError,
    ConstantBirthKernel,
    DrivingPoint,
    EstablishmentBirthKernel,
    Event,
    FecundityBirthKernel,
    GlauberBirthKernel,
    gaussian_potential,
    read_event_log,
    sample_driving_process,
    simulate,
    step_potential,
    Trajectory,
    verify_counting_identity,
    verify_domination,
    write_event_log,
)
from bdspin.geometry import Box, Configuration, Window, poisson_configuration
from bdspin.spin_sde import build_time_grid
from oracles import (TemperedWeight, birth_events, check_rate_perturbation_bound, config_at,
                     count_in, death_events, event_count_in, in_box, phantom_positions,
                     present_ids, rate_at, restrict)


def glauber_run(seed, z=1.5, side=5.0, T=1.0, m=0.5, init_intensity=0.5, c=0.8, rho=1.0):
    window = Window(side, 2, "periodic")
    gamma0 = poisson_configuration(window, init_intensity, seed=seed)
    kernel = GlauberBirthKernel(z, step_potential(c, rho))
    return simulate(gamma0, kernel, m, T, seed)


class TestDrivingProcess:
    def test_zero_intensity_is_empty(self):
        window = Window(3.0, 2, "open")
        assert sample_driving_process(window, 1.0, 0.0, seed=0) == []

    def test_determinism(self):
        window = Window(2.0, 2, "periodic")
        a = sample_driving_process(window, 1.5, 2.0, seed=123)
        b = sample_driving_process(window, 1.5, 2.0, seed=123)
        assert a == b
        c = sample_driving_process(window, 1.5, 2.0, seed=124)
        assert a != c

    def test_marks_in_range_and_sorted(self):
        window = Window(4.0, 2, "open")
        pts = sample_driving_process(window, 2.0, 1.5, seed=7)
        times = [dp.s for dp in pts]
        assert times == sorted(times)
        for dp in pts:
            assert 0.0 < dp.s <= 2.0
            assert window.contains(dp.x)
            assert 0.0 <= dp.u <= 1.5
            assert dp.r > 0.0

    def test_count_matches_poisson_moments(self):
        # mean candidate count b_max * T * vol = 2.0, averaged over many seeds
        window = Window(1.0, 2, "open")
        counts = np.array([
            len(sample_driving_process(window, 1.0, 2.0, seed=s)) for s in range(10_000)
        ])
        mean = 2.0
        sigma_mean = math.sqrt(mean / len(counts))
        assert abs(counts.mean() - mean) < 3.0 * sigma_mean
        # variance of a Poisson equals its mean
        assert abs(counts.var() - mean) < 4.0 * mean / math.sqrt(len(counts)) * 3.0


class TestBirthRates:
    def test_glauber_flat_potential_is_constant(self):
        window = Window(5.0, 2, "open")
        config = poisson_configuration(window, 1.0, seed=2)
        kernel = GlauberBirthKernel(3.0, step_potential(0.0, 1.0))
        assert rate_at(kernel, [2.0, 2.0], config) == pytest.approx(3.0)

    def test_fecundity_empty_configuration(self):
        window = Window(5.0, 2, "open")
        config = Configuration(window)
        pot = step_potential(0.5, 1.0)
        kernel = FecundityBirthKernel(pot, pot, pot, bound=10.0)
        assert rate_at(kernel, [1.0, 1.0], config) == 0.0

    def test_glauber_neighbor_count_oracle(self):
        window = Window(10.0, 2, "open")
        c, radius = 0.7, 1.0
        kernel = GlauberBirthKernel(1.0, step_potential(c, radius))
        x = np.array([5.0, 5.0])
        gen = rng.keyed_generator(3, rng.SAMPLING)
        # k points inside the ball, a few well outside
        for k in range(5):
            pts = []
            for _ in range(k):
                ang, rad = 2 * math.pi * gen.random(), radius * math.sqrt(gen.random())
                pts.append(x + rad * np.array([math.cos(ang), math.sin(ang)]))
            pts += [x + np.array([3.0 + i, 0.0]) for i in range(3)]
            config = Configuration.from_positions(window, pts)
            got = rate_at(kernel, x, config)
            assert got == pytest.approx(math.exp(-k * c), rel=1e-12)

    def test_establishment_matches_direct_formula(self):
        window = Window(6.0, 2, "open")
        a = step_potential(0.4, 1.2)
        c = step_potential(0.3, 0.9)
        phi = step_potential(0.6, 1.5)
        kernel = EstablishmentBirthKernel(a, c, phi, bound=50.0)
        config = poisson_configuration(window, 1.0, seed=5)
        x = np.array([3.0, 3.0])
        a_sum = c_sum = phi_sum = 0.0
        for _, pos in config.items():
            d = window.distance(x, pos)
            a_sum += 0.4 if d <= 1.2 else 0.0
            c_sum += 0.3 if d <= 0.9 else 0.0
            phi_sum += 0.6 if d <= 1.5 else 0.0
        want = a_sum * (1.0 + c_sum) * math.exp(-phi_sum)
        assert rate_at(kernel, x, config) == pytest.approx(want, rel=1e-12)

    def test_fecundity_matches_direct_formula(self):
        window = Window(6.0, 2, "open")
        a = step_potential(0.4, 1.5)
        c = step_potential(0.2, 1.0)
        phi = step_potential(0.5, 1.0)
        kernel = FecundityBirthKernel(a, c, phi, bound=100.0)
        config = poisson_configuration(window, 0.8, seed=9)
        x = np.array([3.0, 2.5])
        want = 0.0
        for y_id, y in config.items():
            d_xy = window.distance(x, y)
            if d_xy > 1.5:
                continue
            c_sum = phi_sum = 0.0
            for z_id, z in config.items():
                if z_id == y_id:
                    continue
                d = window.distance(z, y)
                c_sum += 0.2 if d <= 1.0 else 0.0
                phi_sum += 0.5 if d <= 1.0 else 0.0
            want += 0.4 * (1.0 + c_sum) * math.exp(-phi_sum)
        assert rate_at(kernel, x, config) == pytest.approx(want, rel=1e-12)

    def test_misdeclared_bound_raises(self):
        window = Window(5.0, 2, "open")
        config = poisson_configuration(window, 2.0, seed=1)
        a = step_potential(1.0, 2.0)
        zero = step_potential(0.0, 0.1)
        kernel = FecundityBirthKernel(a, zero, zero, bound=0.01)
        with pytest.raises(BoundViolationError, match="bound violation"):
            rate_at(kernel, [2.5, 2.5], config)

    def test_glauber_configuration_lipschitz_bound(self):
        # phi = c * 1{d <= rho} <= B * G with B = c / G(rho)
        window = Window(5.0, 2, "periodic")
        c, radius = 0.8, 1.0
        kernel = GlauberBirthKernel(2.0, step_potential(c, radius))
        weight = TemperedWeight(epsilon=0.5, dim=2)
        bound_B = c / float(weight.value(radius))
        report = check_rate_perturbation_bound(kernel, window, bound_B, weight,
                                               n_samples=300, seed=17)
        assert report["passed"], report


class TestSimulate:
    def test_pure_birth_counts_are_poisson(self):
        window = Window(2.0, 2, "periodic")
        kernel = ConstantBirthKernel(1.5)
        lam = 1.5 * 1.0 * window.volume()
        counts = []
        for s in range(1000):
            traj = simulate(Configuration(window), kernel, 0.0, 1.0, seed=s)
            counts.append(len(config_at(traj, 1.0)))
            assert not death_events(traj)
        counts = np.array(counts)
        sigma = math.sqrt(lam / len(counts))
        assert abs(counts.mean() - lam) < 3 * sigma
        var_sigma = lam * math.sqrt(2.0 / len(counts))  # approx sd of sample variance
        assert abs(counts.var() - lam) < 3 * var_sigma

    def test_pure_death_survivors_are_binomial(self):
        window = Window(5.0, 2, "open")
        gen = rng.keyed_generator(0, rng.SAMPLING)
        gamma0 = Configuration.from_positions(window, 5.0 * gen.random((200, 2)))
        m, t = 1.0, 0.7
        p = math.exp(-m * t)
        survivors = []
        for s in range(800):
            traj = simulate(gamma0, ConstantBirthKernel(0.0), m, 0.7, seed=s)
            survivors.append(len(config_at(traj, t)))
        survivors = np.array(survivors)
        mean = 200 * p
        sigma = math.sqrt(200 * p * (1 - p) / len(survivors))
        assert abs(survivors.mean() - mean) < 3 * sigma

    def test_no_death_means_phantom_equals_final(self):
        traj = glauber_run(seed=11, m=0.0)
        assert not death_events(traj)
        final = config_at(traj, traj.horizon)
        assert final.ids() == traj.phantom_ids()

    def test_determinism_bit_identical(self):
        a = glauber_run(seed=21)
        b = glauber_run(seed=21)
        assert a.events == b.events
        assert a.presence == b.presence

    def test_lifetimes_are_exponential(self):
        # born points: m * (death - birth) is a unit exponential.  Censoring
        # at the horizon depends on the birth time, so condition on points
        # whose censoring window covers a fixed cut and truncate there.
        m, T, cut = 2.0, 2.0, 1.0
        lifetimes = []
        for s in range(60):
            traj = glauber_run(seed=s, m=m, T=T, z=2.0)
            deaths = {ev.id: ev.time for ev in death_events(traj)}
            for ev in birth_events(traj):
                if ev.time <= T - cut / m and ev.id in deaths:
                    lifetimes.append(m * (deaths[ev.id] - ev.time))
        sample = np.array([lt for lt in lifetimes if lt <= cut])
        assert len(sample) > 200
        truncated_cdf = lambda x: (1 - np.exp(-x)) / (1 - math.exp(-cut))
        res = stats.kstest(sample, truncated_cdf)
        assert res.pvalue > 0.01

    def test_phantom_equals_union_of_configs(self):
        traj = glauber_run(seed=12, m=1.5, z=3.0, T=1.5)
        times = sorted({ev.time for ev in traj.events} | {0.0, traj.horizon})
        union = set()
        for t in times:
            union |= set(config_at(traj, t).ids())
            union |= set(config_at(traj, t, side="left").ids())
        assert sorted(union) == traj.phantom_ids()

    def test_id_presence_single_interval_no_resurrection(self):
        traj = glauber_run(seed=3, m=1.0, T=2.0, z=2.0)
        seen: dict[int, list[str]] = {}
        for ev in traj.events:
            seen.setdefault(ev.id, []).append(ev.kind)
        for pid, kinds in seen.items():
            assert kinds in (["birth"], ["death"], ["birth", "death"])
        for pid, (birth, death) in traj.presence.items():
            if death is not None:
                assert birth < death <= traj.horizon


class TestConfigAt:
    def test_time_zero_is_initial(self):
        traj = glauber_run(seed=5)
        assert config_at(traj, 0.0).ids() == traj.gamma0.ids()
        assert config_at(traj, 0.0, side="left").ids() == traj.gamma0.ids()

    def test_cadlag_convention_at_birth(self):
        traj = glauber_run(seed=6, m=0.0, z=3.0)
        ev = birth_events(traj)[0]
        assert ev.id in config_at(traj, ev.time, "right")
        assert ev.id not in config_at(traj, ev.time, "left")

    def test_death_removes_point_from_right_limit(self):
        traj = glauber_run(seed=8, m=3.0, T=2.0, z=3.0)
        deaths = death_events(traj)
        assert deaths
        ev = deaths[0]
        assert ev.id not in config_at(traj, ev.time, "right")
        assert ev.id in config_at(traj, ev.time, "left")

    def test_out_of_range_time(self):
        traj = glauber_run(seed=5)
        with pytest.raises(ValueError, match="outside"):
            config_at(traj, -0.1)
        with pytest.raises(ValueError, match="outside"):
            config_at(traj, traj.horizon + 0.1)

    def test_matches_incremental_replay(self):
        traj = glauber_run(seed=9, m=1.0, T=1.5, z=2.0)
        gen = rng.keyed_generator(1, rng.SAMPLING)
        # oracle: walk the event log, maintaining the live id set
        times = np.sort(traj.horizon * gen.random(100))
        live = set(traj.gamma0.ids())
        idx = 0
        events = traj.events
        for t in times:
            while idx < len(events) and events[idx].time <= t:
                ev = events[idx]
                live.add(ev.id) if ev.kind == "birth" else live.remove(ev.id)
                idx += 1
            assert sorted(live) == config_at(traj, float(t)).ids()


def reference_counting_identity(traj) -> bool:
    """``verify_counting_identity`` as a loop over ``config_at`` and every
    driving candidate: gamma_t(L) read from ``presence``, not the event log."""
    fresh = simulate(traj.gamma0, traj.kernel, traj.death_rate, traj.horizon, traj.seed)
    accepted = {}
    for ev in fresh.events:
        if ev.kind == "birth":
            accepted[(ev.time, ev.position)] = ev
    m = traj.death_rate

    gen = rng.keyed_generator(1, rng.SAMPLING)
    times = np.linspace(0.0, traj.horizon, 7)[1:]
    side = traj.window.side
    dim = traj.window.dim
    boxes = [traj.window.box]
    for _ in range(5):
        lo = side * gen.random(dim) * 0.5
        hi = np.minimum(lo + side * 0.5 * gen.random(dim), side)
        boxes.append(Box(tuple(float(v) for v in lo), tuple(float(v) for v in hi)))

    for t in times:
        cfg = config_at(traj, t)
        for box in boxes:
            direct = 0
            for dp in traj.driving:
                if (dp.s, dp.x) not in accepted:
                    continue
                if dp.s <= t and in_box(box, dp.x) and dp.r > m * (t - dp.s):
                    direct += 1
            for pid, pos in traj.gamma0.items():
                if in_box(box, pos) and traj.initial_lifetimes[pid] > m * t:
                    direct += 1
            if direct != count_in(cfg, box):
                return False
    return True


def counting_identity_path(case):
    if case == "pure_death":
        window = Window(4.0, 2, "open")
        gen = rng.keyed_generator(2, rng.SAMPLING)
        gamma0 = Configuration.from_positions(window, 4.0 * gen.random((30, 2)))
        return simulate(gamma0, ConstantBirthKernel(0.0), 1.0, 1.0, seed=4)
    if case == "constant":
        window = Window(3.0, 2, "periodic")
        return simulate(Configuration(window), ConstantBirthKernel(2.0), 0.5, 1.0, seed=10)
    return glauber_run(seed=case, m=1.0, z=2.0, T=1.5)


def death_moved_to_horizon(traj):
    """The path with its first death before T/2 moved to T in the event log.
    The phantom table's lifetimes (read by ``present_at``) and ``config_at``'s
    log replay both follow the log: the point then outlives its survival
    mark at the checks in [t, T)."""
    ev = next(ev for ev in traj.events if ev.kind == "death" and ev.time < traj.horizon / 2)
    events = [e for e in traj.events if e is not ev]
    events.append(Event(traj.horizon, "death", ev.id, ev.position))
    moved = dataclasses.replace(traj, events=events)
    assert moved.presence[ev.id] == (traj.presence[ev.id][0], traj.horizon)
    return moved


class TestVerification:
    def test_domination_pure_death(self):
        window = Window(4.0, 2, "open")
        gen = rng.keyed_generator(2, rng.SAMPLING)
        gamma0 = Configuration.from_positions(window, 4.0 * gen.random((30, 2)))
        traj = simulate(gamma0, ConstantBirthKernel(0.0), 1.0, 1.0, seed=4)
        report = verify_domination(traj)
        assert report.passed and report.replay_consistent

    def test_domination_constant_kernel_accepts_all(self):
        window = Window(3.0, 2, "periodic")
        traj = simulate(Configuration(window), ConstantBirthKernel(2.0), 0.0, 1.0, seed=10)
        assert len(birth_events(traj)) == len(traj.driving)
        assert verify_domination(traj).passed

    @pytest.mark.parametrize("seed", range(12))
    def test_domination_glauber_runs(self, seed):
        traj = glauber_run(seed=seed, m=1.0, z=2.0)
        report = verify_domination(traj)
        assert report.passed, report.violations

    @pytest.mark.parametrize("seed", range(6))
    def test_counting_identity_replay(self, seed):
        traj = glauber_run(seed=seed, m=1.0, z=2.0, T=1.5)
        assert verify_counting_identity(traj)

    @pytest.mark.parametrize("case", [*range(6), "pure_death", "constant"])
    def test_counting_identity_equals_reference_loop(self, case):
        traj = counting_identity_path(case)
        assert reference_counting_identity(traj)
        assert verify_counting_identity(traj)
        moved = death_moved_to_horizon(traj)
        assert not reference_counting_identity(moved)
        assert not verify_counting_identity(moved)

    def test_domination_flags_a_dropped_candidate(self):
        traj = glauber_run(seed=3, m=1.0, z=2.0)
        ev = birth_events(traj)[0]
        driving = [dp for dp in traj.driving if (dp.s, dp.x) != (ev.time, ev.position)]
        report = verify_domination(dataclasses.replace(traj, driving=driving))
        assert not report.passed and report.replay_consistent
        assert {"kind": "missing_candidate", "id": ev.id, "t": ev.time} in report.violations
        # the checks that counted the dropped candidate lose one unit of margin
        base = verify_domination(traj).min_margin
        assert report.min_margin in (base - 1, base)

    @staticmethod
    def hand_built_domination(rejected_at=None):
        """Three candidates, all born, two births with no candidate (at
        (1, 1) and (3, 3)) and two initial points; a fourth, rejected
        candidate sits at ``rejected_at`` from t = 0.05 when given."""
        window = Window(4.0, 2, "open")
        gamma0 = Configuration(window, [(0, [0.5, 0.5]), (1, [3.5, 0.5])])
        xs = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
        driving = [DrivingPoint(0.1 * (k + 1), x, 0.5, 1.0, k) for k, x in enumerate(xs)]
        events = [Event(dp.s, "birth", 2 + dp.index, dp.x) for dp in driving]
        events += [Event(0.4, "birth", 5, (1.0, 1.0)), Event(0.5, "birth", 6, (3.0, 3.0))]
        if rejected_at is not None:
            driving.append(DrivingPoint(0.05, rejected_at, 0.9, 1.0, 3))
        return Trajectory(window, gamma0, ConstantBirthKernel(1.0), 0.0, 1.0, 0, events,
                          {0: 1.0, 1: 1.0}, driving)

    def test_domination_margin_of_a_hand_built_path(self):
        # the window box at t = 1 holds both uncovered births: margin -2
        report = verify_domination(self.hand_built_domination())
        assert report.checks == 64 and report.min_margin == -2
        assert not report.passed
        # a rejected candidate at (1, 1) covers that birth wherever it counts
        report = verify_domination(self.hand_built_domination(rejected_at=(1.0, 1.0)))
        assert report.min_margin == -1
        # every candidate born and nothing else: the bound is met with equality
        window = Window(3.0, 2, "periodic")
        traj = simulate(Configuration(window), ConstantBirthKernel(2.0), 0.0, 1.0, seed=10)
        assert verify_domination(traj).min_margin == 0

    def test_domination_margin_counts_rejected_candidates(self):
        traj = glauber_run(seed=3, m=1.0, z=2.0)
        report = verify_domination(traj)
        rejected = len(traj.driving) - len(birth_events(traj))
        assert report.passed and 0 <= report.min_margin <= rejected

    def test_replay_reproduces_event_log(self):
        traj = glauber_run(seed=14, m=0.7, z=2.5)
        report = verify_domination(traj)
        assert report.replay_consistent and report.passed

    def test_replay_catches_a_later_death(self):
        # negative control: the stored log has its last death moved after
        # every other event; the path stays valid, so only the replay sees it
        traj = glauber_run(seed=14, m=0.7, z=2.5)
        events = list(traj.events)
        k = max(i for i, ev in enumerate(events) if ev.kind == "death")
        moved = events.pop(k)
        events.append(dataclasses.replace(
            moved, time=0.5 * (traj.events[-1].time + traj.horizon)))
        report = verify_domination(dataclasses.replace(traj, events=events))
        assert not report.replay_consistent and not report.passed
        assert report.violations == []

    def test_event_count_matches_brute_filter(self):
        traj = glauber_run(seed=15, m=1.0, z=3.0, T=2.0)
        gen = rng.keyed_generator(5, rng.SAMPLING)
        for _ in range(20):
            lo = 5.0 * gen.random(2) * 0.6
            hi = np.minimum(lo + 5.0 * gen.random(2) * 0.6, 5.0)
            box = Box(tuple(float(v) for v in lo), tuple(float(v) for v in hi))
            t0 = float(2.0 * gen.random()) * 0.5
            t1 = t0 + float(2.0 * gen.random()) * 0.5
            want = sum(
                1 for ev in traj.events
                if t0 <= ev.time <= t1 and in_box(box, ev.position)
            )
            assert event_count_in(traj, box, t0, t1) == want
        assert event_count_in(traj, traj.window.box, 0.0, traj.horizon) == len(traj.events)

    def test_zero_length_interval(self):
        traj = glauber_run(seed=16)
        assert event_count_in(traj, traj.window.box, 0.3, 0.3) == 0

    def test_thinning_chi_square_over_disjoint_boxes(self):
        # constant kernel: accepted births are Poisson; cell counts over a
        # partition of the window are iid Poisson across replicas
        window = Window(2.0, 2, "periodic")
        kernel = ConstantBirthKernel(2.5)
        cells = [
            Box((i * 1.0, j * 1.0), ((i + 1) * 1.0, (j + 1) * 1.0))
            for i in range(2) for j in range(2)
        ]
        counts = []
        for s in range(1000):
            traj = simulate(Configuration(window), kernel, 0.0, 1.0, seed=s)
            final = config_at(traj, 1.0)
            counts.extend(count_in(final, c) for c in cells)
        counts = np.array(counts)
        lam = 2.5  # per unit cell over T=1
        kmax = int(stats.poisson.ppf(0.999, lam)) + 1
        observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        probs = stats.poisson.pmf(np.arange(kmax + 1), lam)
        probs[kmax] = 1.0 - probs[:kmax].sum()
        res = stats.chisquare(observed, probs * len(counts))
        assert res.pvalue > 0.01


class TestRestrictAndLog:
    def test_restrict_half_horizon(self):
        traj = glauber_run(seed=31, m=1.0, T=2.0, z=2.0)
        half = restrict(traj, 1.0)
        assert all(ev.time <= 1.0 for ev in half.events)
        assert half.events == [ev for ev in traj.events if ev.time <= 1.0]
        for t in (0.0, 0.25, 0.7, 1.0):
            assert config_at(half, t).ids() == config_at(traj, t).ids()
        assert set(half.phantom_ids()) <= set(traj.phantom_ids())

    def test_event_log_round_trip(self, tmp_path):
        traj = glauber_run(seed=18, m=1.0, z=2.0)
        path = tmp_path / "events.jsonl"
        write_event_log(traj, path)
        header, events = read_event_log(path)
        assert header["seed"] == traj.seed
        assert header["T"] == traj.horizon
        assert header["kernel"]["variant"] == "glauber"
        assert events == traj.events

    def test_event_log_bytes_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_event_log(glauber_run(seed=19), a)
        write_event_log(glauber_run(seed=19), b)
        assert a.read_bytes() == b.read_bytes()


def same_time_trajectory():
    """Hand-built path with a death and a birth at 0.5, and a particle born
    and dying at 0.75."""
    window = Window(4.0, 2, "open")
    gamma0 = Configuration(window, [(0, [1.0, 1.0]), (1, [3.0, 3.0])])
    events = [
        Event(0.25, "birth", 2, (2.0, 2.0)),
        Event(0.5, "death", 0, (1.0, 1.0)),
        Event(0.5, "birth", 3, (0.5, 3.5)),
        Event(0.75, "birth", 4, (3.5, 0.5)),
        Event(0.75, "death", 4, (3.5, 0.5)),
    ]
    return Trajectory(
        window=window, gamma0=gamma0, kernel=ConstantBirthKernel(1.0),
        death_rate=1.0, horizon=1.0, seed=0, events=events,
        initial_lifetimes={0: 0.5, 1: 2.0},
    )


class TestDerivedPresence:
    def test_same_time_trajectory(self):
        traj = same_time_trajectory()
        assert traj.presence == {0: (0.0, 0.5), 1: (0.0, None), 2: (0.25, None),
                                 3: (0.5, None), 4: (0.75, 0.75)}
        assert traj.phantom_ids() == [0, 1, 2, 3, 4]
        assert traj.phantom_xy.tolist() == [[1.0, 1.0], [3.0, 3.0], [2.0, 2.0],
                                            [0.5, 3.5], [3.5, 0.5]]

    @pytest.mark.parametrize("name", ["presence", "phantom_xy"])
    def test_not_a_constructor_input(self, name):
        traj = same_time_trajectory()
        with pytest.raises(TypeError):
            Trajectory(traj.window, traj.gamma0, traj.kernel, traj.death_rate, traj.horizon,
                       traj.seed, traj.events, **{name: {}})

    @pytest.mark.parametrize("event", [
        Event(0.8, "death", 7, (1.0, 1.0)),  # never present
        Event(0.8, "death", 0, (1.0, 1.0)),  # dies twice
        Event(0.8, "birth", 1, (3.0, 3.0)),  # an initial id born
        Event(0.9, "birth", 4, (3.5, 0.5)),  # a dead id born again
        Event(0.9, "move", 1, (3.0, 3.0)),
        Event(0.9, "birth", 5, (3.0, 2.0, 1.0)),  # a 3-d position in a 2-d window
    ])
    def test_malformed_log_rejected(self, event):
        traj = same_time_trajectory()
        with pytest.raises(ValueError, match=f"{event.kind} of id {event.id} at t={event.time}"):
            dataclasses.replace(traj, events=traj.events + [event])

    @pytest.mark.parametrize("event", [
        Event(math.nan, "birth", 5, (3.0, 2.0)),
        Event(1.5, "birth", 5, (3.0, 2.0)),  # after the horizon T = 1
        Event(math.nan, "death", 1, (3.0, 3.0)),  # a gamma0 point, as if never dead
        Event(-0.25, "death", 1, (3.0, 3.0)),
    ], ids=["nan_birth", "birth_after_T", "nan_gamma0_death", "negative_death"])
    def test_event_time_outside_horizon_rejected(self, event):
        traj = same_time_trajectory()
        with pytest.raises(ValueError, match=f"{event.kind} of id {event.id} at "
                                             rf"t={event.time} lies outside \[0, T\] "
                                             "for the horizon T=1.0"):
            dataclasses.replace(traj, events=traj.events + [event])
        on_the_bounds = [Event(0.0, "death", 1, (3.0, 3.0)), Event(1.0, "birth", 5, (3.0, 2.0))]
        assert dataclasses.replace(traj, events=on_the_bounds).deaths[1] == 0.0

    def test_unordered_log_rejected(self):
        traj = same_time_trajectory()
        e = traj.events
        swapped = dataclasses.replace(traj, events=[e[0], e[2], e[1], e[3], e[4]])
        assert swapped.presence == traj.presence  # equal times may come in any order
        events = [e[3], e[0], e[1], e[2], e[4]]
        with pytest.raises(ValueError, match="birth of id 2 at t=0.25 comes after an event "
                                             "at t=0.75"):
            dataclasses.replace(traj, events=events)

    @pytest.mark.parametrize("seed", [3, 8, 21])
    def test_restrict_clips_presence(self, seed):
        # deaths after h are undone, ids born after h are dropped
        traj = glauber_run(seed, m=1.0, z=2.0, T=1.5)
        deaths = [ev.time for ev in traj.events if ev.kind == "death"]
        for h in (0.75, deaths[len(deaths) // 2]):
            want = {pid: (birth, death if death is not None and death <= h else None)
                    for pid, (birth, death) in traj.presence.items() if birth <= h}
            short = restrict(traj, h)
            assert short.presence == want
            assert short.phantom_ids() == sorted(want)
            rows = np.searchsorted(traj.phantom_ids(), sorted(want))
            assert short.phantom_xy.tolist() == traj.phantom_xy[rows].tolist()

    def test_replace_derives_a_fresh_phantom(self):
        traj = glauber_run(seed=4, m=1.0, z=2.0)
        assert traj.phantom_ids() == sorted(phantom_positions(traj))
        cut = [ev for ev in traj.events if ev.time <= 0.5]
        short = dataclasses.replace(traj, events=cut)
        want = sorted(set(traj.gamma0.ids()) | {ev.id for ev in cut})
        assert short.phantom_ids() == sorted(phantom_positions(short)) == want
        assert len(short.phantom_xy) == len(want) < len(traj.phantom_ids())


class TestPhantomTable:
    """The table ``Trajectory`` derives once: row k is the k-th smallest id."""

    @staticmethod
    def assert_table_matches(traj):
        ids = traj.phantom_ids()
        positions = phantom_positions(traj)
        assert ids == sorted(traj.presence) == sorted(positions)
        window = traj.window
        assert traj.phantom_xy.shape == (len(ids), window.dim)
        assert traj.phantom_xy.tolist() == [
            window.wrap(np.asarray(positions[pid], dtype=float)).tolist() for pid in ids]
        assert traj.births.tolist() == [traj.presence[pid][0] for pid in ids]
        assert traj.deaths.tolist() == [math.inf if traj.presence[pid][1] is None
                                        else traj.presence[pid][1] for pid in ids]
        for t in [0.0] + [ev.time for ev in traj.events] + [traj.horizon]:
            assert traj.present_ids(t) == present_ids(traj, t), t

    @pytest.mark.parametrize("seed", [0, 3])
    def test_glauber_run(self, seed):
        self.assert_table_matches(glauber_run(seed, m=1.0, z=2.0, T=1.5))

    def test_open_establishment_run(self):
        # the open golden config: establishment kernel, gaussian damping
        window = Window(4.0, 2, "open")
        kernel = EstablishmentBirthKernel(step_potential(1.0, 1.2), step_potential(0.1, 0.6),
                                          gaussian_potential(0.4, 0.5, 1.0), bound=40.0)
        traj = simulate(poisson_configuration(window, 1.0, seed=11), kernel, 0.7, 0.75, 11)
        assert any(ev.kind == "birth" for ev in traj.events)
        self.assert_table_matches(traj)

    def test_same_time_trajectory(self):
        traj = same_time_trajectory()
        self.assert_table_matches(traj)

    def test_restricted_trajectory(self):
        traj = glauber_run(seed=31, m=1.0, T=2.0, z=2.0)
        short = restrict(traj, 1.0)
        self.assert_table_matches(short)
        assert len(short.phantom_ids()) < len(traj.phantom_ids())

    def test_empty_phantom(self):
        window = Window(3.0, 2, "periodic")
        traj = simulate(Configuration(window, []), ConstantBirthKernel(0.0), 1.0, 1.0, seed=0)
        assert traj.phantom_ids() == [] and traj.phantom_xy.shape == (0, 2)
        self.assert_table_matches(traj)


class TestPresenceSweep:
    """``present_at`` against the log replay of ``oracles.present_ids``."""

    @staticmethod
    def assert_masks_match(traj, times):
        ids = traj.phantom_ids()
        masks = traj.present_at(np.asarray(times)[:, None])
        assert masks.shape == (len(times), len(ids))
        for t, mask in zip(times, masks):
            assert traj.present_at(t).tolist() == mask.tolist(), t
            assert [pid for pid, on in zip(ids, mask) if on] == present_ids(traj, t), t

    @staticmethod
    def assert_left_limits_match(traj, dt=1 / 64):
        # the grid holds every event time, so the state at the grid point
        # just before an event time t is gamma_{t-}
        grid = build_time_grid(traj.horizon, dt, [ev.time for ev in traj.events])
        times = sorted({ev.time for ev in traj.events})
        before = [float(grid[int(np.searchsorted(grid, t)) - 1]) for t in times]
        ids = traj.phantom_ids()
        for t, mask in zip(times, traj.present_at(np.array(before)[:, None])):
            assert [pid for pid, on in zip(ids, mask) if on] == present_ids(traj, t, "left"), t

    @staticmethod
    def grid_and_segment_starts(traj, dt=1 / 64):
        grid = build_time_grid(traj.horizon, dt, [ev.time for ev in traj.events])
        starts = {0.0, traj.horizon} | {ev.time for ev in traj.events}
        return sorted(set(float(t) for t in grid) | starts)

    @pytest.mark.parametrize("seed", [0, 3, 8, 21])
    def test_matches_present_ids_on_grid_and_segment_starts(self, seed):
        traj = glauber_run(seed, m=1.0, z=2.0, T=1.5)
        times = self.grid_and_segment_starts(traj)
        assert times[0] == 0.0 and times[-1] == traj.horizon
        self.assert_masks_match(traj, times)
        self.assert_left_limits_match(traj)

    def test_restricted_trajectory(self):
        traj = restrict(glauber_run(seed=31, m=1.0, T=2.0, z=2.0), 1.0)
        self.assert_masks_match(traj, self.grid_and_segment_starts(traj))
        self.assert_left_limits_match(traj)

    def test_repeated_times_and_pure_death(self):
        window = Window(5.0, 2, "open")
        gamma0 = poisson_configuration(window, 2.0, seed=4)
        traj = simulate(gamma0, ConstantBirthKernel(0.0), 2.0, 1.0, seed=4)
        times = sorted([0.0, 0.0, 1.0, 1.0] + [ev.time for ev in traj.events] * 2)
        self.assert_masks_match(traj, times)
        self.assert_left_limits_match(traj)

    def test_birth_and_death_at_the_same_time(self):
        traj = same_time_trajectory()
        times = [0.0, 0.25, 0.4, 0.5, 0.5, 0.6, 0.75, 0.9, 1.0]
        self.assert_masks_match(traj, times)
        assert traj.present_at(0.5).tolist() == [False, True, True, True, False]
        assert traj.present_at(0.75).tolist() == [False, True, True, True, False]
        self.assert_left_limits_match(traj)
        self.assert_left_limits_match(traj, dt=0.25)

    def test_empty_phantom(self):
        window = Window(3.0, 2, "periodic")
        traj = simulate(Configuration(window, []), ConstantBirthKernel(0.0), 1.0, 1.0, seed=0)
        assert traj.present_at(np.array([0.0, 0.5, 1.0])[:, None]).shape == (3, 0)
        assert traj.present_ids(0.5) == []

    def test_present_ids_rejects_a_time_outside_the_horizon(self):
        traj = glauber_run(seed=2)
        with pytest.raises(ValueError, match="outside"):
            traj.present_ids(traj.horizon + 0.5)
        with pytest.raises(ValueError, match="outside"):
            traj.present_ids(-0.5)
