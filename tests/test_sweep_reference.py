"""The pair-list thinning sweep against the point-by-point reference sweep.

``simulate`` reads each rate from its block's precomputed ``neighbor_pairs``
list, filtered by a present mask; ``oracles.reference_simulate`` keeps gamma as a
mutable point set and queries it by a direct scan.  Both must give the same
event log, initial lifetimes and driving process, bit for bit, over every
kernel variant, dimension and boundary, and raise the same errors.  The
rates themselves are compared too: a rate that differs in its last bit
(neighbors summed in another order) almost never flips a thinning decision.
"""

import numpy as np
import pytest

import oracles
from bdspin import birth_death
from bdspin.birth_death import (BoundViolationError, ConstantBirthKernel,
                                EstablishmentBirthKernel, FecundityBirthKernel,
                                GlauberBirthKernel, gaussian_potential, sample_driving_process,
                                simulate, step_potential)
from bdspin.geometry import Configuration, Window, poisson_configuration
from oracles import config_at, neighbor_count, present_ids, reference_simulate

GLAUBER_STEP = GlauberBirthKernel(2.0, step_potential(0.5, 1.0))
# a wide gaussian on a dense window: a candidate sees 8 or more neighbors,
# so numpy's unrolled pairwise sum adds the potential values
GLAUBER_GAUSS = GlauberBirthKernel(3.0, gaussian_potential(0.3, 0.8, 1.5))
ESTABLISHMENT = EstablishmentBirthKernel(step_potential(1.0, 1.2), step_potential(0.1, 0.6),
                                         gaussian_potential(0.4, 0.5, 1.0), 40.0)
FECUNDITY = FecundityBirthKernel(step_potential(0.5, 1.0), step_potential(0.2, 0.7),
                                 gaussian_potential(0.3, 0.6, 1.2), 40.0)
CONSTANT = ConstantBirthKernel(1.5)
WIDE = GlauberBirthKernel(8.0, step_potential(0.3, 1.0))

# name: (kernel, side, dim, boundary, gamma0 intensity, death rate, horizon)
CASES = {
    "glauber_step_2d_periodic": (GLAUBER_STEP, 5.0, 2, "periodic", 0.8, 1.0, 1.0),
    "glauber_step_2d_open": (GLAUBER_STEP, 5.0, 2, "open", 0.8, 1.0, 1.0),
    "glauber_gauss_2d_periodic": (GLAUBER_GAUSS, 4.0, 2, "periodic", 2.0, 0.5, 0.5),
    "glauber_gauss_2d_open": (GLAUBER_GAUSS, 4.0, 2, "open", 2.0, 0.5, 0.5),
    "glauber_1d_periodic": (GLAUBER_STEP, 12.0, 1, "periodic", 1.0, 1.0, 1.0),
    "glauber_1d_open": (GLAUBER_STEP, 12.0, 1, "open", 1.0, 1.0, 1.0),
    "glauber_3d_periodic": (GLAUBER_STEP, 3.5, 3, "periodic", 0.5, 1.0, 0.6),
    "glauber_3d_open": (GLAUBER_STEP, 3.5, 3, "open", 0.5, 1.0, 0.6),
    # a range wider than the window: every pair is a candidate pair
    "glauber_wide_range_periodic": (WIDE, 0.8, 2, "periodic", 4.0, 1.0, 2.0),
    "glauber_wide_range_open": (WIDE, 0.8, 2, "open", 4.0, 1.0, 2.0),
    "establishment_2d_open": (ESTABLISHMENT, 4.0, 2, "open", 1.0, 0.7, 0.4),
    "establishment_3d_periodic": (ESTABLISHMENT, 2.5, 3, "periodic", 0.8, 0.7, 0.1),
    "fecundity_2d_periodic": (FECUNDITY, 4.0, 2, "periodic", 1.0, 1.0, 0.3),
    "fecundity_1d_open": (FECUNDITY, 10.0, 1, "open", 1.0, 1.0, 0.5),
    "constant_2d_periodic": (CONSTANT, 4.0, 2, "periodic", 0.5, 1.0, 1.0),
    "no_deaths": (GLAUBER_STEP, 5.0, 2, "periodic", 0.8, 0.0, 1.0),
    "empty_gamma0": (GLAUBER_STEP, 5.0, 2, "periodic", 0.0, 1.0, 1.0),
    # 600 candidates against about 25 present points: several blocks
    "long_horizon": (GLAUBER_STEP, 5.0, 2, "periodic", 0.8, 1.0, 12.0),
}


def case_gamma0(name, seed):
    kernel, side, dim, boundary, intensity, m, horizon = CASES[name]
    return poisson_configuration(Window(side, dim, boundary), intensity, seed)


def record_rates(monkeypatch, kernel):
    """Lists that fill with every rate ``simulate`` and the reference sweep
    evaluate, in sweep order."""
    got, want = [], []
    evaluate, reference_evaluate = type(kernel).evaluate, oracles.reference_evaluate

    def recorded(self, x, row, near):
        got.append(evaluate(self, x, row, near))
        return got[-1]

    def recorded_reference(kernel, x, config):
        want.append(reference_evaluate(kernel, x, config))
        return want[-1]

    monkeypatch.setattr(type(kernel), "evaluate", recorded)
    monkeypatch.setattr(oracles, "reference_evaluate", recorded_reference)
    return got, want


def assert_same_run(monkeypatch, gamma0, kernel, m, horizon, seed):
    got_rates, want_rates = record_rates(monkeypatch, kernel)
    got = simulate(gamma0, kernel, m, horizon, seed)
    want = reference_simulate(gamma0, kernel, m, horizon, seed)
    assert got.events == want.events
    assert got.initial_lifetimes == want.initial_lifetimes
    assert got.driving == want.driving
    assert len(got_rates) == len(got.driving)
    assert np.array(got_rates).tobytes() == np.array(want_rates).tobytes()
    return got


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", list(CASES))
def test_events_equal_reference(monkeypatch, name, seed):
    kernel, side, dim, boundary, intensity, m, horizon = CASES[name]
    traj = assert_same_run(monkeypatch, case_gamma0(name, seed), kernel, m, horizon, seed)
    births = sum(ev.kind == "birth" for ev in traj.events)
    assert births > 0
    if kernel is not CONSTANT:
        assert births < len(traj.driving)  # the rate thinned some candidates


@pytest.mark.parametrize("name", list(CASES))
def test_events_equal_reference_in_small_blocks(monkeypatch, name):
    """Blocks no larger than the present count: a block boundary falls
    between almost every pair of births and deaths."""
    kernel, side, dim, boundary, intensity, m, horizon = CASES[name]
    monkeypatch.setattr(birth_death, "MIN_BLOCK", 1)
    assert_same_run(monkeypatch, case_gamma0(name, 3), kernel, m, horizon, 3)


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_gaussian_case_sums_eight_or_more_neighbors(boundary):
    traj = simulate(case_gamma0(f"glauber_gauss_2d_{boundary}", 1), GLAUBER_GAUSS, 0.5, 0.5, 1)
    half = config_at(traj, 0.25)
    seen = [neighbor_count(half, dp.x, GLAUBER_GAUSS.phi.range) for dp in traj.driving]
    assert np.median(seen) >= 8


@pytest.mark.parametrize("seed", [3, 4])
def test_non_contiguous_gamma0_ids(monkeypatch, seed):
    window = Window(5.0, 2, "periodic")
    base = poisson_configuration(window, 0.8, seed)
    gamma0 = Configuration(window, [(7 * pid + 3, pos) for pid, pos in base.items()])
    assert gamma0.ids()[:3] == [3, 10, 17]
    traj = assert_same_run(monkeypatch, gamma0, GLAUBER_STEP, 1.0, 1.0, seed)
    assert min(ev.id for ev in traj.events if ev.kind == "birth") == max(gamma0.ids()) + 1


def test_fecundity_over_bound_raises_the_same_witness():
    # the declared b_max 0.5 lies below the rate: b = 0.517 is reached
    kernel = FecundityBirthKernel(step_potential(1.0, 1.0), step_potential(0.2, 1.0),
                                  step_potential(0.5, 1.0), 0.5)
    gamma0 = poisson_configuration(Window(4.0, 2, "periodic"), 0.8, 42)
    with pytest.raises(BoundViolationError) as got:
        simulate(gamma0, kernel, 1.0, 0.5, 42)
    with pytest.raises(BoundViolationError) as want:
        reference_simulate(gamma0, kernel, 1.0, 0.5, 42)
    assert str(got.value) == str(want.value)
    assert got.value.witness == want.value.witness
    assert list(got.value.witness) == ["x", "value", "bound", "t"]
    assert got.value.witness["bound"] == 0.5 < got.value.witness["value"]


@pytest.mark.parametrize("kernel", [CONSTANT, GLAUBER_STEP])
def test_birth_onto_a_present_point_raises(kernel):
    window = Window(4.0, 2, "periodic")
    # the first candidate sees only the point at its own position, which no
    # rate counts, so its rate is b_max and it is accepted
    first = sample_driving_process(window, 1.0, kernel.b_max, 5)[0]
    gamma0 = Configuration(window, [(4, first.x)])
    with pytest.raises(ValueError) as got:
        simulate(gamma0, kernel, 0.0, 1.0, 5)
    with pytest.raises(ValueError) as want:
        reference_simulate(gamma0, kernel, 0.0, 1.0, 5)
    assert str(got.value) == str(want.value) == "points 4 and 5 have identical positions"


@pytest.mark.parametrize("kernel,horizon", [(GLAUBER_STEP, 6.0), (FECUNDITY, 0.5),
                                            (CONSTANT, 6.0)])
def test_pair_lists_follow_the_present_count(monkeypatch, kernel, horizon):
    """One driving sample per sweep, and one pair list per block: the points
    present when the block starts, then the next max(that count, MIN_BLOCK)
    candidates.  The lists stay as large as the configuration however long
    the horizon; the constant kernel builds none."""
    calls = {"pairs": [], "driving": 0}
    real_pairs, real_driving = birth_death.neighbor_pairs, birth_death.sample_driving_process

    def pairs(window, positions, radius):
        calls["pairs"].append((len(positions), radius))
        return real_pairs(window, positions, radius)

    def driving(*args, **kwargs):
        calls["driving"] += 1
        return real_driving(*args, **kwargs)

    monkeypatch.setattr(birth_death, "neighbor_pairs", pairs)
    monkeypatch.setattr(birth_death, "sample_driving_process", driving)
    monkeypatch.setattr(birth_death, "MIN_BLOCK", 16)
    gamma0 = poisson_configuration(Window(5.0, 2, "periodic"), 0.8, 6)
    traj = simulate(gamma0, kernel, 1.0, horizon, 6)
    assert calls["driving"] == 1
    want, start = [], 0
    while kernel is not CONSTANT and start < len(traj.driving):
        held = len(present_ids(traj, traj.driving[start].s, "left"))
        size = min(max(held, 16), len(traj.driving) - start)
        want.append((held + size, kernel.interaction_range))
        start += size
    assert calls["pairs"] == want
    assert len(want) > 5 or kernel is CONSTANT
    assert max(want, default=(0, 0))[0] < len(traj.driving) / 4


def test_equal_times_put_the_candidate_first_and_deaths_in_id_order(monkeypatch):
    """Points 0 and 1 both die at exactly t = 0.5 (0.1 + 0.4 and 0.25 + 0.25),
    and a candidate arrives at 0.5.  The candidate sees gamma_{0.5-}, both
    points, so its rate is 2 exp(-1) < 1.2 and it is rejected (with the
    deaths applied first it would see b = 2 and be born); the two deaths
    then come in id order."""
    window = Window(4.0, 2, "periodic")
    driving = [birth_death.DrivingPoint(s, x, u, r, k) for k, (s, x, u, r) in enumerate([
        (0.1, (1.0, 1.0), 0.5, 0.4),
        (0.25, (1.5, 1.0), 0.5, 0.25),
        (0.5, (1.2, 1.2), 1.2, 1.0),
    ])]
    monkeypatch.setattr(birth_death, "sample_driving_process", lambda *args: list(driving))
    gamma0 = Configuration(window, [])
    got = simulate(gamma0, GLAUBER_STEP, 1.0, 1.0, 0)
    want = reference_simulate(gamma0, GLAUBER_STEP, 1.0, 1.0, 0)
    assert got.events == want.events
    assert [(ev.time, ev.kind, ev.id) for ev in got.events] == [
        (0.1, "birth", 0), (0.25, "birth", 1), (0.5, "death", 0), (0.5, "death", 1)]
