"""Geometry: neighbor queries against brute-force scans, functionals, serialization."""

import json
import math

import numpy as np
import pytest

from bdspin import rng
from bdspin.geometry import (
    Box,
    Configuration,
    Window,
    cell_size_above,
    neighbor_pairs,
    poisson_configuration,
)
from oracles import TemperedWeight, log_bound_constant, tempered_pairing, weighted_tail_sum


def brute_force_within(window, positions, x, radius):
    """Oracle: ids within the closed ball by direct O(n) scan."""
    hits = []
    for pid, pos in positions.items():
        if window.distance(x, pos) <= radius:
            hits.append(pid)
    return sorted(hits)


def random_config(window, n, seed, cell_size=None):
    gen = rng.keyed_generator(seed, rng.SAMPLING)
    pts = window.side * gen.random((n, window.dim))
    return Configuration.from_positions(window, pts, cell_size=cell_size), gen


def pairs_oracle(config, radius):
    """(src, dst, dist) from ``neighbors_within`` per point, rows as indices
    into the ascending id order."""
    ids = config.ids()
    index_of = {pid: k for k, pid in enumerate(ids)}
    rows = [(index_of[pid], index_of[qid], d)
            for pid in ids for qid, d in config.neighbors_within(pid, radius)]
    src = np.array([r[0] for r in rows], dtype=np.intp)
    dst = np.array([r[1] for r in rows], dtype=np.intp)
    dist = np.array([r[2] for r in rows], dtype=float)
    return src, dst, dist


def assert_pairs_match(config, radius):
    got = neighbor_pairs(config.window, config.positions_array(), radius)
    want = pairs_oracle(config, radius)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)
    return got


class TestNeighborPairs:
    # (side, radius): 7 cells per axis, exactly 3, 2 (every pair scanned),
    # and a radius wider than the window
    @pytest.mark.parametrize("side,radius", [(8.0, 1.0), (4.0, 1.0), (2.5, 1.0),
                                             (1.0, 1.5)])
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_neighbors_within(self, dim, boundary, side, radius):
        window = Window(side, dim, boundary)
        for seed in range(2):
            config, _ = random_config(window, 40, seed)
            assert_pairs_match(config, radius)

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cell_boundaries_and_seam(self, dim, boundary):
        side, radius = 8.0, 1.0
        window = Window(side, dim, boundary)
        ncells = int(side / cell_size_above(radius))
        cell = side / ncells
        pts = [[k * cell] + [0.5 * side] * (dim - 1) for k in range(ncells)]
        # a pair across the periodic seam, and one along an inner boundary
        pts.append([0.125] + [0.0] * (dim - 1))
        pts.append([side - 0.25] + [0.0] * (dim - 1))
        if dim > 1:
            pts.append([3 * cell] + [0.5 * side + cell] * (dim - 1))
        gen = rng.keyed_generator(dim, rng.SAMPLING)
        pts.extend(side * gen.random((30, dim)))
        config = Configuration.from_positions(window, pts)
        assert_pairs_match(config, radius)

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_pair_at_exactly_radius_is_kept(self, boundary):
        window = Window(8.0, 2, boundary)
        # 0-1 lie exactly 1.0 apart, 2-3 lie 1 + 2^-40 apart
        config = Configuration(window, [(0, [0.5, 0.5]), (1, [1.5, 0.5]),
                                        (2, [5.0, 5.0]), (3, [5.0, 6.0 + 2.0**-40])])
        src, dst, dist = assert_pairs_match(config, 1.0)
        assert list(zip(src, dst)) == [(0, 1), (1, 0)]
        assert list(dist) == [1.0, 1.0]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_empty_and_single_point(self, dim):
        window = Window(5.0, dim, "periodic")
        for config in (Configuration(window), Configuration(window, [(7, [1.0] * dim)])):
            src, dst, dist = assert_pairs_match(config, 1.0)
            assert src.size == dst.size == dist.size == 0
            assert src.dtype == dst.dtype == np.intp and dist.dtype == float

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError, match="radius must be positive"):
            neighbor_pairs(Window(5.0, 2), np.zeros((1, 2)), 0.0)


class TestNeighborQueries:
    def test_empty_configuration(self):
        window = Window(5.0, 2, "open")
        config = Configuration(window)
        assert config.neighbor_count([1.0, 1.0], 1.0) == 0

    def test_closed_ball_includes_boundary(self):
        window = Window(5.0, 2, "open")
        config = Configuration(window, [(0, [0.0, 0.0]), (1, [0.5, 0.0])])
        assert config.neighbor_count([0.0, 0.0], 1.0) == 2
        # two points at exactly distance rho are each other's neighbors
        config2 = Configuration(window, [(0, [1.0, 1.0]), (1, [2.0, 1.0])])
        assert config2.neighbors_within(0, 1.0) == [(1, 1.0)]
        assert config2.neighbors_within(1, 1.0) == [(0, 1.0)]

    def test_single_point_has_no_neighbors(self):
        window = Window(5.0, 2, "periodic")
        config = Configuration(window, [(7, [2.0, 2.0])])
        assert config.neighbors_within(7, 1.0) == []

    def test_unknown_point_raises(self):
        window = Window(5.0, 2, "open")
        config = Configuration(window, [(0, [1.0, 1.0])])
        with pytest.raises(KeyError, match="unknown point"):
            config.neighbors_within(3, 1.0)

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_index_matches_brute_force(self, boundary, seed):
        window = Window(10.0, 2, boundary)
        config, gen = random_config(window, 200, seed, cell_size=1.0)
        positions = dict(config.items())
        for _ in range(50):
            x = window.side * gen.random(2)
            radius = 0.1 + 3.0 * gen.random()
            got = sorted(pid for pid, _ in config.ids_within(x, radius))
            assert got == brute_force_within(window, positions, x, radius)
            assert config.neighbor_count(x, radius) == len(got)

    def test_neighbors_match_brute_force(self):
        window = Window(8.0, 3, "periodic")
        config, _ = random_config(window, 120, 5, cell_size=1.5)
        positions = dict(config.items())
        for pid in list(positions)[:30]:
            got = sorted(q for q, _ in config.neighbors_within(pid, 1.5))
            want = [q for q in brute_force_within(window, positions, positions[pid], 1.5)
                    if q != pid]
            assert got == want

    def test_monotone_in_radius(self):
        window = Window(6.0, 2, "open")
        config, gen = random_config(window, 80, 9)
        x = window.side * gen.random(2)
        counts = [config.neighbor_count(x, r) for r in np.linspace(0.2, 4.0, 12)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_translation_covariance_open(self):
        window = Window(20.0, 2, "open")
        gen = rng.keyed_generator(11, rng.SAMPLING)
        pts = 5.0 + 5.0 * gen.random((60, 2))
        shift = np.array([3.0, 2.5])
        base = Configuration.from_positions(window, pts)
        moved = Configuration.from_positions(window, pts + shift)
        for _ in range(20):
            x = 5.0 + 5.0 * gen.random(2)
            r = 0.3 + 2.0 * gen.random()
            assert base.neighbor_count(x, r) == moved.neighbor_count(x + shift, r)

    def test_mutation_keeps_index_consistent(self):
        window = Window(10.0, 2, "periodic")
        config, gen = random_config(window, 100, 3, cell_size=1.0)
        positions = dict(config.items())
        for pid in list(positions)[:40]:
            config.remove(pid)
            del positions[pid]
        config.insert(1000, [0.25, 9.75])
        positions[1000] = np.array([0.25, 9.75])
        for _ in range(25):
            x = window.side * gen.random(2)
            got = sorted(pid for pid, _ in config.ids_within(x, 1.2))
            assert got == brute_force_within(window, positions, x, 1.2)

    @pytest.mark.parametrize("cell_size", [None, 1.0, 2.5])
    def test_copy_is_independent_and_exact(self, cell_size):
        window = Window(10.0, 2, "periodic")
        config, gen = random_config(window, 100, 5, cell_size=1.0)
        clone = config.copy(cell_size=cell_size)
        positions = dict(clone.items())
        for pid in list(positions)[:30]:
            clone.remove(pid)
            del positions[pid]
        clone.insert(1000, [9.9, 0.1])
        positions[1000] = np.array([9.9, 0.1])
        assert len(config) == 100 and 1000 not in config
        for _ in range(25):
            x = window.side * gen.random(2)
            assert sorted(p for p, _ in clone.ids_within(x, 1.3)) == \
                brute_force_within(window, positions, x, 1.3)
            assert sorted(p for p, _ in config.ids_within(x, 1.3)) == \
                brute_force_within(window, dict(config.items()), x, 1.3)

    def test_duplicate_position_rejected(self):
        window = Window(5.0, 2, "open")
        config = Configuration(window, [(0, [1.0, 1.0])])
        with pytest.raises(ValueError, match="identical positions"):
            config.insert(1, [1.0, 1.0])

    def test_outside_window_rejected_open(self):
        window = Window(5.0, 2, "open")
        config = Configuration(window)
        with pytest.raises(ValueError, match="outside"):
            config.insert(0, [6.0, 1.0])


class TestLogBoundConstant:
    def test_single_point_at_anchor(self):
        window = Window(4.0, 2, "open")
        config = Configuration(window, [(0, [0.0, 0.0])])
        # n = 1 and log(1+0) = 0
        assert log_bound_constant(config, 1.0) == pytest.approx(1.0)

    def test_two_close_points(self):
        window = Window(4.0, 2, "open")
        config = Configuration(window, [(0, [1.0, 0.0]), (1, [1.1, 0.0])])
        # both points see n = 2; the max of n/(1+log(1+|x|)) sits at the nearer one
        want = max(
            2.0 / (1.0 + math.log(1.0 + window.radial_norm(p)))
            for p in ([1.0, 0.0], [1.1, 0.0])
        )
        assert log_bound_constant(config, 1.0) == pytest.approx(want)

    def test_empty_raises(self):
        window = Window(4.0, 2, "open")
        with pytest.raises(ValueError, match="empty configuration"):
            log_bound_constant(Configuration(window), 1.0)

    def test_matches_exhaustive_maximization(self):
        window = Window(20.0, 2, "open")
        config = poisson_configuration(window, 1.0, seed=21)
        a = log_bound_constant(config, 1.0)
        # oracle: exhaustive maximization with brute-force counting
        best = 0.0
        for pid, pos in config.items():
            n = sum(
                1 for _, q in config.items() if window.distance(pos, q) <= 1.0
            )
            best = max(best, n / (1.0 + math.log(1.0 + window.radial_norm(pos))))
        assert a == pytest.approx(best, rel=1e-12)

    def test_bound_actually_holds_with_equality_somewhere(self):
        window = Window(15.0, 2, "open")
        config = poisson_configuration(window, 0.8, seed=4)
        a = log_bound_constant(config, 1.5)
        tight = 0
        for pid, pos in config.items():
            n = config.neighbor_count(pos, 1.5)
            bound = a * (1.0 + math.log(1.0 + window.radial_norm(pos)))
            assert n <= bound * (1 + 1e-12)
            if math.isclose(n, bound, rel_tol=1e-9):
                tight += 1
        assert tight >= 1


class TestWeightsAndSums:
    def test_pairing_zero_function(self):
        window = Window(5.0, 2, "periodic")
        config = poisson_configuration(window, 1.0, seed=1)
        assert tempered_pairing(config, lambda x: 0.0) == 0.0

    def test_weight_is_one_at_anchor(self):
        window = Window(5.0, 2, "open")
        config = Configuration(window, [(0, [0.0, 0.0])])
        weight = TemperedWeight(epsilon=0.7, dim=2)
        assert tempered_pairing(config, lambda x: weight.at(window, x)) == pytest.approx(1.0)

    def test_pairing_matches_direct_sum(self):
        window = Window(12.0, 2, "open")
        config = poisson_configuration(window, 0.7, seed=8)
        weight = TemperedWeight(epsilon=0.5, dim=2)
        got = tempered_pairing(config, lambda x: weight.at(window, x))
        want = sum(weight.at(window, pos) for _, pos in config.items())
        assert got == pytest.approx(want, rel=1e-14)

    def test_tail_sum_trivial_cases(self):
        window = Window(5.0, 2, "open")
        assert weighted_tail_sum(Configuration(window), 1.0, 2, 1.0) == 0.0
        single = Configuration(window, [(0, [0.0, 0.0])])
        # n at the lone point is 1, |x| = 0
        assert weighted_tail_sum(single, 0.7, 3, 1.0) == pytest.approx(1.0)

    def test_tail_sum_matches_double_loop(self):
        window = Window(10.0, 2, "open")
        config = poisson_configuration(window, 1.0, seed=13)
        alpha, k, radius = 0.4, 2, 1.0
        want = 0.0
        for pid, pos in config.items():
            n = sum(1 for _, q in config.items() if window.distance(pos, q) <= radius)
            want += math.exp(-alpha * window.radial_norm(pos)) * n**k
        got = weighted_tail_sum(config, alpha, k, radius)
        assert got == pytest.approx(want, rel=1e-12)


class TestSerialization:
    def test_round_trip_ordered_by_id(self):
        window = Window(7.0, 2, "periodic")
        config = Configuration(window, [(5, [1.0, 2.0]), (2, [3.0, 4.0]), (9, [0.5, 6.0])])
        obj = config.to_json_obj()
        assert [rec["id"] for rec in obj] == [2, 5, 9]
        back = Configuration.from_json_obj(window, json.loads(json.dumps(obj)))
        assert back.ids() == config.ids()
        for pid in config.ids():
            assert np.array_equal(back.position_of(pid), config.position_of(pid))

    def test_dumps_deterministic(self):
        window = Window(7.0, 2, "open")
        a = Configuration(window, [(1, [0.5, 0.25]), (0, [1.0, 1.5])])
        b = Configuration(window, [(0, [1.0, 1.5]), (1, [0.5, 0.25])])
        assert json.dumps(a.to_json_obj()) == json.dumps(b.to_json_obj())
        json.loads(json.dumps(a.to_json_obj()))


class TestBox:
    def test_contains_and_volume(self):
        box = Box((0.0, 1.0), (2.0, 3.0))
        assert box.volume() == pytest.approx(4.0)
        assert box.contains([0.0, 1.0]) and box.contains([2.0, 3.0])
        assert not box.contains([2.1, 2.0])

    def test_count_in(self):
        window = Window(10.0, 2, "open")
        config = poisson_configuration(window, 0.5, seed=3)
        box = Box((2.0, 2.0), (6.0, 7.0))
        want = sum(1 for _, pos in config.items() if box.contains(pos))
        assert config.count_in(box) == want
