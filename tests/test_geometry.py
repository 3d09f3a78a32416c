"""Geometry: neighbor pairs and the sweep's present neighborhoods against
brute-force scans, configuration checks, functionals, serialization."""

import json
import math

import numpy as np
import pytest

from bdspin import geometry, rng
from bdspin.birth_death import present_neighbors
from bdspin.geometry import (
    Box,
    Configuration,
    Window,
    cell_size_above,
    neighbor_pairs,
    poisson_configuration,
)
from oracles import (TemperedWeight, box_volume, count_in, ids_within, in_box,
                     log_bound_constant, neighbor_count, neighbors_within, position_of,
                     radial_norm, tempered_pairing, weighted_tail_sum)


def brute_force_within(window, positions, x, radius):
    """Oracle: ids within the closed ball by direct O(n) scan."""
    hits = []
    for pid, pos in positions.items():
        if window.distance(x, pos) <= radius:
            hits.append(pid)
    return sorted(hits)


def random_config(window, n, seed):
    gen = rng.keyed_generator(seed, rng.SAMPLING)
    pts = window.side * gen.random((n, window.dim))
    return Configuration.from_positions(window, pts), gen


def pairs_oracle(config, radius):
    """(src, dst, dist) from ``neighbors_within`` per point, rows as indices
    into the ascending id order."""
    ids = config.ids()
    index_of = {pid: k for k, pid in enumerate(ids)}
    rows = [(index_of[pid], index_of[qid], d)
            for pid in ids for qid, d in neighbors_within(config, pid, radius)]
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
    # (side, radius): 7 cells per axis, exactly 3, 2, and 1 (a radius wider
    # than the window); a torus of 2 or 1 cells visits each cell once
    @pytest.mark.parametrize("side,radius", [(8.0, 1.0), (4.0, 1.0), (2.5, 1.0),
                                             (1.0, 1.5)])
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_neighbors_within(self, dim, boundary, side, radius):
        window = Window(side, dim, boundary)
        for seed in range(2):
            config, _ = random_config(window, 40, seed)
            assert_pairs_match(config, radius)

    @pytest.mark.parametrize("chunk", [1, 37])
    @pytest.mark.parametrize("side,radius", [(8.0, 1.0), (2.5, 1.0), (1.0, 1.5)])
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_neighbors_within_in_small_chunks(self, monkeypatch, dim, boundary,
                                                      side, radius, chunk):
        # one source row per chunk, and a few rows per chunk
        monkeypatch.setattr(geometry, "PAIR_CHUNK", chunk)
        window = Window(side, dim, boundary)
        config, _ = random_config(window, 40, 5)
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


def near_ids(near, row, ids):
    """Ids and distances ``near(row)`` gives, with rows mapped to ``ids``."""
    rows, dists = near(row)
    return [ids[r] for r in rows.tolist()], dists.tolist()


class TestNeighborQueries:
    """The brute-force queries that ``TestNeighborPairs`` compares against,
    and the sweep's ``present_neighbors`` against them."""

    def test_empty_configuration(self):
        window = Window(5.0, 2, "open")
        config = Configuration(window)
        assert neighbor_count(config, [1.0, 1.0], 1.0) == 0
        near = present_neighbors(window, np.array([[1.0, 1.0]]), 1.0, np.zeros(1, dtype=bool))
        assert near_ids(near, 0, [0]) == ([], [])

    def test_closed_ball_includes_boundary(self):
        window = Window(5.0, 2, "open")
        config = Configuration(window, [(0, [0.0, 0.0]), (1, [0.5, 0.0])])
        assert neighbor_count(config, [0.0, 0.0], 1.0) == 2
        # two points at exactly distance rho are each other's neighbors
        config2 = Configuration(window, [(0, [1.0, 1.0]), (1, [2.0, 1.0])])
        assert neighbors_within(config2, 0, 1.0) == [(1, 1.0)]
        assert neighbors_within(config2, 1, 1.0) == [(0, 1.0)]
        near = present_neighbors(window, config2.positions_array(), 1.0, np.ones(2, dtype=bool))
        assert near_ids(near, 0, [0, 1]) == ([1], [1.0])
        assert near_ids(near, 1, [0, 1]) == ([0], [1.0])

    def test_single_point_has_no_neighbors(self):
        window = Window(5.0, 2, "periodic")
        config = Configuration(window, [(7, [2.0, 2.0])])
        assert neighbors_within(config, 7, 1.0) == []
        near = present_neighbors(window, config.positions_array(), 1.0, np.ones(1, dtype=bool))
        assert near_ids(near, 0, [7]) == ([], [])

    def test_unknown_point_raises(self):
        window = Window(5.0, 2, "open")
        config = Configuration(window, [(0, [1.0, 1.0])])
        with pytest.raises(KeyError, match="unknown point"):
            neighbors_within(config, 3, 1.0)

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_index_matches_brute_force(self, boundary, seed):
        # each query point is one more row of the pair list, never present
        window = Window(10.0, 2, boundary)
        config, gen = random_config(window, 200, seed)
        positions = dict(config.items())
        present = np.ones(201, dtype=bool)
        present[200] = False
        for _ in range(50):
            x = window.side * gen.random(2)
            radius = 0.1 + 3.0 * gen.random()
            rows = np.vstack([config.positions_array(), x])
            got, dists = near_ids(present_neighbors(window, rows, radius, present), 200,
                                  config.ids())
            assert got == brute_force_within(window, positions, x, radius)
            assert [(pid, d) for pid, d in zip(got, dists)] == ids_within(config, x, radius)
            assert neighbor_count(config, x, radius) == len(got)

    def test_neighbors_match_brute_force(self):
        window = Window(8.0, 3, "periodic")
        config, _ = random_config(window, 120, 5)
        positions = dict(config.items())
        ids = config.ids()
        near = present_neighbors(window, config.positions_array(), 1.5,
                                 np.ones(len(ids), dtype=bool))
        for row, pid in enumerate(ids[:30]):
            want = [q for q in brute_force_within(window, positions, positions[pid], 1.5)
                    if q != pid]
            assert sorted(q for q, _ in neighbors_within(config, pid, 1.5)) == want
            got, dists = near_ids(near, row, ids)
            assert got == want
            assert list(zip(got, dists)) == neighbors_within(config, pid, 1.5)

    def test_monotone_in_radius(self):
        window = Window(6.0, 2, "open")
        config, gen = random_config(window, 80, 9)
        x = window.side * gen.random(2)
        counts = [neighbor_count(config, x, r) for r in np.linspace(0.2, 4.0, 12)]
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
            assert neighbor_count(base, x, r) == neighbor_count(moved, x + shift, r)

    def test_mutation_keeps_index_consistent(self):
        # the sweep removes and adds points by flipping the present mask of
        # one pair list; each query row must see exactly the present points
        window = Window(10.0, 2, "periodic")
        config, gen = random_config(window, 100, 3)
        queries = window.side * gen.random((25, 2))
        rows = np.vstack([config.positions_array(), [[0.25, 9.75]], queries])
        ids = config.ids() + [1000] + [None] * len(queries)
        present = np.zeros(len(rows), dtype=bool)
        near = present_neighbors(window, rows, 1.2, present)
        present[:100] = True
        positions = dict(config.items())
        for pid in list(positions)[:40]:
            present[ids.index(pid)] = False
            del positions[pid]
        present[100] = True
        positions[1000] = np.array([0.25, 9.75])
        for k, x in enumerate(queries):
            assert near_ids(near, 101 + k, ids)[0] == brute_force_within(window, positions, x, 1.2)

    def test_duplicate_position_rejected(self):
        window = Window(5.0, 2, "open")
        with pytest.raises(ValueError, match="points 0 and 1 have identical positions"):
            Configuration(window, [(0, [1.0, 1.0]), (1, [1.0, 1.0])])
        # positions are compared after the periodic wrap
        torus = Window(5.0, 2, "periodic")
        with pytest.raises(ValueError, match="points 3 and 8 have identical positions"):
            Configuration(torus, [(3, [0.0, 1.0]), (4, [2.0, 2.0]), (8, [5.0, 6.0])])
        with pytest.raises(ValueError, match="duplicate point id 3"):
            Configuration(torus, [(3, [0.0, 1.0]), (3, [2.0, 2.0])])

    def test_ids_are_integers(self):
        window = Window(5.0, 2, "open")
        ids = Configuration(window, [(np.int64(3), [1.0, 1.0])]).ids()
        assert ids == [3] and type(ids[0]) is int
        for pid in (1.5, True, "1", np.float64(1.0)):
            with pytest.raises(TypeError, match="is not an integer"):
                Configuration(window, [(pid, [1.0, 1.0])])
        # an id keys its noise stream, whose key material is nonnegative
        for pid in (-1, np.int64(-7)):
            with pytest.raises(ValueError, match=f"point id {int(pid)} is negative"):
                Configuration(window, [(pid, [1.0, 1.0])])

    def test_outside_window_rejected_open(self):
        window = Window(5.0, 2, "open")
        with pytest.raises(ValueError, match="outside"):
            Configuration(window, [(0, [6.0, 1.0])])


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
            2.0 / (1.0 + math.log(1.0 + radial_norm(window, p)))
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
            best = max(best, n / (1.0 + math.log(1.0 + radial_norm(window, pos))))
        assert a == pytest.approx(best, rel=1e-12)

    def test_bound_actually_holds_with_equality_somewhere(self):
        window = Window(15.0, 2, "open")
        config = poisson_configuration(window, 0.8, seed=4)
        a = log_bound_constant(config, 1.5)
        tight = 0
        for pid, pos in config.items():
            n = neighbor_count(config, pos, 1.5)
            bound = a * (1.0 + math.log(1.0 + radial_norm(window, pos)))
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
            want += math.exp(-alpha * radial_norm(window, pos)) * n**k
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
            assert np.array_equal(position_of(back, pid), position_of(config, pid))

    def test_dumps_deterministic(self):
        window = Window(7.0, 2, "open")
        a = Configuration(window, [(1, [0.5, 0.25]), (0, [1.0, 1.5])])
        b = Configuration(window, [(0, [1.0, 1.5]), (1, [0.5, 0.25])])
        assert json.dumps(a.to_json_obj()) == json.dumps(b.to_json_obj())
        json.loads(json.dumps(a.to_json_obj()))


class TestBox:
    def test_contains_and_volume(self):
        box = Box((0.0, 1.0), (2.0, 3.0))
        assert box_volume(box) == pytest.approx(4.0)
        corners_and_out = np.array([[0.0, 1.0], [2.0, 3.0], [2.1, 2.0]])
        assert box.contains_many(corners_and_out).tolist() == [True, True, False]

    def test_count_in(self):
        window = Window(10.0, 2, "open")
        config = poisson_configuration(window, 0.5, seed=3)
        box = Box((2.0, 2.0), (6.0, 7.0))
        want = sum(1 for _, pos in config.items() if in_box(box, pos))
        assert count_in(config, box) == want
