"""Marked trajectory assembly, observables, cadlag grid checks."""

import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from bdspin import rng
from bdspin.birth_death import ConstantBirthKernel, GlauberBirthKernel, simulate, step_potential
from bdspin.cli import load_config
from bdspin.geometry import Box, Configuration, Window, poisson_configuration
from bdspin.marked_process import (
    cadlag_check,
    combine,
    counting_observable,
    mark_sum_observable,
    write_marked_snapshots,
)
from bdspin.spin_sde import (
    CoefficientSet,
    InitialMarkPolicy,
    IntegratorConfig,
    MarkPath,
    cubic_drift,
    exchange_coupling,
    integrate_marks,
    tanh_diffusion,
)
from oracles import (birth_events, config_at, count_in, grid_index, in_box, phantom_positions,
                     position_of, traced_peak)
from test_birth_death import same_time_trajectory
from test_golden_artifacts import OPEN_CONFIG


def point_value(g, mark):
    """g at a point in its support: the mark for a mark sum, 1.0 for a count."""
    return mark if g.marked else 1.0


def cadlag_reference(mt, g, eps_t):
    """The cadlag check with gamma_t rebuilt by ``config_at`` at each support
    event.  An oracle for the ``present_at`` masks in ``cadlag_check``."""
    traj, grid, values = mt.base, mt.grid, mt.marks.values
    col = {pid: k for k, pid in enumerate(mt.marks.ids)}
    support_events = [ev for ev in traj.events if in_box(g.support, ev.position)]
    times = sorted({ev.time for ev in support_events})
    min_gap = min((b - a for a, b in zip(times, times[1:])), default=math.inf)

    violations, max_modulus = [], 0.0
    for ev in support_events:
        t, j = ev.time, grid_index(mt.marks, ev.time)
        if j + 1 == len(grid):
            continue
        if grid[j + 1] - t > eps_t * (1 + 1e-9):
            violations.append({"kind": "grid_coarser_than_eps", "t": t,
                               "next_grid": float(grid[j + 1])})
            continue
        cols = [col[pid] for pid, pos in config_at(traj, t, "right").items()
                if in_box(g.support, pos)]
        if cols:
            max_modulus = max(max_modulus,
                              float(np.max(np.abs(values[j + 1, cols] - values[j, cols]))))
    return {"passed": not violations, "events_checked": len(support_events),
            "violations": violations, "max_right_modulus": max_modulus,
            "min_support_gap": min_gap if math.isfinite(min_gap) else -1.0}


def glauber_marked(seed=0, side=5.0, T=1.0, m=1.0, z=2.0, dt=1 / 64):
    window = Window(side, 2, "periodic")
    gamma0 = poisson_configuration(window, 0.8, seed=seed)
    kernel = GlauberBirthKernel(z, step_potential(0.5, 1.0))
    traj = simulate(gamma0, kernel, m, T, seed)
    coeffs = CoefficientSet(cubic_drift(0.4), exchange_coupling(0.3),
                            tanh_diffusion(0.25), radius=1.0)
    path = integrate_marks(traj, coeffs, InitialMarkPolicy.constant(0.5),
                           IntegratorConfig(dt=dt), seed=seed)
    return traj, path, combine(traj, path)


def static_marked(config, marks):
    """A trajectory without events on [0, 1] and a hand-built mark path that
    gives ``config``'s points (ascending ids) the marks ``marks``."""
    traj = simulate(config, ConstantBirthKernel(0.0), 0.0, 1.0, seed=0)
    path = MarkPath(np.array([0.0, 1.0]), config.ids(), np.array([marks, marks], dtype=float))
    return combine(traj, path)


def snapshot_records(path, mt, stride=1):
    write_marked_snapshots(path, mt, stride=stride)
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestMarkedConfiguration:
    def test_requires_mark_per_point(self):
        window = Window(4.0, 2, "open")
        config = Configuration(window, [(0, [1.0, 1.0]), (1, [2.0, 2.0])])
        traj = simulate(config, ConstantBirthKernel(0.0), 0.0, 1.0, seed=0)
        path = MarkPath(np.array([0.0, 1.0]), [0], np.ones((2, 1)))
        with pytest.raises(ValueError, match="missing mark"):
            combine(traj, path)

    def test_mark_sum_in_box(self, tmp_path):
        window = Window(4.0, 2, "open")
        config = Configuration(window, [(0, [1.0, 1.0]), (1, [3.5, 3.5])])
        mt = static_marked(config, [2.0, 5.0])
        g = mark_sum_observable(Box((0.0, 0.0), (2.0, 2.0)))
        assert mt.observable_series(g)[0] == pytest.approx(2.0)
        points = snapshot_records(tmp_path / "snaps.jsonl", mt)[0]["points"]
        assert [(p["id"], p["mark"]) for p in points] == [(0, 2.0), (1, 5.0)]

    def test_random_observable_matches_brute_force(self):
        window = Window(6.0, 2, "open")
        config = poisson_configuration(window, 1.0, seed=3)
        gen = rng.keyed_generator(3, rng.SAMPLING)
        marks = gen.standard_normal(len(config))
        mt = static_marked(config, marks)
        box = Box((1.0, 1.0), (4.0, 5.0))
        g = mark_sum_observable(box)
        want = sum(mark for (pid, pos), mark in zip(config.items(), marks) if in_box(box, pos))
        assert mt.observable_series(g)[0] == pytest.approx(want, rel=1e-12)


def open_golden_marked(tmp_path):
    """The open golden config's trajectory and mark path (seed 11), as
    ``simulate`` solves them."""
    cfg_path = tmp_path / "open.json"
    cfg_path.write_text(json.dumps(OPEN_CONFIG))
    cfg = load_config(cfg_path)
    traj = simulate(cfg.build_gamma0(cfg.seed), cfg.kernel, cfg.death_rate, cfg.horizon,
                    cfg.seed)
    return traj, integrate_marks(traj, cfg.coeffs, cfg.init_marks, cfg.icfg, cfg.seed)


class TestObservableSeries:
    @pytest.mark.parametrize("case,seed", [("glauber", 0), ("glauber", 1), ("glauber", 2),
                                           ("mark-stride-3", 0), ("negative-zero", 1),
                                           ("open-golden", 11)])
    def test_series_equals_pointwise_loop(self, tmp_path, case, seed):
        # g evaluated point by point, total += value from 0.0 over the
        # present ids in ascending order
        if case == "open-golden":
            traj, path = open_golden_marked(tmp_path)
        else:
            traj, path, _ = glauber_marked(seed=seed, m=1.5, z=3.0)
        if case == "mark-stride-3":  # the rows emit-plotdata loads from marks.csv
            path = MarkPath(path.grid[::3], path.ids, path.values[::3])
        if case == "negative-zero":
            gen = rng.keyed_generator(seed, rng.SAMPLING)
            path.values[gen.random(path.values.shape) < 0.3] = -0.0
            path.values[:, 0] = -0.0
        mt = combine(traj, path)
        positions = phantom_positions(traj)
        side = traj.window.side
        empty = Box((0.0, 0.0), (1e-9, 1e-9))
        assert not any(in_box(empty, np.array(pos)) for pos in positions.values())
        boxes = [Box((0.1 * side, 0.2 * side), (0.8 * side, 0.9 * side)), traj.window.box,
                 empty]
        for box in boxes:
            for g in (counting_observable(box), mark_sum_observable(box)):
                want = []
                for j, t in enumerate(path.grid):
                    present, total = set(traj.present_ids(float(t))), 0.0
                    for k, pid in enumerate(path.ids):
                        if pid in present and in_box(box, np.array(positions[pid])):
                            total += point_value(g, float(path.values[j, k]))
                    want.append(total)
                # float.hex tells +0.0 from -0.0
                got = list(map(float.hex, mt.observable_series(g).tolist()))
                assert got == list(map(float.hex, want)), (case, g)

    def test_series_adds_left_to_right_from_zero(self):
        window = Window(1000.0, 1, "open")
        config = Configuration(window, [(i, [i + 0.5]) for i in range(1000)])
        marks = np.array([1.0] + [1e-16] * 999)
        total = 0.0
        for v in marks.tolist():
            total += v
        g = mark_sum_observable(window.box)
        got = static_marked(config, marks).observable_series(g)
        assert got.tolist() == [total, total] and total == 1.0 and np.sum(marks) != total
        zero = static_marked(Configuration(window, [(0, [0.5]), (1, [1.5])]), [-0.0, -0.0])
        assert [math.copysign(1.0, v) for v in zero.observable_series(g)] == [1.0, 1.0]

    def test_series_needs_no_grid_sized_temporary(self):
        traj, path, mt = glauber_marked(seed=1, side=24.0, T=1.0)
        g = mark_sum_observable(traj.window.box)
        mt.observable_series(g)  # first call's one-off allocations
        _, peak = traced_peak(lambda: mt.observable_series(g))
        assert path.values.nbytes > 1_000_000
        assert peak < 0.05 * path.values.nbytes, (peak, path.values.nbytes)


class TestCombine:
    def test_empty_trajectory(self, tmp_path):
        window = Window(3.0, 2, "open")
        traj = simulate(Configuration(window), ConstantBirthKernel(0.0), 0.0, 1.0, seed=0)
        coeffs = CoefficientSet(cubic_drift(0.1), exchange_coupling(0.1),
                                tanh_diffusion(0.1), radius=1.0)
        path = integrate_marks(traj, coeffs, InitialMarkPolicy.constant(0.0),
                               IntegratorConfig(dt=0.25), seed=0)
        records = snapshot_records(tmp_path / "snaps.jsonl", combine(traj, path))
        assert [rec["t"] for rec in records] == path.grid.tolist()
        assert all(rec["points"] == [] for rec in records)

    def test_static_configuration_marks_evolve(self, tmp_path):
        window = Window(4.0, 2, "open")
        gamma0 = Configuration(window, [(0, [1.0, 1.0]), (1, [1.5, 1.0])])
        traj = simulate(gamma0, ConstantBirthKernel(0.0), 0.0, 1.0, seed=0)
        coeffs = CoefficientSet(cubic_drift(0.2), exchange_coupling(0.2),
                                tanh_diffusion(0.3), radius=1.0)
        path = integrate_marks(traj, coeffs, InitialMarkPolicy.constant(1.0),
                               IntegratorConfig(dt=1 / 32), seed=1)
        records = snapshot_records(tmp_path / "snaps.jsonl", combine(traj, path))
        by_time = {rec["t"]: rec["points"] for rec in records}
        for t in (0.0, 0.5, 1.0):
            assert [p["id"] for p in by_time[t]] == [0, 1]
        marks = {t: [p["mark"] for p in by_time[t]] for t in (0.0, 1.0)}
        assert marks[1.0] != marks[0.0]

    @pytest.mark.parametrize("seed", range(3))
    def test_fibre_conditions(self, tmp_path, seed):
        # position projection equals the jump state; marks restrict the path
        traj, path, mt = glauber_marked(seed=seed)
        col = {pid: k for k, pid in enumerate(path.ids)}
        records = snapshot_records(tmp_path / "snaps.jsonl", mt)
        assert [rec["t"] for rec in records] == path.grid.tolist()
        gen = rng.keyed_generator(seed, rng.SAMPLING)
        for j in gen.choice(len(path.grid), size=25):
            t = float(path.grid[j])
            config = config_at(traj, t)
            points = records[j]["points"]
            assert [p["id"] for p in points] == config.ids()
            for p in points:
                assert p["position"] == position_of(config, p["id"]).tolist()
                assert p["mark"] == float(path.values[j, col[p["id"]]])

    def test_presence_interval_oracle(self, tmp_path):
        traj, path, mt = glauber_marked(seed=5)
        stride = max(1, len(path.grid) // 40)
        records = snapshot_records(tmp_path / "snaps.jsonl", mt, stride=stride)
        assert [rec["t"] for rec in records] == path.grid[::stride].tolist()
        for rec in records:
            t = rec["t"]
            want = sorted(
                pid for pid, (birth, death) in traj.presence.items()
                if birth <= t and (death is None or t < death)
            )
            assert [p["id"] for p in rec["points"]] == want

    def test_missing_marks_rejected(self):
        traj, path, _ = glauber_marked(seed=1)
        short = type(path)(path.grid, path.ids[:-1], path.values[:, :-1])
        with pytest.raises(ValueError, match="missing mark"):
            combine(traj, short)

    def test_extra_or_permuted_ids_rejected(self):
        # a column is read by its phantom position, so the ids must be the
        # phantom ids in ascending order
        traj, path, _ = glauber_marked(seed=1)
        extra = MarkPath(path.grid, [-1, *path.ids],
                         np.hstack([np.zeros((len(path.grid), 1)), path.values]))
        permuted = MarkPath(path.grid, path.ids[::-1], path.values[:, ::-1])
        for bad in (extra, permuted):
            with pytest.raises(ValueError, match="not the phantom ids"):
                combine(traj, bad)


class TestCountingJumps:
    def test_counting_observable_tracks_events(self):
        traj, path, mt = glauber_marked(seed=7, m=1.5, z=3.0)
        box = Box((0.5, 0.5), (4.0, 4.0))
        g = counting_observable(box)
        series = mt.observable_series(g)
        # jumps of the counting series happen exactly at in-box event times
        jumps = {}
        for j in range(1, len(path.grid)):
            d = series[j] - series[j - 1]
            if d != 0:
                jumps[float(path.grid[j])] = d
        for t, d in jumps.items():
            births = sum(1 for ev in traj.events
                         if ev.time == t and ev.kind == "birth" and in_box(box, ev.position))
            deaths = sum(1 for ev in traj.events
                         if ev.time == t and ev.kind == "death" and in_box(box, ev.position))
            assert d == births - deaths
        n_in_box_events = sum(1 for ev in traj.events if in_box(box, ev.position))
        assert len(jumps) <= n_in_box_events
        assert series[0] == count_in(traj.gamma0, box)


class TestCadlag:
    def test_no_events_in_support_passes(self):
        traj, path, mt = glauber_marked(seed=9, m=1.0, z=2.0)
        # empty corner box: no events inside
        tiny = Box((0.0, 0.0), (1e-9, 1e-9))
        if any(in_box(tiny, ev.position) for ev in traj.events):
            pytest.skip("degenerate corner box hit an event")
        report = cadlag_check(mt, counting_observable(tiny), eps_t=1 / 64)
        assert report.passed and report.events_checked == 0

    def test_single_birth_jump_counting(self):
        # one candidate accepted, counting observable jumps by exactly +1
        window = Window(2.0, 2, "periodic")
        traj = simulate(Configuration(window), ConstantBirthKernel(1.5), 0.0, 1.0, seed=3)
        assert birth_events(traj)
        coeffs = CoefficientSet(cubic_drift(0.1), exchange_coupling(0.1),
                                tanh_diffusion(0.2), radius=0.5)
        path = integrate_marks(traj, coeffs, InitialMarkPolicy.constant(0.0),
                               IntegratorConfig(dt=1 / 64), seed=3)
        mt = combine(traj, path)
        g = counting_observable(window.box)
        report = cadlag_check(mt, g, eps_t=1 / 64)
        assert report.passed, report.violations
        ev = birth_events(traj)[0]
        j = grid_index(path, ev.time)
        series = mt.observable_series(g)
        col = {pid: k for k, pid in enumerate(path.ids)}
        left = sum(point_value(g, path.values[j, col[pid]])
                   for pid, pos in config_at(traj, ev.time, "left").items()
                   if in_box(g.support, pos))
        assert series[j] - left == 1.0

    @pytest.mark.parametrize("case", ["glauber-0", "glauber-1", "glauber-2", "same-time"])
    def test_matches_config_at_reference(self, case):
        if case == "same-time":
            traj = same_time_trajectory()
            coeffs = CoefficientSet(cubic_drift(0.4), exchange_coupling(0.3),
                                    tanh_diffusion(0.25), radius=1.0)
            path = integrate_marks(traj, coeffs, InitialMarkPolicy.constant(0.5),
                                   IntegratorConfig(dt=1 / 16), seed=0)
        else:
            traj, path, _ = glauber_marked(seed=int(case[-1]), m=1.5, z=3.0, dt=1 / 16)
        mt = combine(traj, path)
        side = traj.window.side
        boxes = [traj.window.box, Box((0.0, 0.0), (side / 2, side)),
                 Box((side / 4, side / 4), (3 * side / 4, 3 * side / 4))]
        kinds = set()
        for box in boxes:
            # an eps below the grid step fails every right-side check
            for g in (counting_observable(box), mark_sum_observable(box)):
                for eps_t in (1 / 16, 1 / 64):
                    got = asdict(cadlag_check(mt, g, eps_t=eps_t))
                    assert got == cadlag_reference(mt, g, eps_t)
                    kinds |= {v["kind"] for v in got["violations"]}
        assert kinds == {"grid_coarser_than_eps"}

    @pytest.mark.parametrize("where", ["inside", "past_the_end"])
    def test_event_time_off_the_grid_raises(self, where):
        traj, path, _ = glauber_marked(seed=1, T=0.25)
        t = traj.events[0].time if where == "inside" else traj.events[-1].time
        keep = path.grid != t if where == "inside" else path.grid < t
        mt = combine(traj, MarkPath(path.grid[keep], path.ids, path.values[keep]))
        with pytest.raises(ValueError, match=re.escape(f"time {t} is not on the integration grid")):
            cadlag_check(mt, counting_observable(traj.window.box), eps_t=1 / 64)

    @pytest.mark.parametrize("seed", range(4))
    def test_glauber_runs_pass(self, seed):
        traj, path, mt = glauber_marked(seed=seed, m=1.5, z=3.0)
        gen = rng.keyed_generator(100 + seed, rng.SAMPLING)
        for _ in range(5):
            lo = 5.0 * gen.random(2) * 0.6
            hi = np.minimum(lo + 5.0 * (0.2 + 0.6 * gen.random(2)), 5.0)
            box = Box(tuple(float(v) for v in lo), tuple(float(v) for v in hi))
            g = mark_sum_observable(box)
            report = cadlag_check(mt, g, eps_t=1 / 64)
            assert report.passed, report.violations


class TestWriters:
    def test_snapshots_jsonl(self, tmp_path):
        traj, path, mt = glauber_marked(seed=12)
        f = tmp_path / "snaps.jsonl"
        write_marked_snapshots(f, mt, stride=8)
        records = [json.loads(line) for line in f.read_text().splitlines()]
        assert records[0]["t"] == 0.0
        first = records[0]["points"]
        assert sorted(p["id"] for p in first) == traj.gamma0.ids()
        for p in first:
            assert p["mark"] == 0.5

    def test_snapshots_need_no_grid_sized_temporary(self, tmp_path):
        # each written row's columns come from the lifetime slices and the
        # format from the min and max of all marks; a rows x phantom mask of
        # bools alone would be 0.125 x values.nbytes
        traj, path, mt = glauber_marked(seed=1, side=16.0, T=1.0)
        f = tmp_path / "snaps.jsonl"
        write_marked_snapshots(f, mt)  # first call's one-off allocations
        _, peak = traced_peak(lambda: write_marked_snapshots(f, mt))
        assert path.values.nbytes > 1_000_000
        assert peak < 0.2 * path.values.nbytes, (peak, path.values.nbytes)
