"""The mark solve against a reference implementation of the same scheme.

``reference_solve`` orders the columns by ``sorted(phantom_positions(traj))``
and reads the present set from ``Trajectory.presence`` at every grid time and
the positions from ``oracles.phantom_positions``, which rebuilds them from
gamma0 and the birth events, not from the trajectory's phantom table.  It rebuilds each segment's active set and edge list from all
phantom edges, finds the edges with a per-point ``neighbors_within`` loop and
draws the keyed noise as one dense (steps x phantom) array, one SeedSequence
per stream.  The library solve gives each row and each edge of the phantom
graph its interval of grid steps, switches them on and off at the ends of
those intervals and gathers the active set and the alive edges only at a
step with a switch; it derives the stream keys in one vectorised pass and
stores each keyed stream only over its particle's lifetime.  Both must
give bit-identical paths, also on the edge cases of the walk
(``TestEventWalkEdgeCases``).
"""

import math

import numpy as np
import pytest

from bdspin.birth_death import (ConstantBirthKernel, Event, GlauberBirthKernel, Trajectory,
                                simulate, step_potential)
from bdspin.geometry import Box, Configuration, Window, poisson_configuration
from bdspin.spin_sde import (
    CoefficientSet,
    InitialMarkPolicy,
    IntegrationBlowUpError,
    IntegratorConfig,
    MarkPath,
    build_time_grid,
    constant_diffusion,
    cubic_drift,
    finite_volume_solve,
    integrate_marks,
    linear_coupling,
    linear_self_diffusion,
    zero_pair,
)

from oracles import (_keyed_normals, explicit_noise, in_box, neighbors_within,
                     phantom_positions, restrict)
from test_birth_death import same_time_trajectory
from test_spin_sde import default_coeffs, make_glauber_traj, shared_noise


def reference_edges(traj, radius):
    """Directed in-radius pairs over the phantom, one point at a time."""
    positions = phantom_positions(traj)
    ids = sorted(positions)
    index_of = {pid: k for k, pid in enumerate(ids)}
    phantom = Configuration(traj.window, positions.items())
    src, dst, dist = [], [], []
    for pid in ids:
        for qid, d in neighbors_within(phantom, pid, radius):
            src.append(index_of[pid])
            dst.append(index_of[qid])
            dist.append(d)
    return (ids, np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp),
            np.asarray(dist, dtype=float))


def reference_solve(traj, coeffs, init, icfg, seed, *, frozen_box=None, noise=None):
    positions = phantom_positions(traj)
    ids, src, dst, dist = reference_edges(traj, coeffs.radius)
    grid = build_time_grid(traj.horizon, icfg.dt, [ev.time for ev in traj.events])
    n_steps = len(grid) - 1
    n_ids = len(ids)

    if noise is None:
        noise = _keyed_normals(seed, ids, n_steps)

    frozen_mask = np.zeros(n_ids, dtype=bool)
    if frozen_box is not None:
        for k, pid in enumerate(ids):
            if not in_box(frozen_box, positions[pid]):
                frozen_mask[k] = True
    # present on [birth, death)
    born = np.array([traj.presence[pid][0] for pid in ids])
    died = np.array([math.inf if traj.presence[pid][1] is None else traj.presence[pid][1]
                     for pid in ids])

    z0 = np.array([init.evaluate(np.asarray(positions[pid], dtype=float))
                   for pid in ids], dtype=float)
    values = np.empty((n_steps + 1, n_ids))
    values[0] = z0
    segment_starts = {ev.time for ev in traj.events}
    tamed = icfg.scheme == "tamed"

    with np.errstate(over="ignore", invalid="ignore"):
        for j, t in enumerate(grid[:-1]):
            present = (born <= t) & (t < died)
            z = values[j]
            values[j + 1] = z
            if j == 0 or grid[j] in segment_starts:
                act_mask = present & ~frozen_mask
                act = np.flatnonzero(act_mask)
                keep = act_mask[src] & present[dst]
                esrc, edst, edist = src[keep], dst[keep], dist[keep]
            if act.size == 0:
                continue
            h = float(grid[j + 1] - grid[j])
            drift = np.zeros_like(z)
            diffusion = np.zeros_like(z)
            drift[act] = coeffs.single.func(z[act])
            if esrc.size:
                np.add.at(drift, esrc, coeffs.pair.func(z[esrc], z[edst], edist))
                np.add.at(diffusion, esrc, coeffs.diffusion.func(z[esrc], z[edst], edist))
            incr = h * drift[act]
            if tamed:
                incr = incr / (1.0 + np.abs(incr))
            step = incr + diffusion[act] * (math.sqrt(h) * noise[j][act])
            new = z[act] + step
            if not np.all(np.isfinite(new)):
                bad = np.argwhere(~np.isfinite(new))[0]
                pid = ids[int(act[bad[0]])]
                t = float(grid[j + 1])
                raise IntegrationBlowUpError(f"blow-up at (id={pid}, t={t})", id=pid, t=t)
            values[j + 1][act] = new

    return MarkPath(grid, list(ids), values)


def assert_same_path(got: MarkPath, want: MarkPath):
    assert got.ids == want.ids
    assert np.array_equal(got.grid, want.grid)
    assert got.values.shape == want.values.shape
    # equal bit patterns: equal values and equal sign bits
    assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))


INIT = InitialMarkPolicy.constant(0.4)
ICFG = IntegratorConfig(dt=1 / 32)


def glauber_cases():
    return [make_glauber_traj(seed=1), make_glauber_traj(seed=2, side=7.0, T=1.5, m=1.5),
            make_glauber_traj(seed=3, z=3.0, rho=1.3)]


def open_traj(seed=4):
    window = Window(5.0, 2, "open")
    gamma0 = poisson_configuration(window, 0.9, seed=seed)
    kernel = GlauberBirthKernel(2.5, step_potential(0.6, 1.0))
    return simulate(gamma0, kernel, 1.0, 1.0, seed)


class TestAgainstReference:
    @pytest.mark.parametrize("case", range(3))
    def test_integrate_marks(self, case):
        traj = glauber_cases()[case]
        for coeffs in (default_coeffs(), default_coeffs(rho=1.7, J=-0.4, kappa=0.6)):
            assert_same_path(integrate_marks(traj, coeffs, INIT, ICFG, seed=11),
                             reference_solve(traj, coeffs, INIT, ICFG, 11))

    @pytest.mark.parametrize("factor", [1.0, 0.6, 0.3, 0.0])
    def test_finite_volume_nested_and_degenerate_boxes(self, factor):
        traj = make_glauber_traj(seed=6, side=6.0)
        coeffs = default_coeffs()
        box = traj.window.box.scaled(factor)
        assert_same_path(finite_volume_solve(traj, coeffs, INIT, ICFG, box, 3),
                         reference_solve(traj, coeffs, INIT, ICFG, 3, frozen_box=box))

    def test_finite_volume_empty_corner_box(self):
        traj = make_glauber_traj(seed=6, side=6.0)
        coeffs = default_coeffs()
        box = Box((0.0, 0.0), (0.0, 0.0))
        assert_same_path(finite_volume_solve(traj, coeffs, INIT, ICFG, box, 3),
                         reference_solve(traj, coeffs, INIT, ICFG, 3, frozen_box=box))

    def test_explicit_noise(self):
        traj = make_glauber_traj(seed=7)
        coeffs = default_coeffs()
        noise = shared_noise(traj, ICFG, 99)
        with explicit_noise(noise):
            path = integrate_marks(traj, coeffs, INIT, ICFG, 0)
        assert_same_path(path, reference_solve(traj, coeffs, INIT, ICFG, 0, noise=noise))

    def test_tamed_scheme(self):
        traj = make_glauber_traj(seed=8)
        coeffs = CoefficientSet(cubic_drift(0.5), linear_coupling(0.4),
                                linear_self_diffusion(0.3), radius=1.2)
        icfg = IntegratorConfig(dt=1 / 8, scheme="tamed")
        init = InitialMarkPolicy.constant(3.0)
        assert_same_path(integrate_marks(traj, coeffs, init, icfg, 5),
                         reference_solve(traj, coeffs, init, icfg, 5))

    def test_restricted_horizon(self):
        traj = restrict(make_glauber_traj(seed=9, T=1.0), 0.5)
        coeffs = default_coeffs()
        assert_same_path(integrate_marks(traj, coeffs, INIT, ICFG, 4),
                         reference_solve(traj, coeffs, INIT, ICFG, 4))

    def test_open_boundary(self):
        traj = open_traj()
        coeffs = CoefficientSet(cubic_drift(0.2), zero_pair(), constant_diffusion(0.3),
                                radius=1.0)
        init = InitialMarkPolicy.from_field(lambda pos: 0.3 * pos[0] - 0.2 * pos[1])
        path = integrate_marks(traj, coeffs, init, ICFG, 2)
        assert len(set(path.values[0])) == len(path.ids)
        assert_same_path(path, reference_solve(traj, coeffs, init, ICFG, 2))

    def test_same_time_trajectory(self):
        traj = same_time_trajectory()
        coeffs = default_coeffs(rho=2.5)
        icfg = IntegratorConfig(dt=0.125)
        assert_same_path(integrate_marks(traj, coeffs, INIT, icfg, 1),
                         reference_solve(traj, coeffs, INIT, icfg, 1))
        box = Box((0.0, 0.0), (2.5, 4.0))
        assert_same_path(finite_volume_solve(traj, coeffs, INIT, icfg, box, 1),
                         reference_solve(traj, coeffs, INIT, icfg, 1, frozen_box=box))

    def test_blow_up_witness(self):
        traj = make_glauber_traj(seed=1)
        coeffs = CoefficientSet(cubic_drift(0.0), zero_pair(), constant_diffusion(0.1),
                                radius=1.0)
        init = InitialMarkPolicy.constant(40.0)
        icfg = IntegratorConfig(dt=0.25)
        with pytest.raises(IntegrationBlowUpError) as got:
            integrate_marks(traj, coeffs, init, icfg, 0)
        with pytest.raises(IntegrationBlowUpError) as want:
            reference_solve(traj, coeffs, init, icfg, 0)
        assert got.value.witness == want.value.witness


def hand_traj(events, points=((1.0, 1.0), (1.6, 1.2), (2.0, 2.0), (3.0, 3.0)),
              horizon=1.0):
    """A hand-built path on an open side-4 window: ``points`` at time 0, then
    ``events``."""
    window = Window(4.0, 2, "open")
    gamma0 = Configuration(window, list(enumerate(points)))
    return Trajectory(window=window, gamma0=gamma0, kernel=ConstantBirthKernel(1.0),
                      death_rate=1.0, horizon=horizon, seed=0, events=events)


class TestEventWalkEdgeCases:
    """Logs at the edges of the event walk: an event on a lattice time, at
    0 or at T, none at all, no particle at all, and births and deaths at one
    time."""

    icfg = IntegratorConfig(dt=0.125)
    coeffs = default_coeffs(rho=1.5, J=0.5, kappa=0.4)

    def check(self, traj, *, box=None):
        if box is not None:
            got = finite_volume_solve(traj, self.coeffs, INIT, self.icfg, box, 3)
        else:
            got = integrate_marks(traj, self.coeffs, INIT, self.icfg, 3)
        assert_same_path(got, reference_solve(traj, self.coeffs, INIT, self.icfg, 3,
                                              frozen_box=box))
        return got

    def test_events_on_lattice_times(self):
        traj = hand_traj([Event(0.25, "birth", 4, (1.3, 1.5)), Event(0.5, "death", 1, (1.6, 1.2)),
                          Event(0.625, "birth", 5, (2.2, 1.8)), Event(0.75, "death", 4, (1.3, 1.5))])
        path = self.check(traj)
        assert len(path.grid) == 9  # the lattice alone: no event added a time
        k = path.ids.index(4)
        assert np.all(path.values[:3, k] == INIT.value)  # absent up to its birth step
        assert path.values[3, k] != INIT.value
        assert np.all(path.values[6:, k] == path.values[6, k])  # frozen from its death

    def test_gamma0_death_at_time_zero(self):
        # row 1 enters and leaves at step 0 (first == ends == 0): it never
        # moves, and its neighbor 0 never sees it
        traj = hand_traj([Event(0.0, "death", 1, (1.6, 1.2)), Event(0.5, "birth", 4, (1.3, 1.5))])
        path = self.check(traj)
        assert len(path.grid) == 9
        assert np.all(path.values[:, path.ids.index(1)] == INIT.value)
        self.check(traj, box=Box((0.5, 0.5), (1.8, 1.8)))

    def test_events_at_horizon_are_never_applied(self):
        events = [Event(0.3, "birth", 4, (1.3, 1.5))]
        at_t = [Event(1.0, "death", 0, (1.0, 1.0)), Event(1.0, "birth", 5, (1.2, 1.1))]
        path = self.check(hand_traj(events + at_t))
        assert np.all(path.values[:, path.ids.index(5)] == INIT.value)
        without = integrate_marks(hand_traj(events), self.coeffs, INIT, self.icfg, 3)
        assert np.array_equal(path.values[:, :5], without.values)

    def test_no_events(self):
        traj = hand_traj([])
        path = self.check(traj)
        assert np.all(path.values[-1] != INIT.value)  # every point moves on every step
        self.check(traj, box=Box((0.5, 0.5), (1.8, 1.8)))

    def test_empty_phantom(self):
        traj = hand_traj([], points=())
        path = self.check(traj)
        assert path.ids == [] and path.values.shape == (9, 0)

    def test_birth_and_death_at_one_time_outside_the_box(self):
        traj = hand_traj([Event(0.3, "birth", 4, (3.2, 3.2)), Event(0.3, "death", 4, (3.2, 3.2)),
                          Event(0.6, "birth", 5, (1.8, 1.9)), Event(0.6, "death", 5, (1.8, 1.9)),
                          Event(0.6, "birth", 6, (3.4, 3.0))])
        path = self.check(traj, box=Box((0.0, 0.0), (2.5, 2.5)))
        for pid in (3, 4, 6):  # outside the box: frozen throughout
            assert np.all(path.values[:, path.ids.index(pid)] == INIT.value)
        self.check(traj)


class TestNoiseContract:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_explicit_keyed_normals_equal_keyed_solve(self, seed):
        traj = make_glauber_traj(seed=seed)
        coeffs = default_coeffs()
        grid = build_time_grid(traj.horizon, ICFG.dt, [ev.time for ev in traj.events])
        noise = _keyed_normals(21, traj.phantom_ids(), len(grid) - 1)
        with explicit_noise(noise):
            path = integrate_marks(traj, coeffs, INIT, ICFG, 21)
        assert_same_path(path, integrate_marks(traj, coeffs, INIT, ICFG, 21))
