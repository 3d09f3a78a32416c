"""Finite point configurations on a bounded window of R^d.

Provides the simulation window (periodic torus or open box), the validated
id -> position map of a configuration, one vectorised pass that finds every
in-radius pair of a position array (``neighbor_pairs``), and the Poisson
sample of an initial configuration.  Configurations are immutable once built.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, closed on both sides."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have equal dimension")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError("box has lo > hi")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def scaled(self, factor: float) -> "Box":
        """Box shrunk/grown about its own center."""
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        c = 0.5 * (lo + hi)
        return Box(tuple(c + factor * (lo - c)), tuple(c + factor * (hi - c)))

    def descriptor(self) -> dict:
        return {"lo": list(self.lo), "hi": list(self.hi)}


class Window:
    """Simulation window [0, side]^dim with periodic or open boundary.

    Under periodic boundary all distances are torus distances.  The radial
    norm |x| entering log bounds and exponential weights is measured from the
    window center in periodic mode (a torus has no privileged origin) and
    from the corner origin in open mode.
    """

    def __init__(self, side: float, dim: int, boundary: str = "periodic"):
        if side <= 0:
            raise ValueError("window side must be positive")
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if boundary not in ("periodic", "open"):
            raise ValueError(f"unknown boundary mode {boundary!r}")
        self.side = float(side)
        self.dim = int(dim)
        self.boundary = boundary
        self._anchor = np.full(self.dim, self.side / 2.0 if self.periodic else 0.0)

    @property
    def box(self) -> Box:
        return Box((0.0,) * self.dim, (self.side,) * self.dim)

    @property
    def periodic(self) -> bool:
        return self.boundary == "periodic"

    def volume(self) -> float:
        return self.side**self.dim

    def contains(self, x) -> bool:
        return all(0.0 <= xi <= self.side for xi in x)

    def wrap(self, x: np.ndarray) -> np.ndarray:
        if not self.periodic:
            return np.asarray(x, dtype=float)
        return np.mod(np.asarray(x, dtype=float), self.side)

    def distance(self, a, b) -> float:
        d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        if self.periodic:
            d = np.minimum(d, self.side - d)
        return float(np.sqrt(np.sum(d * d)))

    def row_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distance from row i of ``a`` to row i of ``b`` (``b`` may broadcast)."""
        d = np.abs(a - b)
        if self.periodic:
            d = np.minimum(d, self.side - d)
        return np.sqrt(np.sum(d * d, axis=1))

    def radial_norms(self, pts: np.ndarray) -> np.ndarray:
        return self.row_distances(pts, self._anchor)

    def descriptor(self) -> dict:
        return {
            "side": self.side,
            "dim": self.dim,
            "boundary": self.boundary,
            "norm_origin": list(self._anchor),
        }

    @classmethod
    def from_descriptor(cls, d: dict) -> "Window":
        """The window a ``descriptor`` describes; its ``norm_origin`` must be the
        anchor that the boundary mode gives."""
        window = cls(d["side"], d["dim"], d["boundary"])
        if list(d["norm_origin"]) != list(window._anchor):
            raise ValueError(f"window norm_origin {d['norm_origin']!r} is not the "
                             f"{window.boundary} anchor {window._anchor.tolist()}")
        return window


class Configuration:
    """Finite set of identified points: a validated id -> position map.

    Ids are distinct nonnegative integers (they key the noise streams),
    positions are finite points of the window (wrapped onto the torus in
    periodic mode) and no two points share a position.  It holds
    no neighbor index: ``neighbor_pairs`` finds every in-radius pair of a
    position array, and the thinning sweep reads its slices.
    """

    def __init__(
        self,
        window: Window,
        points: Iterable[tuple[int, Iterable[float]]] = (),
    ):
        self.window = window
        self._pos: dict[int, np.ndarray] = {}
        owner: dict[tuple[float, ...], int] = {}
        for pid, position in points:
            # a JSON true or 1.5 is not an id; a numpy integer is
            if not isinstance(pid, (int, np.integer)) or isinstance(pid, bool):
                raise TypeError(f"point id {pid!r} is not an integer")
            pid = int(pid)
            if pid < 0:
                raise ValueError(f"point id {pid} is negative")
            if pid in self._pos:
                raise ValueError(f"duplicate point id {pid}")
            x = np.asarray(position, dtype=float)
            if x.shape != (window.dim,):
                raise ValueError(f"position has dimension {x.shape}, window is {window.dim}-d")
            if not np.all(np.isfinite(x)):
                raise ValueError(f"non-finite position for point {pid}")
            if window.periodic:
                x = window.wrap(x)
            elif not window.contains(x):
                raise ValueError(f"point {pid} lies outside the window")
            other = owner.setdefault(tuple(x.tolist()), pid)
            if other != pid:
                raise ValueError(f"points {other} and {pid} have identical positions")
            self._pos[pid] = x

    @classmethod
    def from_positions(cls, window: Window,
                       positions: Iterable[Iterable[float]]) -> "Configuration":
        """Build with ids 0..n-1 assigned in iteration order."""
        return cls(window, list(enumerate(positions)))

    # -- basic access ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pos)

    def __contains__(self, pid: int) -> bool:
        return pid in self._pos

    def ids(self) -> list[int]:
        return sorted(self._pos)

    def items(self) -> Iterator[tuple[int, np.ndarray]]:
        for pid in self.ids():
            yield pid, self._pos[pid]

    def positions_array(self) -> np.ndarray:
        """Positions stacked in ascending id order, shape (n, dim)."""
        if not self._pos:
            return np.zeros((0, self.window.dim))
        return np.stack([self._pos[pid] for pid in self.ids()])

    # -- serialization -------------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        return [{"id": pid, "position": [float(c) for c in pos]} for pid, pos in self.items()]

    @classmethod
    def from_json_obj(cls, window: Window, obj: list[dict]) -> "Configuration":
        return cls(window, [(rec["id"], rec["position"]) for rec in obj])


def cell_size_above(radius: float) -> float:
    """A cell size just above ``radius``: a radius query then visits the 3^d
    cells around its center, where cells of exactly ``radius`` need 5^d."""
    return radius * (1.0 + 1e-9)


def concat_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The integers of every range [starts[i], stops[i]), concatenated in order."""
    lengths = stops - starts
    firsts = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) + np.repeat(starts - firsts, lengths)


# candidate pairs ``neighbor_pairs`` examines at once.  Each takes about 100
# bytes of temporaries, so a chunk's working set (under 2 MB) stays in cache.
# On a 2-core host, 12316 points at a density of 12 took 0.30-0.40 s in chunks
# of 2^14 against 0.43-0.55 s in one pass, at a traced peak of 36 MB, not 192.
PAIR_CHUNK = 1 << 14


def neighbor_pairs(window: Window, positions: np.ndarray,
                   radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed pairs of distinct rows of ``positions`` within closed distance
    ``radius``, as arrays ``(src, dst, dist)`` sorted by ``(src, dst)``.

    Positions wrap as a ``Configuration`` wraps them, and the distances are
    those ``Window.row_distances`` gives.  Points are binned into cells just
    above ``radius``, so each point scans the 3^d cells around it (each cell
    once on a torus of under 3 cells per axis).  Candidates are examined a run
    of source rows at a time, ``PAIR_CHUNK`` pairs at most (one row at least).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    pts = window.wrap(np.asarray(positions, dtype=float).reshape(-1, window.dim))
    n = len(pts)
    if n * n > np.iinfo(np.intp).max:
        raise ValueError(f"{n} points: the pair key src * n + dst overflows")
    ncells = max(1, int(window.side / cell_size_above(radius)))
    # row i's candidates are by_cell[lo[i, k]:hi[i, k]] over its cells k; a
    # torus of under 3 cells per axis visits each of its cells once
    key = (pts / (window.side / ncells)).astype(np.intp)
    key = np.mod(key, ncells) if window.periodic else np.minimum(key, ncells - 1)
    steps = sorted({k % ncells for k in (-1, 0, 1)}) if window.periodic else (-1, 0, 1)
    offsets = np.array(list(itertools.product(steps, repeat=window.dim)), dtype=np.intp)
    around = key[:, None, :] + offsets  # (n, cells, dim) neighbor cell keys
    if window.periodic:
        around = np.mod(around, ncells)
    weights = ncells ** np.arange(window.dim, dtype=np.intp)
    cell_of = key @ weights
    by_cell = np.argsort(cell_of, kind="stable")
    sorted_cells = cell_of[by_cell]
    wanted = around @ weights
    lo = np.searchsorted(sorted_cells, wanted, "left")
    hi = np.searchsorted(sorted_cells, wanted, "right")
    if not window.periodic:  # a cell off the window is empty, not an alias
        off = np.any((around < 0) | (around >= ncells), axis=2)
        hi[off] = lo[off]
    per_row = (hi - lo).sum(axis=1)
    filled = np.concatenate([[0], np.cumsum(per_row)])
    parts = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]
    a = 0
    while a < n:
        b = max(a + 1, int(np.searchsorted(filled, filled[a] + PAIR_CHUNK, "right")) - 1)
        src = np.repeat(np.arange(a, b), per_row[a:b])
        dst = by_cell[concat_ranges(lo[a:b].ravel(), hi[a:b].ravel())]
        distinct = src != dst
        src, dst = src[distinct], dst[distinct]
        dist = window.row_distances(pts[dst], pts[src])
        near = dist <= radius
        src, dst, dist = src[near], dst[near], dist[near]
        # each (src, dst) appears once, so the key has no ties and its sort
        # is lexsort's (src, dst) order
        order = np.argsort(src * n + dst)
        parts.append((src[order], dst[order], dist[order]))
        a = b
    src, dst, dist = (np.concatenate(col) for col in zip(*parts))
    return src, dst, dist


def poisson_configuration(window: Window, intensity: float, seed: int) -> Configuration:
    """Homogeneous Poisson sample on the window, ids 0..n-1 in draw order."""
    from . import rng

    gen = rng.keyed_generator(seed, rng.INITIAL_CONFIG)
    n = gen.poisson(intensity * window.volume())
    pts = window.side * gen.random((n, window.dim))
    return Configuration.from_positions(window, pts)
