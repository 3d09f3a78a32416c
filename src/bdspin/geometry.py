"""Finite point configurations on a bounded window of R^d.

Provides the simulation window (periodic torus or open box), a uniform-grid
spatial index for radius-limited neighbor queries, one vectorised pass that
finds every in-radius pair of a position array (``neighbor_pairs``), and the
Poisson sample of an initial configuration.

Configurations are mutable while a simulation sweep builds them, but queries
never mutate; concurrent read-only use is safe once building is done.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

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

    def volume(self) -> float:
        v = 1.0
        for l, h in zip(self.lo, self.hi):
            v *= h - l
        return v

    def contains(self, x) -> bool:
        return all(l <= xi <= h for xi, l, h in zip(x, self.lo, self.hi))

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
    from the corner origin in open mode; ``norm_origin`` overrides the anchor.
    """

    def __init__(
        self,
        side: float,
        dim: int,
        boundary: str = "periodic",
        norm_origin: tuple[float, ...] | None = None,
    ):
        if side <= 0:
            raise ValueError("window side must be positive")
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if boundary not in ("periodic", "open"):
            raise ValueError(f"unknown boundary mode {boundary!r}")
        self.side = float(side)
        self.dim = int(dim)
        self.boundary = boundary
        if norm_origin is None:
            if boundary == "periodic":
                norm_origin = (self.side / 2.0,) * dim
            else:
                norm_origin = (0.0,) * dim
        self._anchor = np.asarray(norm_origin, dtype=float)

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

    def distances(self, x, pts: np.ndarray) -> np.ndarray:
        """Distances from ``x`` to each row of ``pts``."""
        if len(pts) == 0:
            return np.zeros(0)
        return self.row_distances(pts, np.asarray(x, dtype=float))

    def row_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distance from row i of ``a`` to row i of ``b`` (``b`` may broadcast)."""
        d = np.abs(a - b)
        if self.periodic:
            d = np.minimum(d, self.side - d)
        return np.sqrt(np.sum(d * d, axis=1))

    def radial_norm(self, x) -> float:
        return self.distance(x, self._anchor)

    def radial_norms(self, pts: np.ndarray) -> np.ndarray:
        return self.distances(self._anchor, pts)

    def descriptor(self) -> dict:
        return {
            "side": self.side,
            "dim": self.dim,
            "boundary": self.boundary,
            "norm_origin": list(self._anchor),
        }

    @classmethod
    def from_descriptor(cls, d: dict) -> "Window":
        return cls(d["side"], d["dim"], d["boundary"], tuple(d["norm_origin"]))


class Configuration:
    """Finite set of identified points with a uniform-grid spatial index.

    ``cell_size`` should be at least the dominant query radius so a radius-R
    query touches O(1) cells; any positive value is correct, only speed
    changes.  Index query results always equal a brute-force distance scan.
    """

    def __init__(
        self,
        window: Window,
        points: Mapping[int, Iterable[float]] | Iterable[tuple[int, Iterable[float]]] = (),
        cell_size: float | None = None,
    ):
        self.window = window
        self._ncells = self._cell_count(window, cell_size)
        self._cell = window.side / self._ncells
        self._pos: dict[int, np.ndarray] = {}
        self._cells: dict[tuple[int, ...], list[int]] = {}
        items = points.items() if isinstance(points, Mapping) else points
        for pid, pos in items:
            self.insert(pid, pos)

    # -- construction / mutation ------------------------------------------

    @staticmethod
    def _cell_count(window: Window, cell_size: float | None) -> int:
        """Cells per axis; an integer count keeps the periodic wrap exact."""
        if cell_size is None or cell_size <= 0:
            cell_size = window.side / 8.0
        return max(1, int(window.side / cell_size))

    @classmethod
    def from_positions(cls, window: Window, positions: Iterable[Iterable[float]],
                       cell_size: float | None = None) -> "Configuration":
        """Build with ids 0..n-1 assigned in iteration order."""
        return cls(window, list(enumerate(positions)), cell_size=cell_size)

    def copy(self, cell_size: float | None = None) -> "Configuration":
        """Independent copy; the index is re-built only if ``cell_size``
        gives another grid, and cloned otherwise."""
        if cell_size is not None and self._cell_count(self.window, cell_size) != self._ncells:
            return Configuration(self.window, dict(self._pos), cell_size=cell_size)
        clone = Configuration.__new__(Configuration)
        clone.window = self.window
        clone._ncells = self._ncells
        clone._cell = self._cell
        clone._pos = dict(self._pos)  # positions are never mutated in place
        clone._cells = {key: list(bucket) for key, bucket in self._cells.items()}
        return clone

    def insert(self, pid: int, position: Iterable[float]) -> None:
        pid = int(pid)
        if pid in self._pos:
            raise ValueError(f"duplicate point id {pid}")
        x = np.asarray(position, dtype=float)
        if x.shape != (self.window.dim,):
            raise ValueError(f"position has dimension {x.shape}, window is {self.window.dim}-d")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"non-finite position for point {pid}")
        if self.window.periodic:
            x = self.window.wrap(x)
        elif not self.window.contains(x):
            raise ValueError(f"point {pid} lies outside the window")
        key = self._cell_key(x)
        bucket = self._cells.setdefault(key, [])
        for other in bucket:
            if np.array_equal(self._pos[other], x):
                raise ValueError(f"points {other} and {pid} have identical positions")
        bucket.append(pid)
        self._pos[pid] = x

    def remove(self, pid: int) -> None:
        if pid not in self._pos:
            raise KeyError(f"unknown point {pid}")
        key = self._cell_key(self._pos[pid])
        self._cells[key].remove(pid)
        if not self._cells[key]:
            del self._cells[key]
        del self._pos[pid]

    # -- basic access ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pos)

    def __contains__(self, pid: int) -> bool:
        return pid in self._pos

    def ids(self) -> list[int]:
        return sorted(self._pos)

    def position_of(self, pid: int) -> np.ndarray:
        try:
            return self._pos[pid]
        except KeyError:
            raise KeyError(f"unknown point {pid}") from None

    def items(self) -> Iterator[tuple[int, np.ndarray]]:
        for pid in self.ids():
            yield pid, self._pos[pid]

    def positions_array(self) -> np.ndarray:
        """Positions stacked in ascending id order, shape (n, dim)."""
        if not self._pos:
            return np.zeros((0, self.window.dim))
        return np.stack([self._pos[pid] for pid in self.ids()])

    def radial_norms(self) -> np.ndarray:
        """|x| of every point (ascending id order), relative to the window anchor."""
        return self.window.radial_norms(self.positions_array())

    def count_in(self, box: Box) -> int:
        pts = self.positions_array()
        if len(pts) == 0:
            return 0
        return int(np.sum(box.contains_many(pts)))

    # -- grid index --------------------------------------------------------

    def _cell_key(self, x: np.ndarray) -> tuple[int, ...]:
        idx = (x / self._cell).astype(int)
        if self.window.periodic:
            idx = np.mod(idx, self._ncells)
        else:
            idx = np.minimum(idx, self._ncells - 1)
        return tuple(int(i) for i in idx)

    def _candidate_ids(self, x: np.ndarray, radius: float) -> list[int]:
        """Ids in all cells possibly intersecting the closed ball B(x, radius)."""
        reach = int(radius / self._cell) + 1
        base = (np.asarray(x, dtype=float) / self._cell).astype(int)
        if 2 * reach + 1 >= self._ncells:
            axis_ranges = [range(self._ncells)] * self.window.dim
        elif self.window.periodic:
            axis_ranges = [
                [(b + off) % self._ncells for off in range(-reach, reach + 1)]
                for b in base
            ]
        else:
            axis_ranges = [range(b - reach, b + reach + 1) for b in base]
        out: list[int] = []
        keys = [()]
        for rng_axis in axis_ranges:
            keys = [k + (i,) for k in keys for i in rng_axis]
        for key in keys:
            bucket = self._cells.get(key)
            if bucket:
                out.extend(bucket)
        return out

    def ids_within(self, x, radius: float) -> list[tuple[int, float]]:
        """(id, distance) pairs with |x - y| <= radius (closed ball), id-sorted."""
        x = np.asarray(x, dtype=float)
        cand = self._candidate_ids(x, radius)
        if not cand:
            return []
        pts = np.stack([self._pos[pid] for pid in cand])
        dist = self.window.distances(x, pts)
        hits = [(pid, float(d)) for pid, d in zip(cand, dist) if d <= radius]
        hits.sort()
        return hits

    # -- spec operations ----------------------------------------------------

    def neighbor_count(self, x, radius: float) -> int:
        """Number of points within closed distance ``radius`` of ``x``.

        ``x`` itself is counted when it is a point of the configuration.
        """
        if radius <= 0:
            raise ValueError("radius must be positive")
        return len(self.ids_within(x, radius))

    def neighbors_within(self, pid: int, radius: float) -> list[tuple[int, float]]:
        """(id, distance) of all other points within ``radius`` of point ``pid``."""
        if pid not in self._pos:
            raise KeyError(f"unknown point {pid}")
        return [(q, d) for q, d in self.ids_within(self._pos[pid], radius) if q != pid]

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


def neighbor_pairs(window: Window, positions: np.ndarray,
                   radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed pairs of distinct rows of ``positions`` within closed distance
    ``radius``, as arrays ``(src, dst, dist)`` sorted by ``(src, dst)``.

    The pairs and distances are those ``Configuration.neighbors_within`` gives
    for every point (positions wrap as they do there), without building a
    configuration.  Points are binned into cells just above ``radius``, so each
    point scans the 3^d cells around it; under 3 cells per axis every pair is
    a candidate.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    pts = window.wrap(np.asarray(positions, dtype=float).reshape(-1, window.dim))
    n = len(pts)
    ncells = max(1, int(window.side / cell_size_above(radius)))
    if ncells < 3:
        src = np.repeat(np.arange(n), n)
        dst = np.tile(np.arange(n), n)
    else:
        key = (pts / (window.side / ncells)).astype(np.intp)
        key = np.mod(key, ncells) if window.periodic else np.minimum(key, ncells - 1)
        offsets = np.array(list(itertools.product((-1, 0, 1), repeat=window.dim)),
                           dtype=np.intp)
        around = key[:, None, :] + offsets  # (n, 3^d, dim) neighbor cell keys
        if window.periodic:
            around = np.mod(around, ncells)
            valid = np.ones(around.shape[:2], dtype=bool)
        else:
            valid = np.all((around >= 0) & (around < ncells), axis=2)
        weights = ncells ** np.arange(window.dim, dtype=np.intp)
        cell_of = key @ weights
        by_cell = np.argsort(cell_of, kind="stable")
        sorted_cells = cell_of[by_cell]
        wanted = (around @ weights)[valid]
        lo = np.searchsorted(sorted_cells, wanted, "left")
        hi = np.searchsorted(sorted_cells, wanted, "right")
        src = np.repeat(np.repeat(np.arange(n), offsets.shape[0])[valid.ravel()], hi - lo)
        dst = by_cell[concat_ranges(lo, hi)]
    distinct = src != dst
    src, dst = src[distinct], dst[distinct]
    dist = window.row_distances(pts[dst], pts[src])
    near = dist <= radius
    src, dst, dist = src[near], dst[near], dist[near]
    order = np.lexsort((dst, src))
    return src[order], dst[order], dist[order]


def poisson_configuration(window: Window, intensity: float, seed: int,
                          cell_size: float | None = None) -> Configuration:
    """Homogeneous Poisson sample on the window, ids 0..n-1 in draw order."""
    from . import rng

    gen = rng.keyed_generator(seed, rng.INITIAL_CONFIG)
    n = gen.poisson(intensity * window.volume())
    pts = window.side * gen.random((n, window.dim))
    return Configuration.from_positions(window, pts, cell_size=cell_size)
