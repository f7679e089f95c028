"""Simplicial complexes, their incidence descriptions, and filtration pairs.

A simplex is a strictly increasing tuple of non-negative integer vertex ids.
A complex stores each layer as an (|S_r|, r+1) int64 array of vertex rows in
the caller's order, and guarantees face closure: every face of a stored
simplex is stored one layer below.  Simplices carry 1-based per-layer
indices; all matrix-facing code in the package addresses simplices through
these indices.  Closure, lookup and filtration reordering sort and search
order-preserving int64 row keys (base-n digits, or ranks where n^(r+1) overflows).

Each complex also keeps a face index: per layer r >= 1, the (|S_r|, r+1)
layer-(r-1) positions of its simplices' faces, which every boundary reads.
Assembly records it from its closure search; any other complex fills a
layer's entry with one lookup on first use.  Layers and face index entries
are read-only arrays, and the index lives on the complex object only.  A
complex is immutable after construction apart from that lazy fill, whose
racing writers store equal arrays, so it is safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    BadParameter,
    DimensionMismatch,
    DuplicateSimplex,
    EmptyInput,
    EmptyLayer,
    MissingFace,
    NotASubcomplex,
)

Simplex = tuple[int, ...]


def as_simplex(vertices: Iterable[int]) -> Simplex:
    """Canonicalize a vertex collection into a sorted simplex tuple."""
    vs = tuple(sorted(int(v) for v in vertices))
    if not vs:
        raise BadParameter("a simplex needs at least one vertex")
    if vs[0] < 0:
        raise BadParameter(f"negative vertex id in {vs}")
    if len(set(vs)) != len(vs):
        raise BadParameter(f"repeated vertex in {vs}")
    return vs


def _keys(n: int, *blocks: np.ndarray) -> list[np.ndarray]:
    """Order-preserving int64 keys of equal-width rows in 0..n-1, shared by all ``blocks``."""
    width = blocks[0].shape[1]
    if n**width < 2**63:
        digits = n ** np.arange(width - 1, -1, -1, dtype=np.int64)
        return [b @ digits for b in blocks]
    _, ranks = np.unique(np.concatenate(blocks), axis=0, return_inverse=True)
    return np.split(ranks.ravel(), np.cumsum([len(b) for b in blocks])[:-1])


def _faces(rows: np.ndarray) -> np.ndarray:
    """The faces of each row, in row order and then by omitted position."""
    w = rows.shape[1]
    return rows[:, [j for i in range(w) for j in range(w) if j != i]].reshape(-1, w - 1)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Face-closed complex with ordered, 1-indexed simplex layers."""

    n: int
    _rows: Mapping[int, np.ndarray]  # r -> (|S_r|, r+1) int64 rows, ascending r, none empty

    def __post_init__(self):
        for rows in self._rows.values():
            rows.flags.writeable = False
        object.__setattr__(self, "_face_at", {})  # the face index, r -> read-only positions

    @property
    def layers(self) -> dict[int, tuple[Simplex, ...]]:
        return {r: self.layer(r) for r in self._rows}

    def dim(self) -> int:
        return max(self._rows, default=-1)

    def layer(self, r: int) -> tuple[Simplex, ...]:
        return tuple(map(tuple, self._rows[r].tolist())) if r in self._rows else ()

    def size(self, r: int) -> int:
        return len(self._rows[r]) if r in self._rows else 0

    def index_of(self, r: int, s: Simplex) -> int:
        """1-based index of ``s`` in layer ``r`` (KeyError if absent)."""
        if len(s) != r + 1 or (i := int(self._find(r, [s])[0])) < 0:
            raise KeyError((r, s))
        return i + 1

    def contains(self, s: Simplex) -> bool:
        return bool(self._find(len(s) - 1, [s])[0] >= 0)

    def _find(self, r: int, queries) -> np.ndarray:
        """0-based positions of the vertex rows ``queries`` in layer r, -1 where absent."""
        q = np.asarray(queries)
        if r not in self._rows or q.dtype.kind not in "iu":
            return np.full(len(q), -1)
        ok = ((q >= 0) & (q < self.n)).all(axis=1)
        table, keys = _keys(self.n, self._rows[r], np.where(ok[:, None], q, 0).astype(np.int64))
        order = np.argsort(table)
        pos = order[np.searchsorted(table, keys, sorter=order).clip(max=len(table) - 1)]
        return np.where(ok & (table[pos] == keys), pos, -1)

    def simplices(self) -> list[Simplex]:
        """All simplices, layers ascending, layer order preserved."""
        return list(chain.from_iterable(self.layers.values()))

    def total_size(self) -> int:
        return sum(map(len, self._rows.values()))


def build_complex(simplices: Iterable[Iterable[int]], autoclose: bool = True) -> SimplicialComplex:
    """Assemble a complex from a simplex list of integer vertex ids.

    Explicitly listed simplices keep their input order within each layer.
    With ``autoclose`` enabled, missing faces are appended after them in
    lexicographic order; with it disabled, a missing face raises
    :class:`MissingFace`.

    Raises :class:`DuplicateSimplex` on repeated input, :class:`EmptyInput`
    on an empty list.
    """
    seqs = list(map(tuple, simplices))
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    return _assemble(lengths, np.fromiter(chain.from_iterable(seqs), dtype=np.int64), autoclose)


def _assemble(lengths, flat, autoclose: bool) -> SimplicialComplex:
    """:func:`build_complex` of the simplices given as their ``lengths`` and their
    vertex ids ``flat``, one after another (int64 arrays, or lists of ints).

    Rows are grouped by width with one stable sort of the lengths, or none when
    they come grouped in ascending width.  Layers are then closed from the top
    down, each one's keys sorted once: that table finds its repeats and, by
    binary search, the faces of the layer above that it lacks.  Errors come in
    the order bad vertex lists, repeats, missing faces.
    """
    lengths, flat = np.asarray(lengths, dtype=np.int64), np.asarray(flat, dtype=np.int64)
    if not len(lengths):
        raise EmptyInput("no simplices given")
    if lengths.min() == 0:
        raise BadParameter("a simplex needs at least one vertex")
    n = int(flat.max()) + 1
    at = range(len(lengths))  # each row's input position
    if (lengths[1:] < lengths[:-1]).any():
        at = np.argsort(lengths, kind="stable")
        starts = np.cumsum(lengths) - lengths
        lengths = lengths[at]
        flat = flat[np.repeat(starts[at] + lengths - np.cumsum(lengths), lengths) + np.arange(len(flat))]
    bounds = [0, *(np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist(), len(lengths)]
    layers, first, end = {}, {}, 0
    for lo, hi in zip(bounds, bounds[1:]):
        w = int(lengths[lo])
        rows = np.sort(flat[end:end + w * (hi - lo)].reshape(-1, w), axis=1)
        end += w * (hi - lo)
        bad = (rows[:, 0] < 0) | (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        if bad.any():
            raise BadParameter(f"negative or repeated vertex in {tuple(rows[bad][0].tolist())}")
        layers[w - 1], first[w - 1] = rows, lo

    layers = {r: layers.get(r, np.empty((0, r + 1), dtype=np.int64)) for r in range(max(layers) + 1)}
    repeats, missing, face_at = [], None, {}
    faces = np.empty((0, len(layers)), dtype=np.int64)  # no layer lies above the top one
    for r in range(len(layers) - 1, -1, -1):
        keys, face_keys = _keys(n, layers[r], faces)
        order = np.argsort(keys, kind="stable")
        table = keys[order]
        again = order[1:][table[1:] == table[:-1]]  # rows whose key an earlier row has
        if len(again):
            i = int(again.min())
            repeats.append((int(at[first[r] + i]), tuple(layers[r][i].tolist())))
        pos = np.minimum(np.searchsorted(table, face_keys), len(table) - 1)
        absent = table[pos] != face_keys if len(table) else np.ones(len(faces), dtype=bool)
        where = order[pos] if len(table) else pos  # each face's row; absent ones set below
        if absent.any():
            _, once, slot = np.unique(face_keys[absent], return_index=True, return_inverse=True)
            new = faces[absent][once]
            if autoclose:
                where[absent] = len(layers[r]) + slot
                layers[r] = np.concatenate([layers[r], new])
            elif missing is None:
                missing = new[0]
        if r + 1 < len(layers):
            face_at[r + 1] = _read_only(where.reshape(-1, r + 2))
        if r:
            faces = _faces(layers[r])
    if repeats:
        raise DuplicateSimplex(f"simplex {min(repeats)[1]} listed twice")
    if missing is not None:
        raise MissingFace(f"face {tuple(missing.tolist())} required but not listed")
    k = SimplicialComplex(n, layers)
    k._face_at.update(face_at)
    return k


def _face_rows(k: SimplicialComplex, r: int, cols=slice(None)) -> np.ndarray:
    """Layer-(r-1) positions of the faces of the r-simplices ``cols`` (0-based, all by
    default), one row each, the face omitting the i-th vertex in column i.  They are
    read from the complex's face index, which one lookup fills on first use where
    assembly did not record it."""
    at = k._face_at.get(r)
    if at is None:
        at = k._face_at[r] = _read_only(k._find(r - 1, _faces(k._rows[r])).reshape(-1, r + 1))
    return at[cols]


def _incidence(k: SimplicialComplex, r: int, signs: np.ndarray):
    """CSC matrix from the r-simplices to layer r-1, with ``signs[i]`` at each
    one's face omitting its i-th vertex; rows sorted in each column."""
    where = _face_rows(k, r)
    order = np.argsort(where, axis=1)
    return sp.csc_matrix((signs[order].ravel(), np.take_along_axis(where, order, axis=1).ravel(),
                          np.arange(0, where.size + 1, r + 1)),
                         shape=(k.size(r - 1), len(where)))


def spec_matrix(k: SimplicialComplex, r: int) -> sp.csc_matrix:
    """CSC 0/1 face-incidence matrix between layers r-1 and r; its columns sum to r+1."""
    if r < 1:
        raise BadParameter("incidence matrices start at dimension 1")
    if k.size(r) == 0:
        raise EmptyLayer(f"no simplices of dimension {r}")
    return _incidence(k, r, np.ones(r + 1, dtype=np.int64))


@dataclass(frozen=True)
class FiltrationPair:
    """A validated inclusion k1 <= k2 in prefix order: ``k2`` is stored
    reordered so that each layer r lists k1's layer r first, in k1's order,
    so k1's simplex i is k2's simplex i (1-based) in every layer.
    """

    k1: SimplicialComplex
    k2: SimplicialComplex


def validate_filtration(k1: SimplicialComplex, k2: SimplicialComplex) -> FiltrationPair:
    """Check k1 <= k2 and reorder k2 so each of its layers starts with k1's,
    or raise :class:`NotASubcomplex` naming a simplex of k1 missing from k2."""
    layers = dict(k2._rows)
    for r, rows in k1._rows.items():
        where = k2._find(r, rows)
        if (where < 0).any():
            raise NotASubcomplex(rows[np.argmax(where < 0)].tolist())
        new = np.ones(len(layers[r]), dtype=bool)
        new[where] = False
        layers[r] = np.concatenate([rows, layers[r][new]])
    return FiltrationPair(k1=k1, k2=SimplicialComplex(k2.n, layers))


# ---------------------------------------------------------------------------
# Chains: sparse rational coefficient vectors over one layer.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chain:
    """Dimension-tagged sparse chain with exact rational coefficients.

    ``coeffs`` maps 1-based layer indices to nonzero Fractions.
    """

    r: int
    coeffs: Mapping[int, Fraction]

    @staticmethod
    def make(r: int, coeffs: Mapping[int, object]) -> "Chain":
        return Chain._of(r, {int(i): f for i, c in coeffs.items() if (f := Fraction(c))})

    @staticmethod
    def _of(r: int, clean: dict[int, Fraction]) -> "Chain":
        """The chain of the nonzero Fractions ``clean`` at their int indices."""
        for i in clean:
            if i < 1:
                raise BadParameter(f"chain indices are 1-based, got {i}")
        return Chain(r=r, coeffs=clean)

    @staticmethod
    def from_simplices(k: SimplicialComplex, terms: Sequence[tuple[Iterable[int], object]]) -> "Chain":
        """Build a chain from (vertex tuple, coefficient) pairs."""
        if not terms:
            raise EmptyInput("no terms")
        simplices = [as_simplex(v) for v, _ in terms]
        rs = {len(s) - 1 for s in simplices}
        if len(rs) != 1:
            raise BadParameter("mixed-dimension terms")
        r = rs.pop()
        # a simplex with a vertex past the complex's is absent: as -1s, no id overflows int64
        where = k._find(r, [s if s[-1] < k.n else (-1,) * (r + 1) for s in simplices]).tolist()
        coeffs: dict[int, Fraction] = {}
        for s, i, (_, c) in zip(simplices, where, terms):
            if i < 0:
                raise BadParameter(f"simplex {s} is not in the complex")
            coeffs[i + 1] = coeffs.get(i + 1, Fraction(0)) + Fraction(c)
        return Chain.make(r, coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def dense(self, length: int) -> list[Fraction]:
        out = [Fraction(0)] * length
        for i, c in self.coeffs.items():
            if i > length:
                raise DimensionMismatch(f"chain index {i} exceeds layer size {length}")
            out[i - 1] = c
        return out

    def __sub__(self, other: "Chain") -> "Chain":
        if self.r != other.r:
            raise DimensionMismatch("chain dimensions differ")
        coeffs = dict(self.coeffs)
        for i, c in other.coeffs.items():
            coeffs[i] = coeffs.get(i, Fraction(0)) - c
        return Chain.make(self.r, coeffs)

    def norm(self) -> float:
        return sum(float(c) ** 2 for c in self.coeffs.values()) ** 0.5


def _check_rips(threshold: float, max_dim: int) -> None:
    """Raise :class:`BadParameter` unless :func:`vietoris_rips` takes the threshold and max_dim."""
    if max_dim < 0 or max_dim > 3:
        raise BadParameter("max_dim must be between 0 and 3 at desk scale")
    if not (np.isfinite(threshold) and threshold > 0):
        raise BadParameter(f"threshold must be finite and positive, not {threshold}")


def _squared_distances(pts: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances of the rows of a float array."""
    return ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)


def _diameters(d2: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each row's largest squared distance ``d2`` between two of its vertices, 0 for a vertex:
    the row is in the Rips complex at threshold t exactly when this is < t**2."""
    diam = np.zeros(len(rows))
    for i, j in combinations(range(rows.shape[1]), 2):
        diam = np.maximum(diam, d2[rows[:, i], rows[:, j]])
    return diam


def vietoris_rips(points: Sequence[Sequence[float]], threshold: float, max_dim: int = 2) -> SimplicialComplex:
    """Vietoris-Rips complex: cliques of the strict-threshold proximity graph.

    Every clique of at most max_dim+1 points whose pairwise Euclidean
    distances are all < threshold becomes a simplex.
    """
    _check_rips(threshold, max_dim)
    try:
        pts = np.asarray(points, dtype=float)
    except (TypeError, ValueError):  # a mapping, ragged rows or a non-numeric entry
        pts = np.empty(0)
    if pts.ndim != 2 or pts.shape[0] == 0 or not np.isfinite(pts).all():
        raise BadParameter("points must be a nonempty 2-d array of finite coordinates")
    n = pts.shape[0]
    later = np.triu(_squared_distances(pts) < threshold**2, 1)  # later[u, v]: v > u, uv short

    # An r-clique extends by the later vertices adjacent to all its members;
    # listing each clique's extensions in turn keeps every layer lexicographic.
    layers = {0: np.arange(n, dtype=np.int64)[:, None]}
    for r in range(1, max_dim + 1):
        parent, v = np.nonzero(np.logical_and.reduce(later[layers[r - 1]], axis=1))
        if not len(v):
            break
        layers[r] = np.column_stack([layers[r - 1][parent], v])
    return SimplicialComplex(n, layers)


_CANONICAL = {  # kind: the simplices whose closure it is
    "point": [[0]],
    "hollow_triangle": [[0, 1], [0, 2], [1, 2]],
    "filled_triangle": [[0, 1, 2]],
    "tetrahedron_boundary": list(combinations(range(4), 3)),
    # 7-vertex cyclic triangulation: 14 triangles, 21 edges, Euler = 0.
    "torus": [sorted((i % 7, (i + s) % 7, (i + 3) % 7)) for s in (1, 2) for i in range(7)],
    # octahedron boundary; opposite-vertex pairs (0,1) (2,3) (4,5)
    "sphere2": [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)],
}
_READS = {**dict.fromkeys(_CANONICAL, ()), "circle": ("m",),
          "vietoris_rips": ("points", "threshold", "max_dim")}


def generate(kind: str, *, m: int | None = None,
             points: Sequence[Sequence[float]] | None = None,
             threshold: float | None = None, max_dim: int = 2) -> SimplicialComplex:
    """Canonical and point-cloud complex generators.

    Kinds: point, hollow_triangle, filled_triangle, tetrahedron_boundary,
    torus and sphere2 read no parameter; circle reads m (>= 3 vertices);
    vietoris_rips reads points, threshold and max_dim.  An unknown kind, or a
    parameter that the kind does not read set off its default (None, or 2
    for max_dim), raises :class:`BadParameter`.
    """
    if kind not in _READS:
        raise BadParameter(f"unknown generator kind {kind!r}")
    given = {"m": m is not None, "points": points is not None,
             "threshold": threshold is not None, "max_dim": max_dim != 2}
    if unread := [name for name, set_ in given.items() if set_ and name not in _READS[kind]]:
        raise BadParameter(f"{kind} does not read {', '.join(unread)}")
    if kind in _CANONICAL:
        return build_complex(_CANONICAL[kind], autoclose=True)
    if kind == "circle":
        if m is None or m < 3:
            raise BadParameter("circle needs m >= 3")
        return build_complex([sorted((i, (i + 1) % m)) for i in range(m)], autoclose=True)
    if points is None or threshold is None:
        raise BadParameter("vietoris_rips needs points and threshold")
    return vietoris_rips(points, threshold, max_dim)
