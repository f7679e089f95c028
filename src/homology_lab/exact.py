"""Exact linear algebra over the rationals by sparse fraction-free reduction.

Every oracle in the package rests on one algorithm: column reduction of a
sparse matrix over the integers, as in boundary-matrix reduction for
persistent homology.  A column is reduced against the stored pivot columns,
keyed by their largest nonzero index, until its own largest index is free or
it vanishes.  Each step is ``a*v - b*p`` with ``a`` and ``b`` divided by their
gcd, followed by division by the content gcd, so entries stay small and no
fraction or modulus ever appears: the results are exact over Q.  One loop,
:func:`_reduce`, does every step, with a tracked record riding on negative
indices of the same vector.  Integer columns (:class:`Columns`, integer arrays
and scipy matrices) enter as they are; only other input is cleared of its
denominators, per vector.  No floating point enters any code path here.

Reduced columns have distinct pivots, so those with a pivot below a row prefix
span the column space's part on that prefix: one reduction of a boundary matrix
answers persistence queries (Zomorodian & Carlsson, DCG 2005).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd, lcm

Vector = dict  # sparse vector: index -> nonzero entry


def _cleared(values) -> tuple[Vector, int]:
    """Integer copy of a mapping or dense sequence, and the positive factor
    that cleared its denominators."""
    items = values.items() if isinstance(values, Mapping) else enumerate(values)
    items = [(i, x) for i, x in items if x]
    if all(type(x) is int or type(x) is Fraction and x.denominator == 1 for _, x in items):
        return {i: x.numerator for i, x in items}, 1
    items = [(i, Fraction(x)) for i, x in items]
    scale = lcm(*(x.denominator for _, x in items))
    return {i: int(x * scale) for i, x in items}, scale


def _reduce(pivots: dict, v: Vector) -> Vector | None:
    """Reduce the integer vector v until its largest index is a free pivot, where it is
    stored (returns None), or is negative (returns the rest: a record, if tracked).
    v is copied at its first step and then updated in place."""
    owned = False
    while v and (low := max(v)) >= 0:
        p = pivots.get(low)
        if p is None:
            pivots[low] = v
            return None
        a, b = p[low], v[low]
        g = gcd(a, b) if a > 0 else -gcd(a, b)
        a, b = a // g, b // g
        v = {i: a * x for i, x in v.items()} if a != 1 else v if owned else dict(v)
        owned = True
        for i, y in p.items():
            if z := v.get(i, 0) - b * y:
                v[i] = z
            else:
                del v[i]
        if (g := gcd(*v.values())) > 1:
            v = {i: x // g for i, x in v.items()}
    return v


class Reduction:
    """Fraction-free column reduction of a growing list of vectors: those given
    at construction (mappings or dense sequences) cleared of their denominators.

    ``pivots`` maps each pivot index (the largest index of a stored reduced
    vector) to that vector, so its size is the rank of everything added.
    With ``track`` the column operations are recorded (added vector j at
    index -1 - j), and every added vector that reduces to zero leaves in
    ``kernel`` the primitive integer combination of the added vectors (by
    position) that vanishes, positive at the vanishing vector's own position.
    """

    def __init__(self, vectors: Iterable = (), track: bool = False):
        self.pivots: dict[int, Vector] = {}
        self.kernel: list[Vector] = []
        self.track = track
        self.added = 0
        for v in vectors:
            self._add(*_cleared(v))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def extend(self, columns) -> Reduction:
        """Add integer columns (mappings to nonzero ints) as they are, uncleared; returns self."""
        for v in columns:
            self._add(v, 1)
        return self

    def _add(self, v: Vector, scale: int) -> None:
        if self.track:
            v = {**v, -1 - self.added: scale}
        self.added += 1
        rest = _reduce(self.pivots, v)
        if rest is not None and self.track:
            self.kernel.append({-1 - i: x for i, x in rest.items()})

    def rank_modulo(self, vectors) -> int:
        """The rank of the vectors modulo the span of everything added, left as it is."""
        pivots = dict(self.pivots)
        return sum(_reduce(pivots, _cleared(values)[0]) is None for values in vectors)


class Columns(list):
    """A matrix of ``shape`` as its integer columns, mappings to nonzero ints."""

    def __init__(self, columns, rows: int):
        super().__init__(columns)
        self.shape, self.nnz = (rows, len(self)), sum(map(len, self))

    def __getitem__(self, i):
        got = super().__getitem__(i)
        return Columns(got, self.shape[0]) if isinstance(i, slice) else got

    @property
    def T(self) -> Columns:
        """The transpose: row i's entries, keyed by column position, as column i."""
        rows: list[Vector] = [{} for _ in range(self.shape[0])]
        for j, col in enumerate(self):
            for i, x in col.items():
                rows[i][j] = x
        return Columns(rows, self.shape[1])


def sparse_columns(m) -> list[Vector]:
    """Columns of a matrix as sparse vectors, one per column.

    Accepts a scipy sparse matrix, a dense array or list of rows, or a
    sequence of mappings (such as :class:`Columns`), which are taken to be the
    columns already.
    """
    if hasattr(m, "tocsc"):
        c = m.tocsc()
        ptr, idx, data = c.indptr.tolist(), c.indices.tolist(), c.data.tolist()
        return [{i: x for i, x in zip(idx[s:e], data[s:e]) if x} for s, e in zip(ptr, ptr[1:])]
    rows = m.tolist() if hasattr(m, "tolist") else list(m)
    if rows and isinstance(rows[0], Mapping):
        return rows
    cols: list[Vector] = [{} for _ in range(len(rows[0]) if rows else 0)]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                cols[j][i] = x
    return cols


def reduce_columns(m, track: bool = False) -> Reduction:
    """The column reduction of a matrix (anything :func:`sparse_columns` takes).  One
    of :class:`Columns`, or of an integer array or scipy matrix, tracked or not, takes
    the integer columns as they are (:meth:`Reduction.extend`)."""
    cols = sparse_columns(m)
    ints = isinstance(m, Columns) or getattr(getattr(m, "dtype", None), "kind", None) in ("i", "u")
    return Reduction(track=track).extend(cols) if ints else Reduction(cols, track=track)


def rank(m) -> int:
    """Exact rank over Q."""
    return reduce_columns(m).rank


def kernel_basis(m) -> list[list[int]]:
    """Basis of the right null space of ``m`` as dense integer columns.

    The vector for each column that depends on earlier ones is supported on
    that column (with a positive entry) and on the independent columns
    before it: the reduced-echelon kernel basis, scaled to be primitive.
    """
    reduction = reduce_columns(m, track=True)
    return [[v.get(j, 0) for j in range(reduction.added)] for v in reduction.kernel]

