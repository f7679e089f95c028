"""Exact linear algebra over the rationals by sparse fraction-free reduction.

Every oracle in the package rests on one algorithm: column reduction of a
sparse matrix over the integers, as in boundary-matrix reduction for
persistent homology.  A column is reduced against the stored pivot columns,
keyed by their largest nonzero index, until its own largest index is free or
it vanishes.  Each step is ``a*v - b*p`` with ``a`` and ``b`` divided by their
gcd, followed by division by the content gcd, so entries stay small and no
fraction or modulus ever appears: the results are exact over Q.  Rational
input has its denominators cleared per vector.  No floating point enters any
code path here.

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


def _combine(a: int, v: Vector, b: int, p: Vector) -> Vector:
    """a*v - b*p with cancelled entries dropped."""
    out = {i: a * x for i, x in v.items()} if a != 1 else dict(v)
    for i, y in p.items():
        z = out.get(i, 0) - b * y
        if z:
            out[i] = z
        else:
            del out[i]
    return out


def _reduce(pivots: dict, v: Vector, t: Vector | None) -> tuple[Vector, Vector | None]:
    """v and its record t, reduced until v's largest index is no pivot or v vanishes."""
    while v:
        low = max(v)
        hit = pivots.get(low)
        if hit is None:
            break
        p, tp = hit
        a, b = p[low], v[low]
        g = gcd(a, b) if a > 0 else -gcd(a, b)
        a, b = a // g, b // g
        v = _combine(a, v, b, p)
        if t is not None:
            t = _combine(a, t, b, tp)
        g = gcd(*v.values(), *(t.values() if t is not None else ()))
        if g > 1:
            v = {i: x // g for i, x in v.items()}
            t = {i: x // g for i, x in t.items()} if t is not None else None
    return v, t


class Reduction:
    """Fraction-free column reduction of a growing list of vectors.

    ``pivots`` maps each pivot index (the largest index of a stored reduced
    vector) to that vector, so its size is the rank of everything added.
    With ``track`` the column operations are recorded, and every added
    vector that reduces to zero leaves in ``kernel`` the primitive integer
    combination of the added vectors (by position) that vanishes; its entry
    at the vanishing vector's own position is positive.
    """

    def __init__(self, vectors: Iterable = (), track: bool = False):
        self.pivots: dict[int, tuple[Vector, Vector | None]] = {}
        self.kernel: list[Vector] = []
        self.track = track
        self.added = 0
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, values) -> bool:
        """Reduce a vector (mapping or dense sequence) and store it as a new
        pivot unless it vanishes; returns whether the rank grew."""
        v, scale = _cleared(values)
        t = {self.added: scale} if self.track else None
        self.added += 1
        v, t = _reduce(self.pivots, v, t)
        if v:
            self.pivots[max(v)] = (v, t)
            return True
        if t is not None:
            self.kernel.append(t)
        return False

    def rank_modulo(self, vectors) -> int:
        """The rank of the vectors modulo the span of everything added, left as it is."""
        pivots = dict(self.pivots)
        for values in vectors:
            v, _ = _reduce(pivots, _cleared(values)[0], None)
            if v:
                pivots[max(v)] = (v, None)
        return len(pivots) - self.rank

    def contains(self, values) -> bool:
        """Whether a vector lies in the span of everything added."""
        return not self.rank_modulo([values])


def sparse_columns(m) -> list[Vector]:
    """Columns of a matrix as sparse vectors, one per column.

    Accepts a scipy sparse matrix, a dense array or list of rows, or a
    sequence of mappings, which are taken to be the columns already.
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
    """The column reduction of a matrix (anything :func:`sparse_columns` takes)."""
    return Reduction(sparse_columns(m), track=track)


def rank(m) -> int:
    """Exact rank over Q."""
    return reduce_columns(m).rank


def kernel_basis(m) -> list[list[int]]:
    """Basis of the right null space of ``m`` as dense integer columns.

    The vector for each column that depends on earlier ones is supported on
    that column (with a positive entry) and on the independent columns
    before it: the reduced-echelon kernel basis, scaled to be primitive.
    """
    cols = sparse_columns(m)
    return [[v.get(j, 0) for j in range(len(cols))]
            for v in Reduction(cols, track=True).kernel]

