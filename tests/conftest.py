"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's elimination code: rank and
solvability are recomputed with a plain Fraction Gauss-Jordan so that every
DERIVED expectation in the suite is checked against a second implementation.
The complex-handling references below are the per-simplex loop versions of
the library's array code (closure, face lookup, Rips cliques, filtration
reordering, chain boundaries), kept so the array code can be compared against
them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from homology_lab import build_complex, generate
from homology_lab.errors import BadParameter, DuplicateSimplex, EmptyInput, MissingFace, NotASubcomplex
from homology_lab.operators import boundary_matrix


def fraction_rows(m) -> list[list[Fraction]]:
    if hasattr(m, "toarray"):
        m = m.toarray()
    if hasattr(m, "tolist"):
        m = m.tolist()
    return [[Fraction(x) for x in row] for row in m]


def oracle_rank(m) -> int:
    """Rank by textbook Gauss-Jordan over exact rationals."""
    a = fraction_rows(m)
    if not a or not a[0]:
        return 0
    n_rows, n_cols = len(a), len(a[0])
    rank = 0
    for c in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][c]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(n_rows):
            if i != rank and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def oracle_solvable(m, v) -> bool:
    """Does m x = v have a rational solution?  Augmented elimination."""
    rows = fraction_rows(m)
    target = [Fraction(x) for x in v]
    if not rows:
        return all(x == 0 for x in target)
    aug = [row + [t] for row, t in zip(rows, target)]
    n_cols = len(rows[0])
    return oracle_rank(aug) == oracle_rank(rows)


def oracle_betti(k, r) -> int:
    """From-definition Betti number: dim ker of the r-boundary minus the rank
    of the (r+1)-boundary, all via the oracle eliminator."""
    n = k.size(r)
    if r == 0 or k.size(r - 1) == 0:
        dim_kernel = n
    else:
        dim_kernel = n - oracle_rank(boundary_matrix(k, r).toarray())
    if k.size(r + 1) == 0:
        rank_up = 0
    else:
        rank_up = oracle_rank(boundary_matrix(k, r + 1).toarray())
    return dim_kernel - rank_up


# --- loop references for the array-backed complex code -----------------------

def simplex_faces(s):
    """All (dim-1)-faces of ``s``, ordered by omitted-vertex position."""
    return [s[:i] + s[i + 1:] for i in range(len(s))]


def reference_build(simplices, autoclose=True):
    """(n, layers) of the complex ``build_complex`` builds, one simplex at a time."""
    listed, seen = {}, set()
    for raw in simplices:
        s = tuple(sorted(int(v) for v in raw))
        if not s:
            raise BadParameter("a simplex needs at least one vertex")
        if s[0] < 0:
            raise BadParameter(f"negative vertex id in {s}")
        if len(set(s)) != len(s):
            raise BadParameter(f"repeated vertex in {s}")
        if s in seen:
            raise DuplicateSimplex(f"simplex {s} listed twice")
        seen.add(s)
        listed.setdefault(len(s) - 1, []).append(s)
    if not seen:
        raise EmptyInput("no simplices given")
    layers = {r: list(listed.get(r, [])) for r in range(max(listed) + 1)}
    present = set(seen)
    for r in range(max(listed), 0, -1):
        missing = {f for s in layers[r] for f in simplex_faces(s) if f not in present}
        if missing and not autoclose:
            raise MissingFace(f"face {min(missing)} required but not listed")
        layers[r - 1] += sorted(missing)
        present |= missing
    return max(s[-1] for s in present) + 1, {r: tuple(v) for r, v in layers.items() if v}


def reference_incidence(layers, r, signed):
    """Boundary (``signed``) or face-incidence matrix by one dict lookup per face."""
    import scipy.sparse as sp

    index = {s: i for i, s in enumerate(layers[r - 1])}
    rows, cols, vals = [], [], []
    for j, s in enumerate(layers[r]):
        for i, f in enumerate(simplex_faces(s)):
            rows.append(index[f])
            cols.append(j)
            vals.append(-1 if signed and i % 2 else 1)
    return sp.csc_matrix((vals, (rows, cols)), shape=(len(layers[r - 1]), len(layers[r])),
                         dtype=int)


def reference_rips(points, threshold, max_dim):
    """Vietoris-Rips simplices, one clique check per candidate, in build order."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    close = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2) < threshold**2
    simplices = cliques = [(i,) for i in range(n)]
    for _ in range(max_dim):
        cliques = [cl + (v,) for cl in cliques for v in range(cl[-1] + 1, n)
                   if all(close[u, v] for u in cl)]
        simplices = simplices + cliques
        if not cliques:
            break
    return simplices


def reference_filtration_layers(k1, k2):
    """k2's layers reordered so k1's simplices come first, by set membership."""
    for r in sorted(k1.layers):
        in_k2 = set(k2.layer(r))
        for s in k1.layer(r):
            if s not in in_k2:
                raise NotASubcomplex(s)
    layers = {}
    for r in sorted(k2.layers):
        old = k1.layer(r)
        in_k1 = set(old)
        layers[r] = old + tuple(s for s in k2.layer(r) if s not in in_k1)
    return layers


def reference_boundary_of(k, c):
    """Boundary of a chain by one pass over every nonzero of the boundary matrix."""
    if c.r == 0:
        return []
    out = [Fraction(0)] * k.size(c.r - 1)
    d = boundary_matrix(k, c.r).entries.tocoo()
    for i, j, v in zip(d.row, d.col, d.data):
        cj = c.coeffs.get(j + 1)
        if cj is not None:
            out[i] += int(v) * cj
    return out


def gf2_betti(k, r) -> int:
    """Betti number over GF(2), each boundary column a bitset reduced by xor."""
    def rank(r):
        if r < 1 or not k.size(r):
            return 0
        index = {s: i for i, s in enumerate(k.layer(r - 1))}
        pivots = {}
        for s in k.layer(r):
            x = sum(1 << index[f] for f in simplex_faces(s))
            while x and (top := x.bit_length() - 1) in pivots:
                x ^= pivots[top]
            if x:
                pivots[top] = x
        return len(pivots)
    return k.size(r) - rank(r) - rank(r + 1)


def klein_grid(m):
    """The m x m triangulated Klein bottle: vertex (i, j) is i m + j, columns
    wrap as on a torus, rows wrap with j reflected, and each square of the grid
    is cut along its diagonal."""
    def v(i, j):
        i, j = (i - m, -j) if i >= m else (i, j)
        return i * m + j % m
    return build_complex([tri for i in range(m) for j in range(m)
                          for tri in ([v(i, j), v(i + 1, j), v(i + 1, j + 1)],
                                      [v(i, j), v(i, j + 1), v(i + 1, j + 1)])], autoclose=True)


# The 6-vertex real projective plane (the hemi-icosahedron): every pair of
# vertices is an edge, and every edge lies in exactly two of the 10 triangles.
RP2_TRIANGLES = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5],
                 [1, 2, 4], [2, 3, 5], [1, 3, 4], [2, 4, 5], [1, 3, 5]]


def rips_with_edges(n_points, per_point, seed, max_dim):
    """Rips complex of ``n_points`` uniform points of the unit square with the
    ``per_point * n_points`` shortest edges and their cliques up to ``max_dim``."""
    pts = np.random.default_rng([n_points, seed]).random((n_points, 2))
    d2 = np.sort(((pts[:, None] - pts[None]) ** 2).sum(axis=2)[np.triu_indices(n_points, 1)])
    m = per_point * n_points
    threshold = float(np.sqrt((d2[m - 1] + d2[m]) / 2))
    return generate("vietoris_rips", points=pts.tolist(), threshold=threshold, max_dim=max_dim)


def random_point_cloud(rng, n_points, dim=2, spread=1.0):
    return (rng.random((n_points, dim)) * spread).tolist()


def random_rips(seed, n_points=8, threshold=0.55, max_dim=2):
    rng = np.random.default_rng(seed)
    return generate("vietoris_rips", points=random_point_cloud(rng, n_points),
                    threshold=threshold, max_dim=max_dim)


def complete_graph(n: int, tail: int = 0):
    """K_n, with a path of ``tail`` pendant edges hung off vertex 0."""
    edges = [[i, j] for i in range(n) for j in range(i + 1, n)]
    return edges + [[0 if i == 0 else n + i - 1, n + i] for i in range(tail)]


def count_boundary_builds(monkeypatch) -> list[int]:
    """Record the dimension r of every boundary build made from now on: each
    ``boundary_matrix`` call, and each read of a whole r-boundary's integer columns
    by ``operators._boundary_columns`` that finds faces (a zero map builds nothing,
    and a chain's own columns are no build), through every ``homology_lab`` module
    that binds either name."""
    import sys

    from homology_lab import cli, operators  # noqa: F401 -- cli imports every module

    builds = []

    def counted(k, r):
        builds.append(r)
        return real(k, r)

    def read(k, r, cols=slice(None)):
        out = real_read(k, r, cols)
        if cols == slice(None) and out.nnz:
            builds.append(r)
        return out

    real, real_read = operators.boundary_matrix, operators._boundary_columns
    for name, module in list(sys.modules.items()):
        if name.startswith("homology_lab."):
            for attr, real_fn, fake in (("boundary_matrix", real, counted),
                                        ("_boundary_columns", real_read, read)):
                if getattr(module, attr, None) is real_fn:
                    monkeypatch.setattr(module, attr, fake)
    return builds


def count_reductions(monkeypatch) -> list[bool]:
    """Record the ``track`` flag of every ``exact.Reduction`` made from now on."""
    from homology_lab import exact

    made = []

    class Counted(exact.Reduction):
        def __init__(self, vectors=(), track=False):
            made.append(track)
            super().__init__(vectors, track)

    monkeypatch.setattr(exact, "Reduction", Counted)
    return made


def random_rips_filtration(seed, n_points=7, t1=0.4, t2=0.7, max_dim=2):
    from homology_lab import validate_filtration

    rng = np.random.default_rng(seed)
    pts = random_point_cloud(rng, n_points)
    k1 = generate("vietoris_rips", points=pts, threshold=t1, max_dim=max_dim)
    k2 = generate("vietoris_rips", points=pts, threshold=t2, max_dim=max_dim)
    return validate_filtration(k1, k2)


@pytest.fixture
def hollow_triangle():
    return generate("hollow_triangle")


@pytest.fixture
def filled_triangle():
    return generate("filled_triangle")


@pytest.fixture
def filled_square():
    """Square with one diagonal and both triangles filled."""
    return build_complex(
        [[0, 1], [1, 2], [2, 3], [0, 3], [0, 2], [0, 1, 2], [0, 2, 3]],
        autoclose=True,
    )


@pytest.fixture
def two_hollow_triangles():
    return build_complex(
        [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]], autoclose=True
    )


@pytest.fixture
def figure_eight():
    """Two edge loops sharing vertex 0."""
    return build_complex(
        [[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [0, 4]], autoclose=True
    )


def canonical_complexes():
    return {
        "point": generate("point"),
        "hollow_triangle": generate("hollow_triangle"),
        "filled_triangle": generate("filled_triangle"),
        "circle4": generate("circle", m=4),
        "circle8": generate("circle", m=8),
        "tetrahedron_boundary": generate("tetrahedron_boundary"),
        "torus": generate("torus"),
        "sphere2": generate("sphere2"),
    }
