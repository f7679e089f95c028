import copy
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from homology_lab import exact_persistent_betti, exact_rank, generate, validate_filtration
from homology_lab.exact import (
    Columns,
    Reduction,
    kernel_basis,
    rank,
    reduce_columns,
    sparse_columns,
)
from homology_lab.operators import boundary_matrix

from conftest import oracle_rank, oracle_solvable, random_point_cloud


def test_rank_identity_and_zero():
    assert exact_rank(np.eye(5, dtype=int)) == 5
    assert exact_rank(np.zeros((4, 7), dtype=int)) == 0


def test_rank_hollow_triangle_incidence():
    # signed vertex-edge incidence of a 3-cycle has rank 2
    m = [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
    assert exact_rank(m) == 2


def test_rank_with_fractions():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 1)]]
    assert exact_rank(m) == 2
    m_singular = [[Fraction(1, 2), Fraction(1, 4)], [Fraction(2), Fraction(1)]]
    assert exact_rank(m_singular) == 1


def test_kernel_basis_spans_nullspace():
    m = [[1, 1, 0], [0, 0, 0]]
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(row[i] * v[i] for i in range(3)) == 0 for row in m)


def test_kernel_basis_of_rational_matrix():
    # denominators are cleared per column; the basis must still be of m's kernel
    m = [[Fraction(1, 2), Fraction(1, 3), 1], [Fraction(1, 4), Fraction(1, 6), Fraction(1, 2)]]
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(row[i] * v[i] for i in range(3)) == 0 for row in m)


def test_solve_consistent():
    m = [[1, 0], [0, 1], [1, 1]]
    assert reduce_columns(m).contains([2, 3, 5])
    assert not reduce_columns(m).contains([2, 3, 4])
    assert reduce_columns(m).contains({0: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(5, 6)})


def test_sparse_columns_of_every_input_kind():
    rows = [[1, 0, -2], [0, 0, 3]]
    cols = [{0: 1}, {}, {0: -2, 1: 3}]
    assert sparse_columns(rows) == cols
    assert sparse_columns(np.array(rows)) == cols
    assert sparse_columns(sp.csr_matrix(np.array(rows))) == cols
    assert sparse_columns(cols) == cols


small_int_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.integers(min_value=1, max_value=6).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=-5, max_value=5), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@given(small_int_matrices)
@settings(max_examples=150, deadline=None)
def test_reduction_rank_agrees_with_fraction_elimination(m):
    assert rank(m) == oracle_rank(m)


@given(small_int_matrices)
@settings(max_examples=80, deadline=None)
def test_nullity_rank_sum(m):
    n_cols = len(m[0])
    assert rank(m) + len(kernel_basis(m)) == n_cols


@given(small_int_matrices)
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


@given(small_int_matrices, st.lists(st.integers(min_value=-5, max_value=5), min_size=6, max_size=6))
@settings(max_examples=80, deadline=None)
def test_column_space_membership_agrees_with_oracle(m, target):
    v = target[:len(m)]
    assert reduce_columns(m).contains(v) == oracle_solvable(m, v)


@pytest.mark.parametrize("track", [False, True])
@pytest.mark.parametrize("seed", range(30))
def test_rank_modulo_is_the_rank_gain_and_leaves_the_reduction_as_it_is(seed, track):
    # B and C share a low-rank part, so C has dependent columns and columns in
    # span(B); rank_modulo(C) is rank(B | C) - rank(B) by the Fraction oracle
    rng = np.random.default_rng(seed)
    n, inner, nb, nc = (int(x) for x in rng.integers(1, 9, size=4))
    a = rng.integers(-3, 4, size=(n, inner))
    b = a @ rng.integers(-2, 3, size=(inner, nb))
    c = np.hstack([a @ rng.integers(-2, 3, size=(inner, nc)), rng.integers(-2, 3, size=(n, nc % 3))])
    c = [{i: Fraction(int(x), j + 2) for i, x in enumerate(col) if x} for j, col in enumerate(c.T)]
    reduction = Reduction(sparse_columns(b), track=track)
    before = copy.deepcopy((reduction.pivots, reduction.added, reduction.kernel))
    both = np.hstack([b, np.array([[v.get(i, 0) for v in c] for i in range(n)], dtype=object)])
    assert reduction.rank_modulo(c) == oracle_rank(both) - oracle_rank(b)
    assert reduction.rank_modulo([]) == 0
    for v in c:
        assert reduction.contains(v) == (reduction.rank_modulo([v]) == 0) == oracle_solvable(
            b, [v.get(i, 0) for i in range(n)])
    assert (reduction.pivots, reduction.added, reduction.kernel) == before


@pytest.mark.parametrize("seed", range(4))
def test_rips_boundaries_agree_with_oracle(seed):
    """Rank, kernel and persistent Betti number on boundary matrices of 25-40
    point Vietoris-Rips filtrations, against the Fraction Gauss-Jordan oracle."""
    rng = np.random.default_rng(1000 + seed)
    pts = random_point_cloud(rng, int(rng.integers(25, 41)))
    k1 = generate("vietoris_rips", points=pts, threshold=0.2, max_dim=2)
    pair = validate_filtration(k1, generate("vietoris_rips", points=pts, threshold=0.25,
                                            max_dim=2))
    k2 = pair.k2
    for k in (k1, k2):
        for r in (1, 2):
            if k.size(r):
                d = boundary_matrix(k, r)
                assert rank(d) == oracle_rank(d.toarray())
    d1 = boundary_matrix(k1, 1).toarray()
    basis = kernel_basis(boundary_matrix(k1, 1))
    assert basis and len(basis) == d1.shape[1] - oracle_rank(d1)
    assert oracle_rank(basis) == len(basis)
    assert not np.any(d1 @ np.array(basis).T)
    if k2.size(2):
        padded = [v + [0] * (k2.size(1) - k1.size(1)) for v in basis]
        image = boundary_matrix(k2, 2).toarray()
        u, w = np.array(padded).T, image
        want = oracle_rank(u) + oracle_rank(w) - oracle_rank(np.hstack([u, w]))
        assert exact_persistent_betti(pair, 1) == len(basis) - want


def _integer_and_rational_reductions(cols, n_rows, extra):
    """The integer path (columns taken as they are) and the cleared path (the same
    columns divided by j + 2), with their ranks modulo ``extra``."""
    ints = reduce_columns(Columns(cols, n_rows))
    rational = Reduction([{i: Fraction(x, j + 2) for i, x in c.items()} for j, c in enumerate(cols)])
    return [(r.rank, sorted(r.pivots), r.rank_modulo(extra), r.added) for r in (ints, rational)]


def _random_columns(rng, n_rows, n_cols, boundary_like):
    """Low-rank integer columns, or columns of r + 1 signed units at distinct rows
    (shaped like a boundary), some of them sums of earlier ones."""
    if not boundary_like:
        inner = int(rng.integers(1, min(n_rows, n_cols) + 1))
        m = rng.integers(-4, 5, size=(n_rows, inner)) @ rng.integers(-3, 4, size=(inner, n_cols))
        m[rng.random(m.shape) < 0.3] = 0
        return [{i: int(x) for i, x in enumerate(col) if x} for col in m.T]
    r = int(rng.integers(1, 4))
    cols = []
    for _ in range(n_cols):
        if cols and rng.random() < 0.25:
            a, b = (cols[int(j)] for j in rng.integers(len(cols), size=2))
            col = {i: a.get(i, 0) - b.get(i, 0) for i in a.keys() | b.keys()}
            cols.append({i: x for i, x in col.items() if x})
        else:
            rows = rng.choice(n_rows, size=min(r + 1, n_rows), replace=False).tolist()
            cols.append({i: (-1) ** s for s, i in enumerate(sorted(rows))})
    return cols


@pytest.mark.parametrize("boundary_like", [False, True], ids=["integer", "boundary"])
@pytest.mark.parametrize("seed", range(25))
def test_integer_columns_reduce_as_their_cleared_rational_copy(seed, boundary_like):
    # up to 40 x 60: the same rank, pivots and rank modulo five more vectors
    # (rational, so they are cleared) on both paths, and the oracle's rank
    rng = np.random.default_rng([seed, boundary_like])
    n_rows, n_cols = int(rng.integers(1, 41)), int(rng.integers(1, 61))
    cols = _random_columns(rng, n_rows, n_cols, boundary_like)
    extra = [{i: Fraction(x, 3) for i, x in c.items()}
             for c in _random_columns(rng, n_rows, 5, boundary_like)]
    ints, rational = _integer_and_rational_reductions(cols, n_rows, extra)
    assert ints == rational
    if seed < 5:
        dense = np.array([[c.get(i, 0) for c in cols] for i in range(n_rows)])
        assert ints[0] == oracle_rank(dense) == rank(dense)
        assert ints[0] + len(kernel_basis(dense)) == n_cols


def test_integer_columns_are_not_cleared_and_rational_ones_are(monkeypatch):
    from homology_lab import exact

    calls = []
    real = exact._cleared
    monkeypatch.setattr(exact, "_cleared", lambda values: calls.append(values) or real(values))
    m = np.array([[2, 0, 2], [0, 3, 3], [1, 1, 2]])
    assert rank(Columns(sparse_columns(m), 3)) == rank(m) == rank(sp.csc_matrix(m)) == 2
    assert calls == []
    fractions = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 1)]]
    assert exact_rank(fractions) == 2 and len(calls) == 2
    # a tracked reduction takes integer columns as they are, and clears rational ones
    assert len(kernel_basis(m)) == 1 and len(calls) == 2
    thirds = [[Fraction(x, 3) for x in row] for row in m.tolist()]
    assert kernel_basis(thirds) == kernel_basis(m) and len(calls) == 5


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (4, 0), (1, 1), (6, 3), (17, 29), (40, 12)])
def test_columns_transpose_is_scipys(shape):
    # random integer matrices, the empty shapes among them: entries, shape, nnz
    rng = np.random.default_rng(shape)
    m = rng.integers(-3, 4, size=shape)
    m[rng.random(shape) < 0.5] = 0
    cols = Columns(sparse_columns(sp.csc_matrix(m)), shape[0])
    t, want = cols.T, sp.csc_matrix(m).T
    assert isinstance(t, Columns) and t == sparse_columns(want)
    assert (t.shape, t.nnz) == (want.shape, want.nnz) == (shape[::-1], np.count_nonzero(m))
    assert t.T == cols and t.T.shape == cols.shape and t.T.nnz == cols.nnz
