import copy
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from homology_lab import exact_persistent_betti, exact_rank, generate, validate_filtration
from homology_lab.exact import (
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
                assert rank(d.entries) == oracle_rank(d.toarray())
    d1 = boundary_matrix(k1, 1).toarray()
    basis = kernel_basis(boundary_matrix(k1, 1).entries)
    assert basis and len(basis) == d1.shape[1] - oracle_rank(d1)
    assert oracle_rank(basis) == len(basis)
    assert not np.any(d1 @ np.array(basis).T)
    if k2.size(2):
        padded = [v + [0] * (k2.size(1) - k1.size(1)) for v in basis]
        image = boundary_matrix(k2, 2).toarray()
        u, w = np.array(padded).T, image
        want = oracle_rank(u) + oracle_rank(w) - oracle_rank(np.hstack([u, w]))
        assert exact_persistent_betti(pair, 1) == len(basis) - want
