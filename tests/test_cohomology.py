import numpy as np
import pytest

from homology_lab import (
    Chain,
    Cochain,
    boundary_matrix,
    build_complex,
    coboundary_matrix,
    evaluate,
    exact_betti,
    exact_rank,
    random_cocycle,
    sample_cycles,
    vietoris_rips,
)
from homology_lab import exact
from homology_lab import test_equivalent_cohomological as check_cohomological
from homology_lab import test_equivalent as check_equivalent
from homology_lab.errors import (
    BadParameter,
    DimensionMismatch,
    EmptyLayer,
    NotACycle,
)

from conftest import canonical_complexes


def basis_cochain(k, r, i):
    values = np.zeros(k.size(r))
    values[i - 1] = 1.0
    return Cochain(r=r, values=values)


# --- evaluation -----------------------------------------------------------------

def test_evaluate_kronecker_pairing(hollow_triangle):
    w = basis_cochain(hollow_triangle, 1, 1)
    c1 = Chain.make(1, {1: 1})
    c2 = Chain.make(1, {2: 1})
    assert evaluate(hollow_triangle, w, c1) == 1.0
    assert evaluate(hollow_triangle, w, c2) == 0.0
    assert evaluate(hollow_triangle, w, Chain.make(1, {})) == 0.0


def test_evaluate_dimension_mismatch(hollow_triangle):
    w = basis_cochain(hollow_triangle, 1, 1)
    with pytest.raises(DimensionMismatch):
        evaluate(hollow_triangle, w, Chain.make(0, {1: 1}))


# --- missing layers --------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(canonical_complexes()))
def test_missing_layers_read_as_zero_maps(name):
    # the boundary below dimension 1 and above the top layer is the zero map:
    # every 0-chain is a cycle and every top-layer cochain a cocycle
    from homology_lab.cohomology import cocycle_basis
    from homology_lab.spectra import cycle_basis

    k = canonical_complexes()[name]
    top = max(k.layers)
    assert cycle_basis(k, 0) == [{j: 1} for j in range(k.size(0))]
    assert cocycle_basis(k, top) == [{j: 1} for j in range(k.size(top))]


# --- random cocycles ---------------------------------------------------------------

def test_random_cocycle_unit_norm_in_kernel(filled_triangle):
    w = random_cocycle(filled_triangle, 1, seed=3)
    assert abs(w.norm() - 1.0) <= 1e-9
    delta = coboundary_matrix(filled_triangle, 1).toarray()
    assert np.linalg.norm(delta @ w.values) <= 1e-8
    # kernel of the degree-1 coboundary here is 2-dimensional (3 edges, rank 1)
    assert 3 - exact_rank(boundary_matrix(filled_triangle, 2).toarray()) == 2


def test_random_cocycle_free_when_no_triangles(hollow_triangle):
    # with no triangles every 1-cochain is a cocycle: the basis is all of C^1
    from homology_lab.cohomology import cocycle_basis

    w = random_cocycle(hollow_triangle, 1, seed=4)
    assert abs(w.norm() - 1.0) <= 1e-9
    assert cocycle_basis(hollow_triangle, 1) == [{0: 1}, {1: 1}, {2: 1}]


def test_random_cocycle_empty_layer():
    k = build_complex([[0], [1]])
    with pytest.raises(EmptyLayer):
        random_cocycle(k, 1, seed=0)


# --- cohomological equivalence testing ------------------------------------------------

def test_cohomological_identical_cycles(filled_square):
    c = Chain.from_simplices(filled_square, [([0, 1], 1), ([1, 2], 1), ([0, 2], -1)])
    verdict = check_cohomological(filled_square, c, c, seed=0)
    assert verdict.equivalent


def test_cohomological_distinguishes_disjoint_loops(two_hollow_triangles):
    k = two_hollow_triangles
    a = Chain.from_simplices(k, [([1, 2], 1), ([0, 2], -1), ([0, 1], 1)])
    b = Chain.from_simplices(k, [([4, 5], 1), ([3, 5], -1), ([3, 4], 1)])
    verdict = check_cohomological(k, a, b, witnesses=8, seed=1)
    assert not verdict.equivalent
    assert verdict.witness is not None
    assert not check_equivalent(k, a, b, mode="exact").answer


def test_cohomological_agrees_on_homologous_paths(filled_square):
    upper = Chain.from_simplices(filled_square, [([0, 1], 1), ([1, 2], 1), ([0, 2], -1)])
    lower = Chain.from_simplices(filled_square, [([0, 2], 1), ([2, 3], 1), ([0, 3], -1)])
    verdict = check_cohomological(filled_square, upper, lower, seed=2)
    assert verdict.equivalent
    assert check_equivalent(filled_square, upper, lower, mode="exact").answer


def test_cohomological_rejects_non_cycle(filled_square):
    bad = Chain.from_simplices(filled_square, [([0, 1], 1)])
    good = Chain.from_simplices(filled_square, [([0, 1], 1), ([1, 2], 1), ([0, 2], -1)])
    with pytest.raises(NotACycle):
        check_cohomological(filled_square, bad, good)


def test_cohomological_needs_a_witness(two_hollow_triangles):
    k = two_hollow_triangles
    a = Chain.from_simplices(k, [([1, 2], 1), ([0, 2], -1), ([0, 1], 1)])
    b = Chain.from_simplices(k, [([4, 5], 1), ([3, 5], -1), ([3, 4], 1)])
    for witnesses in (0, -1):
        with pytest.raises(BadParameter):
            check_cohomological(k, a, b, witnesses=witnesses, seed=0)


def two_rings(seed):
    """Rips complex of 25-40 jittered points on two disjoint unit circles (beta_1 = 2)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(25, 41))
    m = n // 2
    angles = np.r_[np.linspace(0, 2 * np.pi, m, endpoint=False),
                   np.linspace(0, 2 * np.pi, n - m, endpoint=False)] + rng.uniform(-0.1, 0.1, n)
    radii = 1 + rng.uniform(-0.05, 0.05, n)
    centres = np.where(np.arange(n) < m, 0.0, 3.0)
    points = np.c_[centres + radii * np.cos(angles), radii * np.sin(angles)]
    return vietoris_rips(points.tolist(), threshold=0.8, max_dim=2)


def plus_boundary(k, c, rng):
    """c plus the boundary of a random integer 2-chain: a homologous cycle."""
    d = boundary_matrix(k, 2).toarray() @ rng.integers(-2, 3, size=k.size(2))
    return c - Chain.make(1, {i + 1: -int(x) for i, x in enumerate(d)})


@pytest.mark.parametrize("seed", range(8))
def test_cohomological_matches_exact_on_two_rings(seed):
    k = two_rings(seed)
    rng = np.random.default_rng(seed)
    c1, c2 = sample_cycles(k, 1, s=2, seed=seed)
    pairs = [(c1, c2), (c1, plus_boundary(k, c1, rng)), (c2, plus_boundary(k, c1, rng))]
    assert check_equivalent(k, *pairs[1], mode="exact").answer
    delta = coboundary_matrix(k, 1)
    for a, b in pairs:
        want = check_equivalent(k, a, b, mode="exact").answer
        verdict = check_cohomological(k, a, b, witnesses=8, seed=seed)
        assert verdict.equivalent == want
        if not verdict.equivalent:
            # the witness is an exact integer cocycle that tells the cycles apart
            w = verdict.witness
            assert np.issubdtype(w.values.dtype, np.integer)
            assert not (delta @ w.values).any()
            assert sum(int(w.values[i - 1]) * x for i, x in (a - b).coeffs.items()) != 0


def test_cohomological_query_reduces_once_without_pinv_or_rank(monkeypatch):
    k = two_rings(0)
    c1, c2 = sample_cycles(k, 1, s=2, seed=0)
    calls = {"reduce_columns": 0, "rank": 0, "pinv": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(exact, "reduce_columns")
    counted(exact, "rank")
    counted(np.linalg, "pinv")
    assert not check_cohomological(k, c1, c2, witnesses=8, seed=0).equivalent
    assert calls == {"reduce_columns": 1, "rank": 0, "pinv": 0}
    random_cocycle(k, 1, seed=0)
    assert calls == {"reduce_columns": 2, "rank": 0, "pinv": 0}


# --- structural invariants ----------------------------------------------------------------

def test_coboundary_squares_to_zero():
    for name, k in canonical_complexes().items():
        for r in sorted(k.layers):
            if k.size(r + 1) == 0 or k.size(r + 2) == 0:
                continue
            lower = coboundary_matrix(k, r).toarray()
            upper = coboundary_matrix(k, r + 1).toarray()
            assert not (upper @ lower).any(), (name, r)


def test_cohomology_betti_matches_homology():
    # dim ker(delta^r) - rank(delta^{r-1}) equals the Betti number
    for name, k in canonical_complexes().items():
        for r in sorted(k.layers):
            if k.size(r) == 0:
                continue
            n = k.size(r)
            dim_ker = n - (exact_rank(boundary_matrix(k, r + 1).toarray())
                           if k.size(r + 1) else 0)
            rank_prev = (exact_rank(boundary_matrix(k, r).toarray())
                         if r >= 1 and k.size(r - 1) else 0)
            assert dim_ker - rank_prev == exact_betti(k, r), (name, r)


def test_cocycles_constant_on_homology_classes(filled_square):
    upper = Chain.from_simplices(filled_square, [([0, 1], 1), ([1, 2], 1), ([0, 2], -1)])
    lower = Chain.from_simplices(filled_square, [([0, 2], 1), ([2, 3], 1), ([0, 3], -1)])
    assert check_equivalent(filled_square, upper, lower, mode="exact").answer
    for seed in range(10):
        w = random_cocycle(filled_square, 1, seed=seed)
        gap = abs(evaluate(filled_square, w, upper) - evaluate(filled_square, w, lower))
        scale = 1e-8 * w.norm() * (upper.norm() + lower.norm())
        assert gap <= max(scale, 1e-8)


def test_coboundaries_vanish_on_cycles(filled_square):
    rng = np.random.default_rng(0)
    delta0 = coboundary_matrix(filled_square, 0).toarray()
    cycles = sample_cycles(filled_square, 1, s=6, seed=8)
    for _ in range(5):
        w0 = rng.standard_normal(filled_square.size(0))
        cob = Cochain(r=1, values=delta0 @ w0)
        for c in cycles:
            assert abs(evaluate(filled_square, cob, c)) <= 1e-8 * (1 + cob.norm() * c.norm())
