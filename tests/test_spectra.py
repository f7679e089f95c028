from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from homology_lab import (
    boundary_matrix,
    build_complex,
    chebyshev_filter,
    estimate_normalized_betti,
    estimate_normalized_persistent_betti,
    exact_betti,
    exact_persistent_betti,
    exact_rank,
    generate,
    persistent_up_laplacian,
    power_moments_rank,
    sample_cycles,
    stochastic_rank,
    validate_filtration,
)
from homology_lab import exact, spectra
from homology_lab import test_equivalent_cohomological as check_cohomological
from homology_lab.cohomology import cocycle_basis
from homology_lab.complexes import Chain, FiltrationPair, SimplicialComplex
from homology_lab.errors import (
    BadParameter,
    DegreeTooHigh,
    RouteDisagreement,
    SpectralNormExceeded,
    StructuralViolation,
)
from homology_lab.homology import _unit_columns
from homology_lab.operators import _boundary
from homology_lab.spectra import (
    MAX_MOMENT_DEGREE,
    _rescaled,
    _smoothed_step,
    hodge_basis,
    residual_rank,
)

from conftest import (
    RP2_TRIANGLES,
    canonical_complexes,
    count_boundary_builds,
    count_reductions,
    klein_grid,
    oracle_betti,
    random_rips,
    random_rips_filtration,
    reference_residual_rank,
    rips_with_edges,
)


# --- exact Betti ---------------------------------------------------------------

def test_exact_betti_canonical_values():
    expected = {
        "point": [1],
        "hollow_triangle": [1, 1],
        "filled_triangle": [1, 0],
        "circle4": [1, 1],
        "circle8": [1, 1],
        "tetrahedron_boundary": [1, 0, 1],
        "torus": [1, 2, 1],
        "sphere2": [1, 0, 1],
    }
    for name, k in canonical_complexes().items():
        got = [exact_betti(k, r) for r in range(len(expected[name]))]
        assert got == expected[name], name


def _gf2_rank(m) -> int:
    rows = [int("".join(str(int(x) % 2) for x in row), 2) for row in np.asarray(m)]
    rank = 0
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            top = pivot.bit_length() - 1
            rows = [r ^ pivot if r >> top & 1 else r for r in rows]
    return rank


def test_exact_betti_is_rational_not_modular():
    # The torsion of RP^2 shows over GF(2) (rank of boundary_2 drops to 9) but
    # not over Q, where the Betti numbers are those of a point.
    k = build_complex(RP2_TRIANGLES, autoclose=True)
    assert [k.size(r) for r in range(3)] == [6, 15, 10]
    d2 = boundary_matrix(k, 2).toarray()
    assert exact_rank(boundary_matrix(k, 2)) == 10
    assert _gf2_rank(d2) == 9
    assert [exact_betti(k, r) for r in range(3)] == [1, 0, 0]


def test_exact_betti_matches_definition_oracle():
    for name, k in canonical_complexes().items():
        for r in sorted(k.layers):
            if k.size(r) == 0:
                continue
            assert exact_betti(k, r) == oracle_betti(k, r), (name, r)


@pytest.mark.parametrize("seed", range(5))
def test_exact_betti_definition_oracle_random(seed):
    k = random_rips(seed)
    for r in sorted(k.layers):
        if k.size(r) == 0:
            continue
        assert exact_betti(k, r) == oracle_betti(k, r)


def test_exact_betti_relabeling_invariance():
    # permuting vertex labels permutes simplices within layers only
    k = generate("circle", m=6)
    relabeled = build_complex(
        [sorted((v * 5) % 6 for v in s) for s in k.simplices()], autoclose=True
    )
    for r in (0, 1):
        assert exact_betti(k, r) == exact_betti(relabeled, r)


def test_exact_betti_layer_order_invariance():
    k = generate("torus")
    rng = np.random.default_rng(0)
    simplices = k.simplices()
    rng.shuffle(simplices)
    shuffled = build_complex(simplices, autoclose=True)
    for r in (0, 1, 2):
        assert exact_betti(k, r) == exact_betti(shuffled, r)


@pytest.mark.parametrize("d", range(2, 7))
def test_simplex_boundary_sphere_answers_are_known(d):
    # the boundary of the d-simplex is a (d-1)-sphere: beta_0 = beta_{d-1} = 1
    k = build_complex(combinations(range(d + 1), d))
    want = [1] + [0] * (d - 2) + [1]
    assert [exact_betti(k, r) for r in range(d)] == want
    for r in range(d):
        est = estimate_normalized_betti(k, r, seed=d)
        assert (est.betti(), est.low_confidence) == (want[r], False)


def suspension(k):
    """Sigma K: every simplex of K, and each one joined to two new apexes."""
    a, b = k.n, k.n + 1
    return build_complex(k.simplices() + [s + (v,) for v in (a, b) for s in k.simplices()])


@pytest.mark.parametrize("n,per_point,seed", [(30, 1, 0), (40, 2, 1), (60, 2, 3)])
def test_suspension_shifts_every_class_up_one_dimension(n, per_point, seed):
    # beta_{r+1}(Sigma K) = beta_r(K) for r >= 1, beta_1(Sigma K) = beta_0(K) - 1
    # and Sigma K is connected; K has no 3-simplex, so 2-cycles stay hollow
    k = rips_with_edges(n, per_point, seed, max_dim=2)
    below = [exact_betti(k, r) for r in range(3)]
    want = [1, below[0] - 1, *below[1:]]
    assert want[1] and any(want[2:])
    s = suspension(k)
    assert [exact_betti(s, r) for r in range(4)] == want
    for r in range(4):
        est = estimate_normalized_betti(s, r, seed=seed)
        assert (est.betti(), est.low_confidence) == (want[r], False)


# --- persistent Betti, two routes ----------------------------------------------

def test_persistent_betti_hollow_to_filled():
    pair = validate_filtration(generate("hollow_triangle"), generate("filled_triangle"))
    assert exact_persistent_betti(pair, 1) == 0
    assert exact_betti(pair.k1, 1) == 1  # alive at the first scale, dead later


def test_persistent_betti_identity_circle():
    k = generate("circle", m=4)
    pair = validate_filtration(k, k)
    assert exact_persistent_betti(pair, 1) == 1


def test_persistent_betti_two_vertices_to_edge():
    k1 = build_complex([[0], [1]])
    k2 = build_complex([[0, 1]], autoclose=True)
    pair = validate_filtration(k1, k2)
    assert exact_persistent_betti(pair, 0) == 1


@pytest.mark.parametrize("seed", range(12))
def test_persistent_routes_agree_random(seed):
    pair = random_rips_filtration(seed)
    for r in (0, 1):
        if pair.k1.size(r) == 0:
            continue
        exact_persistent_betti(pair, r)  # raises RouteDisagreement on mismatch


def _persistent_rank_identity(pair, r) -> int:
    """|S_r(k1)| - rank d_r(k1) - rank D + rank G, with D the (r+1)-boundary
    of k2 and G its block on k2's new r- and (r+1)-simplices: the boundaries
    of k2 inside k1's chains are D's image under the rows of k1, of dimension
    rank D - rank G, since k1's (r+1)-simplices have their faces in k1."""
    k1, k2 = pair.k1, pair.k2
    n1 = k1.size(r)
    d_r = exact.rank(boundary_matrix(k1, r)) if r and k1.size(r - 1) else 0
    if not k2.size(r + 1):
        return n1 - d_r
    d = boundary_matrix(k2, r + 1)
    return n1 - d_r - exact.rank(d) + exact.rank(d[n1:, k1.size(r + 1):])


def test_persistent_betti_matches_the_rank_identity_on_rips_filtrations():
    values = {}
    for seed in range(30):
        rng = np.random.default_rng(seed)
        pts = rng.random((int(rng.integers(6, 41)), 2)).tolist()
        t1 = float(rng.uniform(0.2, 0.45))
        t2 = t1 + float(rng.uniform(0.005, 0.04))
        k1, k2 = (generate("vietoris_rips", points=pts, threshold=t, max_dim=2) for t in (t1, t2))
        pair = validate_filtration(k1, k2)
        for r in (0, 1, 2):
            if k1.size(r):
                values[seed, r] = exact_persistent_betti(pair, r)
                assert values[seed, r] == _persistent_rank_identity(pair, r), (seed, r)
    assert len(values) >= 80
    assert 3 * sum(v > 0 for v in values.values()) >= len(values)
    assert any(v for (_, r), v in values.items() if r == 1)


def test_persistent_betti_route_a_tracks_no_reduction(monkeypatch):
    pair = random_rips_filtration(3, n_points=20, t1=0.3, t2=0.4)
    made = count_reductions(monkeypatch)
    for r in (0, 1, 2):
        made.clear()
        exact_persistent_betti(pair, r)
        assert made and not any(made)  # plain reductions only: no kernel is tracked


def test_persistent_betti_cross_check_fires_when_route_a_is_off_by_one(monkeypatch):
    # one pivot inside k1's prefix dropped from route A's reduction of d_2(k2);
    # route B reduces d_2(k2)'s rows, a call of another shape, and stays right
    pair = random_rips_filtration(3, n_points=20, t1=0.3, t2=0.4)
    k1, k2 = pair.k1, pair.k2
    shape = (k2.size(1), k2.size(2))
    assert shape[0] != shape[1] and shape != (k1.size(0), k1.size(1))
    right = exact_persistent_betti(pair, 1)
    mutated = []
    real = exact.reduce_columns

    def off_by_one(m, track=False):
        reduction = real(m, track)
        if m.shape == shape:
            lowest = min(reduction.pivots)
            assert lowest < k1.size(1)
            del reduction.pivots[lowest]
            mutated.append(m.shape)
        return reduction

    monkeypatch.setattr(exact, "reduce_columns", off_by_one)
    with pytest.raises(RouteDisagreement) as err:
        exact_persistent_betti(pair, 1)
    assert (err.value.route_a, err.value.route_b) == (right + 1, right)
    assert mutated == [shape]


def test_persistent_betti_raises_on_a_pair_out_of_prefix_order():
    # k2's edges in the reverse of k1's order: its d_1 has no k1 prefix block
    hollow, filled = generate("hollow_triangle"), generate("filled_triangle")
    layers = dict(filled._rows)
    layers[1] = layers[1][::-1]
    pair = FiltrationPair(k1=hollow, k2=SimplicialComplex(filled.n, layers))
    with pytest.raises(StructuralViolation):
        exact_persistent_betti(pair, 0)


def _with_layer(k, r, rows):
    layers = dict(k._rows)
    layers[r] = rows
    return SimplicialComplex(k.n, layers)


def _broken_pairs():
    """Hand-built pairs whose k2 breaks the split [B R; 0 G] at r, with the
    message of the check that fires: an old edge on a vertex row past k1's
    prefix (lower left), or k1's simplices inside the prefix in another order."""
    hollow, filled = generate("hollow_triangle"), generate("filled_triangle")
    edge = build_complex([[0, 1]])
    return {
        "lower_left": (edge, _with_layer(hollow, 0, hollow._rows[0][[0, 2, 1]]), 0, "closure"),
        "reversed_edges": (hollow, _with_layer(filled, 1, filled._rows[1][::-1]), 0, "prefix block"),
        "rotated_edges": (filled, _with_layer(filled, 1, np.roll(filled._rows[1], 1, axis=0)), 1,
                          "prefix block"),
    }


@pytest.mark.parametrize("caller", [exact_persistent_betti, persistent_up_laplacian],
                         ids=["exact_persistent_betti", "persistent_up_laplacian"])
@pytest.mark.parametrize("case", ["lower_left", "reversed_edges", "rotated_edges"])
def test_both_structural_checks_fire_from_both_callers(case, caller):
    k1, k2, r, match = _broken_pairs()[case]
    with pytest.raises(StructuralViolation, match=match):
        caller(FiltrationPair(k1=k1, k2=k2), r)


def test_persistent_betti_is_float_free_and_builds_at_most_four_boundaries(monkeypatch):
    # d_r of k1, and d_r+1 of k1 and of k2 for the block check; both routes
    # reduce the block check's d_r+1 of k2
    pair = random_rips_filtration(3, n_points=20, t1=0.3, t2=0.4, max_dim=3)
    for name in dir(np.linalg):
        if callable(getattr(np.linalg, name)) and not name[0].isupper():
            monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, **kw: pytest.fail(_name))
    builds = count_boundary_builds(monkeypatch)
    for r in (0, 1, 2):
        assert pair.k1.size(r + 1)
        builds.clear()
        exact_persistent_betti(pair, r)
        assert sorted(builds) == [r] * (r > 0) + [r + 1] * 2


def test_persistent_routes_small_case_sweep():
    # every nesting pair among the small canonical complexes (<= 50 simplices)
    small = {name: k for name, k in canonical_complexes().items() if k.total_size() <= 50}
    complexes = list(small.values())
    complexes.append(build_complex([[0, 1]], autoclose=True))
    checked = 0
    for k1 in complexes:
        for k2 in complexes:
            try:
                pair = validate_filtration(k1, k2)
            except Exception:
                continue
            for r in sorted(k1.layers):
                if k1.size(r) == 0:
                    continue
                exact_persistent_betti(pair, r)
                checked += 1
    assert checked >= 20


# --- Chebyshev filter -------------------------------------------------------------

def test_filter_endpoints_default_regime():
    filt = chebyshev_filter(0.01, 64)
    assert abs(filt(1.0) - 1.0) <= 0.05
    assert abs(filt(0.0)) <= 0.05


def test_filter_reproducible():
    a = chebyshev_filter(0.3, 16)
    b = chebyshev_filter(0.3, 16)
    assert a.coeffs == b.coeffs


@pytest.mark.parametrize("degree", [1, 64, 2047, 2048, 2 * 2048 + 5])
def test_filter_coefficients_match_the_cosine_sum(degree):
    # c_j = (2/N) sum_k f(x_k) cos(j theta_k), c_0 halved, at every degree,
    # including those past the N = 2048 quadrature points where cosines alias
    n = 2048
    theta = np.pi * (np.arange(n) + 0.5) / n
    f = _smoothed_step(0.5 * (np.cos(theta) + 1.0), 0.05)
    want = (2.0 / n) * np.cos(np.outer(np.arange(degree + 1), theta)) @ f
    want[0] *= 0.5
    got = np.array(chebyshev_filter(0.05, degree).coeffs)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("degree", [1, 16, 64, 2053])
def test_filter_values_match_the_cosine_series(degree):
    # p(x) = sum_j c_j T_j(2x - 1), T_j(y) = cos(j arccos y), on a grid of [0, 1]
    filt = chebyshev_filter(0.05, degree)
    x = np.linspace(0.0, 1.0, 21)
    want = np.cos(np.outer(np.arccos(2.0 * x - 1.0), np.arange(degree + 1))) @ filt.coeffs
    got = np.array([filt(t) for t in x])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_filter_rejects_bad_parameters():
    with pytest.raises(BadParameter):
        chebyshev_filter(0.01, 0)
    with pytest.raises(BadParameter):
        chebyshev_filter(1.5, 8)


# --- stochastic rank ---------------------------------------------------------------

def test_stochastic_rank_half_identity():
    a = np.eye(64) * 0.5
    est = stochastic_rank(a, chebyshev_filter(0.01, 64), n_v=200, seed=0)
    assert abs(est.normalized - 1.0) <= 0.05


def test_stochastic_rank_zero_matrix():
    a = np.zeros((32, 32))
    est = stochastic_rank(a, chebyshev_filter(0.01, 64), n_v=100, seed=0)
    assert abs(est.normalized) <= 0.05


def test_stochastic_rank_half_rank_diagonal():
    a = np.diag([0.9] * 8 + [0.0] * 8)
    est = stochastic_rank(a, chebyshev_filter(0.01, 64), n_v=200, seed=11)
    assert abs(est.normalized - 0.5) <= 0.05


def test_stochastic_rank_rejects_large_norm():
    with pytest.raises(SpectralNormExceeded):
        stochastic_rank(np.eye(8) * 1.5, chebyshev_filter(0.1, 16), n_v=10, seed=0)


def test_stochastic_rank_deterministic_for_seed():
    a = np.diag([0.8] * 4 + [0.0] * 4)
    filt = chebyshev_filter(0.05, 32)
    r1 = stochastic_rank(a, filt, n_v=50, seed=123)
    r2 = stochastic_rank(a, filt, n_v=50, seed=123)
    assert r1 == r2


def test_probe_sequence_is_prefix_stable():
    # probes are drawn one after another from one generator: a larger batch
    # starts with the smaller batch, so chunked evaluation reproduces it
    from homology_lab.spectra import _probe_matrix

    small = _probe_matrix(16, 4, seed=42)
    large = _probe_matrix(16, 12, seed=42)
    assert np.array_equal(small, large[:, :4])


@pytest.mark.parametrize("n", [1, 2, 5, 30, 540])
def test_rademacher_entries_are_exactly_plus_or_minus_one_over_root_n(n):
    from homology_lab.spectra import _probe_matrix

    v = _probe_matrix(n, 200, seed=3)
    assert v.shape == (n, 200)
    assert v.flags.c_contiguous
    assert np.all(np.abs(v) == 1.0 / np.sqrt(n))
    assert np.any(v > 0) and np.any(v < 0)


@pytest.mark.parametrize("n, n_v, seed", [(1, 1, 0), (5, 3, 1), (30, 200, 2), (540, 200, 3),
                                          (561, 7, 4)])
def test_rademacher_block_equals_the_byte_transposed_construction(n, n_v, seed):
    from homology_lab.spectra import _probe_matrix

    v = _probe_matrix(n, n_v, seed=seed)
    former = np.random.default_rng(seed).integers(0, 2, size=(n_v, n)).astype(np.int8)
    former = former.T.astype(float, order="C")
    scale = 1.0 / np.sqrt(n)
    former *= 2.0 * scale
    former -= scale
    assert np.array_equal(v, former) and v.flags.c_contiguous


@pytest.mark.parametrize("probe_kind", ["rademacher"])  # the one probe kind
def test_probe_matrix_builds_one_generator_and_spawns_no_seeds(monkeypatch, probe_kind):
    from homology_lab.spectra import _probe_matrix

    made, spawned = [], []
    default_rng = np.random.default_rng

    def counting_default_rng(seed=None):
        made.append(seed)
        return default_rng(seed)

    class CountingGenerator(np.random.Generator):
        def __init__(self, bit_generator):
            made.append(bit_generator)
            super().__init__(bit_generator)

    class CountingSeedSequence(np.random.SeedSequence):
        def spawn(self, n_children):
            spawned.append(n_children)
            return super().spawn(n_children)

    monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    _probe_matrix(40, 200, seed=9)
    assert (len(made), spawned) == (1, [])


def _recurrence_reference(a, filt, n_v, seed):
    """Mean over probes of sum_j c_j v^T T_j(2A - 1) v, with T_j v built by the
    three-term recurrence one probe column at a time, on the dense B."""
    from homology_lab.spectra import _probe_matrix

    a = sp.csr_matrix(a).toarray()
    v = _probe_matrix(a.shape[0], n_v, seed)
    b = 2.0 * a - np.eye(a.shape[0])
    per_probe = []
    for x in v.T:
        t_prev, t_cur = x, b @ x
        total = filt.coeffs[0] * (x @ t_prev) + filt.coeffs[1] * (x @ t_cur)
        for c in filt.coeffs[2:]:
            t_prev, t_cur = t_cur, 2.0 * (b @ t_cur) - t_prev
            total += c * (x @ t_cur)
        per_probe.append(total)
    return float(np.mean(per_probe))


def _spectrum_past_one(n=40):
    """Symmetric matrix with top eigenvalue 1.05 that the norm guard passes:
    the 1.05 direction is orthogonal to the power iteration's start vector,
    so the guard sees 1.0, as when the rescaling underestimates the norm."""
    rng = np.random.default_rng(4)
    start = np.random.default_rng(0).standard_normal(n)  # power_iteration_bound's seed
    q, _ = np.linalg.qr(np.column_stack([start, rng.standard_normal((n, n - 1))]))
    eigs = np.concatenate([[1.0, 1.05], rng.uniform(0.1, 1.0, n // 2 - 2), np.zeros(n - n // 2)])
    a = (q * eigs) @ q.T
    return (a + a.T) / 2


@pytest.mark.parametrize("degree", [1, 2, 3, 64, 65, 257])
@pytest.mark.parametrize("probe_kind", ["rademacher"])  # the one probe kind
@pytest.mark.parametrize("fmt", ["dense", "csr"])
@pytest.mark.parametrize("spectrum", ["unit", "past_one"])
def test_stochastic_rank_matches_the_three_term_recurrence(degree, probe_kind, fmt, spectrum):
    # the doubling identities give the same forms v^T T_j v as the recurrence,
    # also where T_j grows because the spectrum leaves [0, 1]
    from homology_lab.spectra import power_iteration_bound

    if spectrum == "unit":
        a, _ = _random_psd(np.random.default_rng(6), 40)
    else:
        a = _spectrum_past_one()
        assert np.linalg.eigvalsh(a)[-1] == pytest.approx(1.05)
        assert power_iteration_bound(a) <= 1.0 + 1e-6
    filt = chebyshev_filter(0.05, degree)
    got = stochastic_rank(a if fmt == "dense" else sp.csr_matrix(a), filt, n_v=12, seed=2)
    want = _recurrence_reference(a, filt, 12, 2)
    assert got.raw == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("degree", [1, 2, 3, 64, 65, 257])
def test_stochastic_rank_makes_half_the_degree_in_products(monkeypatch, degree):
    # every product is one call of the CSR kernel on the whole probe block
    from scipy.sparse import _sparsetools

    calls = []
    kernel = _sparsetools.csr_matvecs

    def counting(n_row, n_col, n_vecs, indptr, indices, data, x, y):
        calls.append((n_row, n_col, n_vecs, x.size, y.size))
        return kernel(n_row, n_col, n_vecs, indptr, indices, data, x, y)

    monkeypatch.setattr(_sparsetools, "csr_matvecs", counting)
    n, n_v = 10, 8
    stochastic_rank(np.diag([0.9] * 5 + [0.0] * 5), chebyshev_filter(0.05, degree), n_v=n_v, seed=0)
    assert len(calls) == -(-degree // 2)  # ceil(m / 2)
    assert set(calls) == {(n, n, n_v, n * n_v, n * n_v)}


@pytest.mark.parametrize("shape", [(1, 1, 1), (7, 5, 3), (40, 40, 24), (33, 60, 200)])
def test_csr_kernel_adds_the_product_into_its_output(shape):
    # the estimator and harmonic_basis call scipy's private kernel directly:
    # it must add A X into Y in place, X and Y row-major
    from scipy.sparse._sparsetools import csr_matvecs

    n_row, n_col, n_vecs = shape
    rng = np.random.default_rng(sum(shape))
    a = sp.random(n_row, n_col, density=0.3, format="csr", random_state=rng)
    x, y = rng.standard_normal((n_col, n_vecs)), rng.standard_normal((n_row, n_vecs))
    want = y + a.toarray() @ x
    flat = y.reshape(-1)
    csr_matvecs(n_row, n_col, n_vecs, a.indptr, a.indices, a.data, x.reshape(-1), flat)
    assert np.shares_memory(flat, y)
    assert np.allclose(y, want, rtol=1e-13, atol=1e-13)


def test_stochastic_rank_holds_few_probe_blocks():
    # the recurrence runs in two preallocated blocks: no step allocates one
    import tracemalloc

    from homology_lab.operators import laplacian
    from homology_lab.spectra import _rescaled

    pts = np.random.default_rng(0).random((140, 2))
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    threshold = float(np.sqrt(np.sort(d2[np.triu_indices(140, 1)])[559:561].mean()))
    k = generate("vietoris_rips", points=pts.tolist(), threshold=threshold, max_dim=2)
    assert k.size(1) == 560
    lap, _ = _rescaled(sp.csr_matrix(laplacian(k, 1), dtype=float))
    filt, n_v = chebyshev_filter(0.01, 64), 200
    tracemalloc.start()
    try:
        stochastic_rank(lap, filt, n_v=n_v, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 560 * n_v * 8


@pytest.mark.parametrize("probe_kind", ["rademacher"])  # the one probe kind
@pytest.mark.parametrize("estimator", [stochastic_rank, power_moments_rank])
def test_estimate_is_the_same_for_dense_and_csr_input(estimator, probe_kind):
    # the estimate must not depend on the input format, and must leave the
    # caller's matrix as it was
    rng = np.random.default_rng(3)
    a, _ = _random_psd(rng, 40)
    a[np.abs(a) < 0.02] = 0.0
    a /= np.abs(a).sum(axis=1).max()  # row-sum bound: spectrum inside [-1, 1]
    csr = sp.csr_matrix(a)
    before = (csr.shape, csr.data.copy(), csr.indices.copy(), csr.indptr.copy())
    filt = chebyshev_filter(0.05, 16)
    dense_est = estimator(a, filt, n_v=24, seed=8)
    sparse_est = estimator(csr, filt, n_v=24, seed=8)
    assert sparse_est.raw == pytest.approx(dense_est.raw, rel=1e-12)
    assert sparse_est.stderr == pytest.approx(dense_est.stderr, rel=1e-12)
    after = (csr.shape, csr.data, csr.indices, csr.indptr)
    assert before[0] == after[0]
    assert all(np.array_equal(x, y) for x, y in zip(before[1:], after[1:]))


@pytest.mark.parametrize("max_dim", [1, 2, 3])
def test_hodge_basis_iterates_on_the_sum_it_always_did(monkeypatch, max_dim):
    # after harmonic_basis's own copy and rescaling, the operator it iterates
    # on has, array for array, the arrays of the reference sum
    # up @ up.T + down.T @ down, so stochastic outputs are byte-identical
    from homology_lab import spectra

    pts = np.random.default_rng(max_dim).random((40, 2)).tolist()
    k = generate("vietoris_rips", points=pts, threshold=0.3, max_dim=max_dim)
    received = []
    monkeypatch.setattr(spectra, "harmonic_basis", lambda lap, seed: received.append(lap))
    for r in range(k.dim() + 1):
        received.clear()
        spectra.hodge_basis(k, r, 0)
        up = boundary_matrix(k, r + 1) if k.size(r + 1) else sp.csc_matrix((k.size(r), 0))
        down = boundary_matrix(k, r) if r else None
        before = up @ up.T + (down.T @ down if r else 0)
        (got, got_bound), (want, want_bound) = (
            _rescaled(sp.csr_matrix(lap, dtype=float, copy=True)) for lap in (received[0], before))
        assert got_bound == want_bound
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (r, name)



@pytest.mark.parametrize("r", [0, 1])
def test_filter_operator_refills_to_the_shift_it_replaced(r):
    # harmonic_basis refills one alpha L - beta I per call; each refill has,
    # array for array, the arrays of the sum it replaced.  The r = 0
    # Laplacian of an edge beside an isolated vertex stores no diagonal entry
    # for that vertex; the r = 1 one of a filled square stores them all.
    # Where alpha l_ii - beta is exactly 0 (l_ii = 1/2 at a = 0, 3/4 at
    # a = 1/2) the refill keeps an explicit zero that the sum drops: the same
    # matrix, and the same products.
    from homology_lab.operators import laplacian
    from homology_lab.spectra import _shifted

    k = build_complex([[0, 1], [2]] if r == 0 else [[0, 1, 2], [0, 2, 3]])
    lap, _ = _rescaled(sp.csr_matrix(laplacian(k, r), dtype=float, copy=True))
    assert (np.diff(lap.indptr) == 0).any() == (r == 0)
    shifted, cancelled = _shifted(lap), []
    for a in (0.37, 0.0, 0.99, 0.5, 0.123):
        alpha, beta = 2.0 / (1.0 - a), (1.0 + a) / (1.0 - a)
        got = shifted(alpha, beta)
        want = alpha * lap - beta * sp.identity(lap.shape[0], format="csr")
        if (alpha * lap.diagonal() == beta).any():
            cancelled.append(a)
            assert got.nnz > want.nnz and np.array_equal(got.toarray(), want.toarray())
            continue
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (a, name)
    assert cancelled == [0.5 * r]


# --- spectral bound and filter degrees --------------------------------------------------

def _check_bound(a):
    """_rescaled's bound of the symmetric ``a`` lies between its top eigenvalue and its
    infinity norm, and a PSD ``a`` rescales into [0, 1]; returns the bound."""
    a = sp.csr_matrix(a, dtype=float)
    top = np.linalg.eigvalsh(a.toarray())[-1]
    rescaled, bound = _rescaled(a.copy())
    assert top <= bound * (1 + 1e-12)
    assert bound <= float(abs(a).sum(axis=1).max())
    eigs = np.linalg.eigvalsh(rescaled.toarray())
    assert eigs[0] >= -1e-12 and eigs[-1] <= 1 + 1e-12
    return bound


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [40, 120, 300])
def test_rescaled_bound_lies_between_the_top_eigenvalue_and_the_infinity_norm(dim, n):
    from homology_lab.operators import laplacian

    k = rips_with_edges(n, 3, 0, max_dim=dim, dim=dim)
    assert k.dim() == dim
    for r in range(dim + 1):
        _check_bound(laplacian(k, r))


def test_rescaled_bound_of_a_laplacian_with_zero_rows():
    # the r = 0 Laplacian of a triangle beside an edge and isolated vertices has
    # zero rows; on the triangle |L| is the signless Laplacian, whose top
    # eigenvalue 4 the bound cannot pass below, though L's own is 3
    from homology_lab.operators import laplacian

    lap = laplacian(build_complex([[0, 1, 2], [3], [4, 5], [6]]), 0)
    assert (np.diff(lap.indptr) == 0).sum() == 2
    assert _check_bound(lap) == 4.0


@pytest.mark.parametrize("seed", range(6))
def test_rescaled_bound_of_random_psd_matrices_with_explicit_zeros(seed):
    # G G^T for a sparse G of signed entries, with stored zeros added at
    # symmetric pairs of places
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    g = sp.random(n, n // 2 + 1, density=0.2, random_state=rng, format="csr")
    g.data -= 0.5
    a = (g @ g.T).tocoo()
    i, j = rng.integers(0, n, (2, n))
    a = sp.csr_matrix((np.concatenate([a.data, np.zeros(2 * n)]),
                       (np.concatenate([a.row, i, j]), np.concatenate([a.col, j, i]))), shape=(n, n))
    assert (a.data == 0).any()
    _check_bound(a)


def test_rescaled_bound_ignores_the_stored_column_order():
    from homology_lab.operators import laplacian

    lap = sp.csr_matrix(laplacian(rips_with_edges(60, 3, 1, max_dim=2), 1), dtype=float)
    shuffled = lap.copy()
    rng = np.random.default_rng(0)
    for i in range(lap.shape[0]):  # each row's entries stored in a random order
        lo, hi = shuffled.indptr[i], shuffled.indptr[i + 1]
        order = lo + rng.permutation(hi - lo)
        shuffled.indices[lo:hi], shuffled.data[lo:hi] = lap.indices[order], lap.data[order]
    shuffled.has_sorted_indices = False
    assert not np.array_equal(shuffled.indices, lap.indices)
    assert _rescaled(shuffled)[1] == _rescaled(lap.copy())[1]


def test_filter_degrees_follow_the_residuals(monkeypatch):
    # on rips_large-sized complexes (128 to 140 points, 4n edges) a block's first
    # filter step takes HARMONIC_DEGREE and later ones the degree that the
    # residuals ask for: the filter degrees per basis average 77.4, where a
    # fixed degree 24 (mostly four steps) read 97.0
    from homology_lab import spectra
    from homology_lab.operators import laplacian

    steps, real = [], spectra._chebyshev_blocks

    def counted(b, x, degree):
        steps[-1].append(degree)
        return real(b, x, degree)

    monkeypatch.setattr(spectra, "_chebyshev_blocks", counted)
    for seed in (7, 11):
        for n in (128, 132, 136, 140):
            k = rips_with_edges(n, 4, seed, max_dim=2)
            lap = laplacian(k, 1)
            for start in range(3):
                steps.append([])
                q, _, converged = spectra.harmonic_basis(lap, start)
                assert converged and q.shape[1] == exact_betti(k, 1)
    assert max(map(max, steps)) <= spectra.HARMONIC_DEGREE
    assert np.mean([sum(s) for s in steps]) < 85


@pytest.mark.slow
def test_high_confidence_betti_estimates_on_rips_are_exact():
    # 144 estimates: 2-D and 3-D Rips complexes (cliques up to the dimension)
    # of 60, 130 and 200 points with 4n edges (even seeds) or 6n (odd), r = 0
    # to 2.  The 23 low-confidence ones are all 2-D ones at r = 2, whose zero
    # cluster is past the harmonic basis's block cap
    low = []
    for seed in range(8):
        for n in (60, 130, 200):
            for dim in (2, 3):
                k = rips_with_edges(n, 4 if seed % 2 == 0 else 6, seed, max_dim=dim, dim=dim)
                for r in range(3):
                    est = estimate_normalized_betti(k, r, seed=seed)
                    if est.low_confidence:
                        low.append((dim, r))
                    else:
                        assert est.betti() == exact_betti(k, r), (seed, n, dim, r)
    assert low == [(2, 2)] * 23


def test_estimate_normalized_betti_never_densifies_a_large_layer():
    import tracemalloc

    pts = np.random.default_rng(0).random((200, 2)).tolist()
    k = generate("vietoris_rips", points=pts, threshold=0.2, max_dim=2)
    n = k.size(1)
    assert n >= 2000
    tracemalloc.start()
    try:
        est = estimate_normalized_betti(k, 1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8  # one dense |S_1| x |S_1| float64 matrix
    assert est.betti() == exact_betti(k, 1) and not est.low_confidence


# --- power-moment evaluation ----------------------------------------------------------

def test_power_moments_agrees_with_recurrence():
    a = np.diag([0.9] * 8 + [0.0] * 8)
    filt = chebyshev_filter(0.01, 16)
    shared = dict(n_v=64, seed=99)
    rec = stochastic_rank(a, filt, **shared)
    mom = power_moments_rank(a, filt, **shared)
    assert abs(rec.raw - mom.raw) <= 1e-8


def test_power_moments_identity_scaled():
    a = np.eye(16) * 0.5
    filt = chebyshev_filter(0.05, 8)
    rec = stochastic_rank(a, filt, n_v=32, seed=3)
    mom = power_moments_rank(a, filt, n_v=32, seed=3)
    assert abs(rec.raw - mom.raw) <= 1e-8


def test_power_moments_agree_with_recurrence_at_the_top_degree():
    # the power basis loses about 1e-7 to cancellation at degree 30
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a, _ = _random_psd(rng, int(rng.integers(4, 41)))
        filt = chebyshev_filter(float(rng.uniform(0.01, 0.1)), MAX_MOMENT_DEGREE)
        rec = stochastic_rank(a, filt, n_v=16, seed=seed)
        mom = power_moments_rank(a, filt, n_v=16, seed=seed)
        assert abs(rec.raw - mom.raw) <= 1e-6, seed


def test_power_moments_degree_guard():
    with pytest.raises(DegreeTooHigh):
        power_moments_rank(np.eye(4) * 0.5, chebyshev_filter(0.1, 31), n_v=4, seed=0)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_power_moments_equivalence_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 24))
    rank_n = int(rng.integers(0, n + 1))
    eigs = np.concatenate([rng.uniform(0.2, 1.0, rank_n), np.zeros(n - rank_n)])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * eigs) @ q.T
    a = (a + a.T) / 2
    filt = chebyshev_filter(0.1, 12)
    rec = stochastic_rank(a, filt, n_v=16, seed=seed)
    mom = power_moments_rank(a, filt, n_v=16, seed=seed)
    assert abs(rec.raw - mom.raw) <= 1e-8


# --- estimator accuracy (randomized; fixed seeds) ---------------------------------------

def _random_psd(rng, n, gap=0.1):
    rank_n = int(rng.integers(1, n))
    eigs = np.concatenate([rng.uniform(gap, 1.0, rank_n), np.zeros(n - rank_n)])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * eigs) @ q.T
    return (a + a.T) / 2, rank_n


def test_stochastic_rank_accuracy_sweep():
    hits = 0
    trials = 40
    for seed in range(trials):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(32, 129))
        a, true_rank = _random_psd(rng, n, gap=0.1)
        est = stochastic_rank(a, chebyshev_filter(0.05, 64), n_v=200, seed=seed)
        if abs(est.normalized - true_rank / n) <= 0.05:
            hits += 1
    assert hits >= int(0.95 * trials)


def test_default_betti_estimate_on_rips_is_within_half_and_rescaled_spectrum_within_one():
    # 30-point Rips complexes: the Collatz-Wielandt rescaling keeps every top
    # eigenvalue at or below 1, where the Chebyshev filter is bounded, and
    # every default estimate of beta_1 lands within 0.5 of the exact value
    # (a power-iteration bound let 6 of them pass 1 and miss)
    from homology_lab.operators import laplacian
    from homology_lab.spectra import _rescaled

    for seed in range(30):
        pts = np.random.default_rng(seed).random((30, 2)).tolist()
        k = generate("vietoris_rips", points=pts, threshold=0.3)
        rescaled, _ = _rescaled(sp.csr_matrix(laplacian(k, 1), dtype=float))
        assert np.linalg.eigvalsh(rescaled.toarray())[-1] <= 1.0, seed
        est = estimate_normalized_betti(k, 1, seed=seed)
        assert abs(est.betti() - exact_betti(k, 1)) <= 0.5, seed


def test_estimate_normalized_betti_canonical():
    cases = {
        "hollow_triangle": (1, 1 / 3),
        "filled_triangle": (1, 0.0),
        "circle8": (1, 1 / 8),
    }
    for name, (r, expected) in cases.items():
        k = canonical_complexes()[name]
        est = estimate_normalized_betti(k, r, seed=7)
        assert abs(est.value - expected) <= 0.05, name
        assert not est.low_confidence, name


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("m", [3, 8, 20])
def test_estimated_betti_of_the_klein_bottle_is_rational(m, seed):
    # the harmonic basis counts real Betti numbers, the rational ones, so the
    # 2-torsion of H_1 counts nothing: (1, 1, 0), not the GF(2) answer (1, 2, 1)
    k = klein_grid(m)
    ests = [estimate_normalized_betti(k, r, seed=seed) for r in range(3)]
    assert [(e.betti(), e.low_confidence) for e in ests] == [(1, False), (1, False), (0, False)]


@pytest.mark.parametrize("seed", range(3))
def test_estimated_betti_of_the_projective_plane_is_rational(seed):
    # (1, 0, 0), those of a point, not the GF(2) answer (1, 1, 1)
    k = build_complex(RP2_TRIANGLES)
    ests = [estimate_normalized_betti(k, r, seed=seed) for r in range(3)]
    assert [(e.betti(), e.low_confidence) for e in ests] == [(1, False), (0, False), (0, False)]


def test_estimate_normalized_persistent_betti():
    pair = validate_filtration(generate("hollow_triangle"), generate("filled_triangle"))
    est = estimate_normalized_persistent_betti(pair, 1, seed=21)
    assert abs(est.value - 0.0) <= 0.05

    k = generate("hollow_triangle")
    pair_id = validate_filtration(k, k)
    est_id = estimate_normalized_persistent_betti(pair_id, 1, seed=21)
    assert abs(est_id.value - 1 / 3) <= 0.05

    k1 = build_complex([[0], [1]])
    k2 = build_complex([[0, 1]], autoclose=True)
    est_v = estimate_normalized_persistent_betti(validate_filtration(k1, k2), 0, seed=21)
    assert abs(est_v.value - 0.5) <= 0.05


def _rips(n_points, seed, *thresholds):
    pts = np.random.default_rng(seed).random((n_points, 2)).tolist()
    return [generate("vietoris_rips", points=pts, threshold=t, max_dim=2) for t in thresholds]


def test_betti_estimate_above_the_oracle_gate_is_exact():
    # the 560-edge complex of test_stochastic_rank_holds_few_probe_blocks:
    # the probe estimate, its delta floored at 1e-6, read 0.64-0.67 classes for 9
    pts = np.random.default_rng(0).random((140, 2))
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    threshold = float(np.sqrt(np.sort(d2[np.triu_indices(140, 1)])[559:561].mean()))
    k = generate("vietoris_rips", points=pts.tolist(), threshold=threshold, max_dim=2)
    assert k.size(1) == 560
    for seed in range(3):
        est = estimate_normalized_betti(k, 1, seed=seed)
        assert est.betti() == exact_betti(k, 1) == 9 and not est.low_confidence


@pytest.mark.parametrize("n_points,seed,t1,t2", [(60, 1, 0.19, 0.23), (150, 0, 0.14, 0.16)])
def test_persistent_betti_estimate_on_rips_filtrations_is_exact(n_points, seed, t1, t2):
    # 180 -> 246 and 566 -> 713 edges, persistent beta_1 = 2 and 4
    pair = validate_filtration(*_rips(n_points, seed, t1, t2))
    want = exact_persistent_betti(pair, 1)
    assert want > 0
    est = estimate_normalized_persistent_betti(pair, 1, seed=0)
    assert est.betti() == want and not est.low_confidence


def _stub_scipy_matrices(monkeypatch):
    """Make every construction of a scipy sparse matrix fail the test."""
    for name in ("csc_matrix", "csr_matrix", "coo_matrix", "lil_matrix", "dok_matrix",
                 "csc_array", "csr_array", "coo_array"):
        monkeypatch.setattr(sp, name, lambda *a, _name=name, **kw: pytest.fail(_name))


def test_exact_betti_builds_no_scipy_matrix_and_clears_nothing(monkeypatch):
    # every rank comes from the boundary's integer columns, uncleared; the
    # answers are the Fraction oracle's, computed before scipy is stubbed out
    cases = [(k, r) for k in [*canonical_complexes().values(), random_rips(5, n_points=14, max_dim=3)]
             for r in range(4) if k.size(r)]
    want = [oracle_betti(k, r) for k, r in cases]
    _stub_scipy_matrices(monkeypatch)
    cleared = []
    real = exact._cleared
    monkeypatch.setattr(exact, "_cleared", lambda values: cleared.append(values) or real(values))
    assert [exact_betti(k, r) for k, r in cases] == want
    assert len(cases) > 20 and cleared == []
    assert exact_rank([[Fraction(1, 2), Fraction(1, 4)], [Fraction(2), Fraction(1)]]) == 1
    assert len(cleared) == 2  # rational input is still cleared, column by column


def test_persistent_betti_and_cocycles_build_no_scipy_matrix(monkeypatch):
    # persistent Betti numbers, cocycle bases and the cohomological test read
    # integer face columns; the answers are computed before scipy is stubbed out
    pair = random_rips_filtration(3, n_points=20, t1=0.3, t2=0.4, max_dim=3)
    torus = generate("torus")
    c1, c2 = sample_cycles(torus, 1, s=2, seed=0)

    def answers():
        verdict = check_cohomological(torus, c1, c2, seed=0)
        return ([exact_persistent_betti(pair, r) for r in (0, 1, 2)], cocycle_basis(torus, 1),
                (verdict.equivalent, verdict.witnesses_used, verdict.witness.values.tolist()))

    want = answers()
    _stub_scipy_matrices(monkeypatch)
    assert answers() == want
    assert want[0] == [1, 0, 0] and len(want[1]) == 8 and not want[2][0]


# --- class count by least squares -----------------------------------------------------

def _assert_residual_rank_is_the_reference(monkeypatch, d, m, cols, margin=0.0):
    # d's first m columns, in place from its float copy against the reference's
    # products on a float copy of the slice: the same (count, low), and every
    # singular value decomposition is of bitwise the same matrix (G, then R)
    seen = {"in place": [], "reference": []}
    svd = np.linalg.svd

    def recording(key):
        def wrapped(a, *args, **kwargs):
            seen[key].append((a.shape, np.asarray(a).tobytes()))
            return svd(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", recording("in place"))
    got = residual_rank(d.astype(float), m, cols, margin)
    monkeypatch.setattr(np.linalg, "svd", recording("reference"))
    want = reference_residual_rank(d[:, :m], cols, margin)
    monkeypatch.setattr(np.linalg, "svd", svd)
    assert got == want
    assert seen["in place"] == seen["reference"] and seen["in place"]


@pytest.mark.parametrize("steps", [None, 0, 1, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_residual_rank_matches_the_reference_on_each_stage_of_a_rips_chain(monkeypatch, seed, steps):
    if steps is not None:
        monkeypatch.setattr(spectra, "RESIDUAL_STEPS", steps)
    pts = np.random.default_rng(seed).random((24, 2)).tolist()
    stages = [generate("vietoris_rips", points=pts, threshold=0.3)]
    for t in (0.38, 0.46):
        stages.append(validate_filtration(stages[-1], generate("vietoris_rips", points=pts,
                                                               threshold=t)).k2)
    d, n = _boundary(stages[-1], 2), stages[-1].size(1)
    cols = np.hstack([_unit_columns(sample_cycles(stages[0], 1, 3, seed=seed), n),
                      np.random.default_rng(seed).standard_normal((n, 2))])  # and two non-cycles
    assert len({k.size(2) for k in stages}) == 3
    for k in stages:
        _assert_residual_rank_is_the_reference(monkeypatch, d, k.size(2), cols)


@pytest.mark.parametrize("steps", [None, 0, 1, 4])
@pytest.mark.parametrize("seed", [2, 3])
def test_residual_rank_matches_the_reference_on_a_padded_harmonic_basis(monkeypatch, seed, steps):
    if steps is not None:
        monkeypatch.setattr(spectra, "RESIDUAL_STEPS", steps)
    pair = random_rips_filtration(seed, n_points=20, t1=0.3, t2=0.4)
    q1, margin1, _ = hodge_basis(pair.k1, 1, seed)
    assert q1.shape[1] >= 1 and pair.k2.size(1) > pair.k1.size(1)
    padded = np.vstack([q1, np.zeros((pair.k2.size(1) - pair.k1.size(1), q1.shape[1]))])
    d = _boundary(pair.k2, 2)
    _assert_residual_rank_is_the_reference(monkeypatch, d, d.shape[1], padded, margin1)


@pytest.mark.parametrize("steps", [None, 0, 1, 4])
def test_residual_rank_matches_the_reference_with_no_columns(monkeypatch, steps):
    # a top layer: the hollow triangle's 2-boundary is 3 x 0, and its loop one class
    if steps is not None:
        monkeypatch.setattr(spectra, "RESIDUAL_STEPS", steps)
    k = build_complex([[0, 1], [1, 2], [0, 2]])
    d = _boundary(k, 2)
    assert d.shape == (3, 0)
    cols = _unit_columns([Chain.make(1, {1: 1, 2: 1, 3: -1})], 3)
    _assert_residual_rank_is_the_reference(monkeypatch, d, 0, cols)
    assert residual_rank(d.astype(float), 0, cols) == (1, False)


def test_residual_rank_builds_no_scipy_matrix_and_calls_two_kernels_per_step(monkeypatch):
    # per stage and per step no slice, transpose, copy or product object: one
    # csr_matvecs for d^T C, then one csc_matvecs and one csr_matvecs a step
    import scipy.sparse._compressed as compressed
    from scipy.sparse import _sparsetools

    pair = random_rips_filtration(2, n_points=20, t1=0.3, t2=0.4)
    q1, _, _ = hodge_basis(pair.k1, 1, 2)
    padded = np.vstack([q1, np.zeros((pair.k2.size(1) - pair.k1.size(1), q1.shape[1]))])
    d = _boundary(pair.k2, 2).astype(float)
    calls = {"csc_matvecs": 0, "csr_matvecs": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(_sparsetools, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(_sparsetools, name, counted)
    monkeypatch.setattr(compressed._cs_matrix, "__init__", lambda *a, **kw: pytest.fail("scipy matrix"))
    monkeypatch.setattr(spectra, "RESIDUAL_STEPS", 4)
    steps = []
    for m in (0, pair.k1.size(2), d.shape[1]):  # k1's classes, then k2's full boundary
        calls.update(csc_matvecs=0, csr_matvecs=0)
        residual_rank(d, m, padded)
        assert calls["csr_matvecs"] == calls["csc_matvecs"] + 1
        steps.append(calls["csc_matvecs"])
    assert steps[0] == 0 and 1 <= steps[1] <= 4 and steps[2] == 4  # k2's needs more than 4
