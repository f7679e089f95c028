import numpy as np
import pytest

from homology_lab import (
    boundary_matrix,
    build_complex,
    coboundary_matrix,
    generate,
    laplacian,
    persistent_laplacian,
    persistent_up_laplacian,
    schur_complement,
    validate_filtration,
)
from homology_lab.errors import BadParameter, EmptyLayer
from homology_lab.io import dump_operator, load_complex, save_complex

from conftest import (
    canonical_complexes,
    count_boundary_builds,
    oracle_rank,
    random_rips,
    random_rips_filtration,
    reference_incidence,
    rips_with_edges,
)
from test_complexes import five_point_complex


def test_boundary_filled_triangle_column():
    k = generate("filled_triangle")
    d2 = boundary_matrix(k, 2).toarray()
    # face rows in order [0,1], [0,2], [1,2]
    assert d2[:, 0].tolist() == [1, -1, 1]


def test_boundary_composition_is_zero():
    k = generate("filled_triangle")
    d1 = boundary_matrix(k, 1).toarray()
    d2 = boundary_matrix(k, 2).toarray()
    assert not (d1 @ d2).any()


def test_boundary_matches_spec_matrix_on_paper_complex():
    k = five_point_complex()
    d2 = boundary_matrix(k, 2).toarray()
    assert np.array_equal(np.abs(d2), reference_incidence(k.layers, 2, signed=False).toarray())


def test_boundary_empty_layer():
    with pytest.raises(EmptyLayer):
        boundary_matrix(generate("hollow_triangle"), 2)


def _layer_cases(above_top):
    """(name, r) for every canonical complex and r = 0..top (+ 1 above it)."""
    return [
        (name, r)
        for name, k in sorted(canonical_complexes().items())
        for r in range(max(k.layers) + 1 + above_top)
    ]


def _dense_boundary(k, r):
    if r >= 1 and k.size(r) and k.size(r - 1):
        return boundary_matrix(k, r).toarray()
    return np.zeros((k.size(r - 1) if r >= 1 else 0, k.size(r)), dtype=int)


@pytest.mark.parametrize("name, r", _layer_cases(above_top=1))
def test_boundary_reads_a_missing_layer_as_the_int_zero_map(monkeypatch, name, r):
    # below dimension 1 and above the top layer the map is an int CSC zero of
    # shape |S_{r-1}| x |S_r|, made with no build; otherwise it is the one
    # boundary_matrix build
    from homology_lab.operators import _boundary

    k = canonical_complexes()[name]
    builds = count_boundary_builds(monkeypatch)
    m = _boundary(k, r)
    assert m.format == "csc" and m.dtype.kind == "i"
    assert m.shape == (k.size(r - 1) if r >= 1 else 0, k.size(r))
    assert np.array_equal(m.toarray(), _dense_boundary(k, r))
    assert builds == ([r] if 1 <= r <= max(k.layers) else [])


def test_counted_boundary_columns_take_an_index_array(monkeypatch):
    # reading some columns of a boundary by an index array is no build
    from homology_lab import operators

    builds = count_boundary_builds(monkeypatch)
    cols = operators._boundary_columns(generate("filled_triangle"), 1, np.array([0, 2]))
    assert len(cols) == 2 and builds == []


@pytest.mark.parametrize("name, r", _layer_cases(above_top=0))
def test_laplacian_is_up_term_plus_down_term_with_zero_maps(name, r):
    k = canonical_complexes()[name]
    up, down = _dense_boundary(k, r + 1), _dense_boundary(k, r)
    lap = laplacian(k, r)
    assert lap.format == "csr" and lap.dtype.kind == "i"
    assert np.array_equal(lap.toarray(), up @ up.T + down.T @ down)


def test_coboundary_is_transpose():
    k = generate("filled_triangle")
    assert np.array_equal(
        coboundary_matrix(k, 1).toarray(), boundary_matrix(k, 2).toarray().T
    )


# --- Laplacians ---------------------------------------------------------------

def test_laplacian_kernels():
    hollow = generate("hollow_triangle")
    lap = laplacian(hollow, 1).toarray()
    assert lap.shape == (3, 3)
    assert 3 - oracle_rank(lap) == 1  # one independent loop
    filled = generate("filled_triangle")
    assert 3 - oracle_rank(laplacian(filled, 1).toarray()) == 0


def test_laplacian_point():
    k = generate("point")
    assert laplacian(k, 0).toarray().tolist() == [[0]]


def test_laplacian_symmetry_psd_random():
    for seed in range(4):
        k = random_rips(seed)
        for r in sorted(k.layers):
            if k.size(r) == 0:
                continue
            lap = laplacian(k, r).toarray()
            assert np.array_equal(lap, lap.T)
            eigs = np.linalg.eigvalsh(lap.astype(float))
            assert eigs.min() >= -1e-10


def _stacked_product_cases(tmp_path):
    """(label, complex) pairs: seeded 2-D and 3-D Rips complexes, isolated vertices,
    a loaded file and a k2 reordered by validate_filtration, whose face index a
    lookup fills."""
    cases = [(f"rips{dim}d-{seed}", rips_with_edges(40, 3, seed, max_dim=dim, dim=dim))
             for dim in (2, 3) for seed in range(3)]
    cases.append(("isolated", build_complex([[0, 1, 2], [3], [4, 5], [6]])))
    save_complex(cases[3][1], tmp_path / "k.jsonl")
    cases.append(("loaded", load_complex(tmp_path / "k.jsonl")))
    pair = random_rips_filtration(3, n_points=20, t1=0.3, t2=0.45, max_dim=3)
    assert pair.k2._face_at == {}
    cases.append(("reordered", pair.k2))
    return cases


def test_laplacian_is_the_int_sum_of_the_two_boundary_products(tmp_path):
    # the stacked product D D^T equals d_{r+1} d_{r+1}^T + d_r^T d_r exactly, in
    # int, at r = 0 through the top layer (3 on the 3-D cases); and it stores,
    # array for array, what that sum stored when it was computed as two scipy
    # products and a sum (sorted where an up-term exists, the product's own
    # order on a top layer), so MatrixMarket dumps are byte for byte the same
    seen = set()
    for label, k in _stacked_product_cases(tmp_path):
        for r in range(k.dim() + 1):
            up, down = _dense_boundary(k, r + 1), _dense_boundary(k, r)
            lap = laplacian(k, r)
            assert lap.format == "csr" and lap.dtype == np.int64, (label, r)
            assert np.array_equal(lap.toarray(), up @ up.T + down.T @ down), (label, r)
            terms = ([boundary_matrix(k, r + 1)] if k.size(r + 1) else []) + (
                [boundary_matrix(k, r).T] if r else [])
            summed = sum((m @ m.T for m in terms[1:]), terms[0] @ terms[0].T).tocsr()
            for name in ("indptr", "indices", "data"):
                assert getattr(lap, name).tobytes() == getattr(summed, name).tobytes(), (label, r, name)
            dump_operator(lap, tmp_path / "lap.mtx")
            dump_operator(summed, tmp_path / "sum.mtx")
            assert (tmp_path / "lap.mtx").read_bytes() == (tmp_path / "sum.mtx").read_bytes(), (label, r)
            seen.add(r)
    assert seen == {0, 1, 2, 3}


# --- persistent blocks ------------------------------------------------------------

def prefix_blocks(pair, r):
    """B, R and G of the reordered k2's (r+1)-boundary [B R; 0 G], split at k1's
    prefix, after checking its int dtype, its zero lower left block and that B
    is k1's own boundary."""
    n1, m1 = pair.k1.size(r), pair.k1.size(r + 1)
    full = (boundary_matrix(pair.k2, r + 1).toarray() if pair.k2.size(r + 1)
            else np.zeros((pair.k2.size(r), 0), dtype=int))
    own = boundary_matrix(pair.k1, r + 1).toarray() if m1 else np.zeros((n1, 0), dtype=int)
    assert full.dtype.kind == "i"
    assert not full[n1:, :m1].any()
    assert np.array_equal(full[:n1, :m1], own)
    return full[:n1, :m1], full[:n1, m1:], full[n1:, m1:]


def test_blocks_hollow_to_filled():
    pair = validate_filtration(generate("hollow_triangle"), generate("filled_triangle"))
    b, rr, g = prefix_blocks(pair, 1)
    assert b.shape == (3, 0)
    assert rr[:, 0].tolist() == [1, -1, 1]
    assert g.shape == (0, 1)


def test_blocks_identity_filtration():
    k = generate("filled_triangle")
    pair = validate_filtration(k, k)
    b, rr, g = prefix_blocks(pair, 1)
    assert rr.shape[1] == 0
    assert g.shape == (0, 0)
    assert np.array_equal(b, boundary_matrix(k, 2).toarray())


def test_blocks_no_triangles_anywhere():
    k1 = build_complex([[0, 1]], autoclose=True)
    k2 = generate("hollow_triangle")
    pair = validate_filtration(k1, k2)
    b, rr, g = prefix_blocks(pair, 1)
    assert b.shape[1] == 0
    assert rr.shape[1] == 0
    assert g.shape[1] == 0


@pytest.mark.parametrize("seed", range(8))
def test_blocks_reassemble_full_boundary(seed):
    pair = random_rips_filtration(seed)
    for r in (1, 2):  # max_dim 2: at r = 2 (and r = 1 without triangles) D is the zero map
        if pair.k1.size(r) == 0:
            continue
        b, _, _ = prefix_blocks(pair, r)
        # Frobenius counts: every column of a boundary matrix has r+2 entries
        assert (b ** 2).sum() == (r + 2) * pair.k1.size(r + 1)


@pytest.mark.parametrize("k1, k2, r", [
    (generate("hollow_triangle"), generate("filled_triangle"), 1),
    (generate("filled_triangle"), build_complex([[0, 1, 2], [2, 3]]), 1),
    (build_complex([[0, 1]]), build_complex([[0, 1], [2]]), 0),
], ids=["no_new_r_simplices", "no_new_r+1_simplices", "no_new_r+1_simplices_at_0"])
def test_persistent_up_laplacian_with_an_empty_corner(k1, k2, r):
    # G has no rows or no columns, so the up-part is B B^T + R R^T exactly
    pair = validate_filtration(k1, k2)
    b, rr, g = prefix_blocks(pair, r)
    assert 0 in g.shape
    assert np.array_equal(persistent_up_laplacian(pair, r), (b @ b.T + rr @ rr.T).astype(float))


# --- Schur complement ---------------------------------------------------------------

def test_schur_identity_matrix():
    out = schur_complement(np.eye(4), {3, 4})
    assert np.allclose(out, np.eye(2))


def test_schur_block_diagonal():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    c = np.array([[5.0]])
    m = np.block([[a, np.zeros((2, 1))], [np.zeros((1, 2)), c]])
    assert np.allclose(schur_complement(m, {3}), a)


def test_schur_two_by_two():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    out = schur_complement(m, {2})
    assert np.allclose(out, [[1.5]])


def test_schur_empty_index_set():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(schur_complement(m, set()), m)


def test_schur_full_index_set():
    out = schur_complement(np.array([[2.0, 1.0], [1.0, 2.0]]), {1, 2})
    assert out.shape == (0, 0)
    assert out.dtype == float


def test_schur_index_set_out_of_range():
    for index_set in ([0], [4], [-1, 2]):
        with pytest.raises(BadParameter, match="out of range"):
            schur_complement(np.eye(3), index_set)


@pytest.mark.parametrize("index", [1.5, 2.0, "2", np.float64(2.0), None],
                         ids=["1.5", "2.0", "str", "float64", "None"])
def test_schur_rejects_an_index_that_is_not_an_integer(index):
    with pytest.raises(BadParameter, match="integers"):
        schur_complement(np.diag([1.0, 2.0, 3.0]), [index])


def test_schur_takes_python_and_numpy_integers():
    m = np.diag([1.0, 2.0, 3.0])
    for index_set in ([2], [np.int64(2)], np.array([2]), range(2, 3)):
        assert np.array_equal(schur_complement(m, index_set), np.diag([1.0, 3.0]))


@pytest.mark.parametrize("m", [np.arange(6.0).reshape(2, 3), np.arange(3.0), [[2.0, 0.0], [1.0, 1.0]],
                               [[1.0, 1e-11], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]],
                         ids=["2x3", "vector", "lower-triangular", "asymmetric-past-rounding", "nan"])
def test_schur_rejects_a_matrix_that_is_not_square_and_symmetric(m):
    # the formula reads M(I, comp) as M(comp, I)^T, so an asymmetric M would
    # get a plausible wrong number: [[0.5]] for the lower-triangular one, not [[1.]]
    with pytest.raises(BadParameter, match="square|symmetric"):
        schur_complement(m, [1])


def test_schur_takes_a_matrix_symmetric_to_rounding():
    m = np.array([[4.0, 2.0], [2.0 + 4e-12, 3.0]])  # off by 1e-12 of the largest entry
    assert np.allclose(schur_complement(m, [1]), [[2.0]])


# --- persistent Laplacian ---------------------------------------------------------

def test_persistent_laplacian_identity_filtration_exact():
    for kind in ("hollow_triangle", "filled_triangle", "tetrahedron_boundary"):
        k = generate(kind)
        pair = validate_filtration(k, k)
        for r in sorted(k.layers):
            if k.size(r) == 0:
                continue
            plap = persistent_laplacian(pair, r)
            assert np.array_equal(plap, laplacian(k, r).toarray().astype(float))


def test_persistent_laplacian_kills_filled_loop():
    pair = validate_filtration(generate("hollow_triangle"), generate("filled_triangle"))
    plap = persistent_laplacian(pair, 1)
    assert np.linalg.matrix_rank(plap) == 3  # no kernel: the loop dies


def test_persistent_laplacian_circle_identity():
    k = generate("circle", m=4)
    pair = validate_filtration(k, k)
    plap = persistent_laplacian(pair, 1)
    eigs = np.linalg.eigvalsh(plap)
    assert (eigs < 1e-9).sum() == 1


@pytest.mark.parametrize("seed", range(10))
def test_schur_identity_on_random_filtrations(seed):
    pair = random_rips_filtration(seed)
    r = 1
    if pair.k1.size(r) == 0 or pair.k2.size(r + 1) == 0:
        pytest.skip("degenerate draw")
    up = persistent_up_laplacian(pair, r)
    full = boundary_matrix(pair.k2, r + 1).toarray().astype(float)
    product = full @ full.T
    new_indices = range(pair.k1.size(r) + 1, pair.k2.size(r) + 1)
    schur = schur_complement(product, new_indices)
    assert np.linalg.norm(up - schur) <= 1e-8
