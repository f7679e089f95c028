import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homology_lab import (
    Chain,
    SimplicialComplex,
    boundary_matrix,
    build_complex,
    generate,
    spec_matrix,
    validate_filtration,
    vietoris_rips,
)
from homology_lab.errors import (
    BadParameter,
    DuplicateSimplex,
    EmptyInput,
    EmptyLayer,
    MissingFace,
    NotASubcomplex,
)
from homology_lab import homology, track_classes
from homology_lab.complexes import _face_rows, _faces
from homology_lab.io import load_complex, save_complex

from conftest import (
    random_point_cloud,
    random_rips,
    reference_build,
    reference_filtration_layers,
    reference_incidence,
    reference_rips,
    simplex_faces,
)


def test_build_hollow_triangle_counts():
    k = build_complex([[0], [1], [2], [0, 1], [0, 2], [1, 2]], autoclose=False)
    assert (k.size(0), k.size(1), k.size(2)) == (3, 3, 0)


def test_build_autoclose_fills_faces():
    k = build_complex([[0, 1, 2]], autoclose=True)
    assert (k.size(0), k.size(1), k.size(2)) == (3, 3, 1)


def test_build_without_autoclose_rejects_open_input():
    with pytest.raises(MissingFace):
        build_complex([[0, 1, 2]], autoclose=False)


def test_build_rejects_duplicates_and_empty():
    with pytest.raises(DuplicateSimplex):
        build_complex([[0, 1], [1, 0]])
    with pytest.raises(EmptyInput):
        build_complex([])


def test_listed_order_preserved_autoclose_lexicographic():
    k = build_complex([[2, 1], [0, 1]], autoclose=True)
    assert k.layer(1) == ((1, 2), (0, 1))
    assert k.layer(0) == ((0,), (1,), (2,))


# --- spec_matrix -------------------------------------------------------------

FIVE_POINT_SPEC_2 = np.array([
    [1, 0, 0],
    [1, 0, 0],
    [1, 0, 1],
    [0, 1, 0],
    [0, 1, 0],
    [0, 1, 0],
    [0, 0, 1],
    [0, 0, 1],
    [0, 0, 0],
])


def five_point_complex():
    edges = [[0, 1], [0, 2], [1, 2], [0, 3], [3, 4], [0, 4], [1, 3], [2, 3], [2, 4]]
    triangles = [[0, 1, 2], [0, 3, 4], [1, 2, 3]]
    return build_complex(edges + triangles, autoclose=True)


def test_spec_matrix_five_point_complex():
    k = five_point_complex()
    m = spec_matrix(k, 2)
    assert m.shape == (9, 3)
    assert np.array_equal(m.toarray(), FIVE_POINT_SPEC_2)


def test_spec_matrix_filled_triangle_single_column():
    m = spec_matrix(generate("filled_triangle"), 2)
    assert np.array_equal(m.toarray(), [[1], [1], [1]])


def test_spec_matrix_hollow_triangle_column_sums():
    m = spec_matrix(generate("hollow_triangle"), 1)
    dense = m.toarray()
    assert dense.shape == (3, 3)
    assert list(dense.sum(axis=0)) == [2, 2, 2]


def test_spec_matrix_empty_layer():
    with pytest.raises(EmptyLayer):
        spec_matrix(generate("hollow_triangle"), 2)


# --- validate_filtration ------------------------------------------------------

def test_filtration_hollow_into_filled(hollow_triangle, filled_triangle):
    pair = validate_filtration(hollow_triangle, filled_triangle)
    for r in pair.k2.layers:
        assert pair.k2.layer(r)[:hollow_triangle.size(r)] == hollow_triangle.layer(r)


def test_filtration_rejects_non_subcomplex(hollow_triangle, filled_triangle):
    with pytest.raises(NotASubcomplex) as err:
        validate_filtration(filled_triangle, hollow_triangle)
    assert err.value.simplex == (0, 1, 2)


def test_filtration_single_edge_into_hollow(hollow_triangle):
    edge = build_complex([[0, 1]], autoclose=True)
    pair = validate_filtration(edge, hollow_triangle)
    for r in pair.k2.layers:
        assert pair.k2.layer(r)[:edge.size(r)] == edge.layer(r)


def test_identity_filtration_identity_embedding(hollow_triangle):
    pair = validate_filtration(hollow_triangle, hollow_triangle)
    for r in pair.k2.layers:
        assert pair.k2.layer(r)[:hollow_triangle.size(r)] == hollow_triangle.layer(r)


# --- generators ----------------------------------------------------------------

def test_circle4_counts():
    k = generate("circle", m=4)
    assert (k.size(0), k.size(1), k.size(2)) == (4, 4, 0)


def test_circle_requires_m():
    with pytest.raises(BadParameter):
        generate("circle", m=2)


def test_rips_two_distant_points():
    k = generate("vietoris_rips", points=[[0.0], [2.0]], threshold=1.0)
    assert (k.size(0), k.size(1)) == (2, 0)


@pytest.mark.parametrize("points,threshold", [
    ([[0.0], [2.0]], 0.0), ([[0.0], [2.0]], -1.0), ([[0.0], [2.0]], float("nan")),
    ([[0.0], [2.0]], float("inf")), ([[0.0, 0.0], [float("nan"), 0.0]], 1.0),
    ([[0.0, float("inf")], [1.0, 0.0]], 1.0), ({"a": 1}, 1.0), ([[0, 0], [1]], 1.0),
    ([["a", "b"]], 1.0),
], ids=["zero", "negative", "nan", "inf", "nan-coordinate", "inf-coordinate", "object", "ragged",
        "text"])
def test_rips_rejects_a_nonfinite_or_nonpositive_input(points, threshold):
    # a NaN threshold or coordinate compares false, which once dropped edges
    # silently; a mapping, ragged rows or text once escaped from numpy
    with pytest.raises(BadParameter):
        vietoris_rips(points, threshold)


def test_tetrahedron_boundary_counts():
    k = generate("tetrahedron_boundary")
    assert (k.size(0), k.size(1), k.size(2), k.size(3)) == (4, 6, 4, 0)


def test_unknown_kind():
    with pytest.raises(BadParameter):
        generate("klein_bottle")


def test_unknown_kind_is_reported_before_its_parameters():
    with pytest.raises(BadParameter, match="unknown generator kind"):
        generate("klein_bottle", m=5, max_dim=3)


@pytest.mark.parametrize("kind,params", [
    ("circle", {"m": 5, "points": [[0.0], [1.0]], "threshold": 0.5}),
    ("circle", {"m": 5, "max_dim": 3}),
    ("torus", {"max_dim": 3}),
    ("point", {"m": 5}),
    ("vietoris_rips", {"points": [[0.0], [1.0]], "threshold": 2.0, "m": 5}),
], ids=["circle-points-threshold", "circle-max_dim", "torus-max_dim", "point-m", "rips-m"])
def test_generate_rejects_a_parameter_its_kind_does_not_read(kind, params):
    # each of these once built the complex and dropped the parameter silently
    with pytest.raises(BadParameter, match=f"{kind} does not read"):
        generate(kind, **params)


def test_generate_takes_an_unread_parameter_at_its_default():
    assert generate("torus", m=None, points=None, threshold=None, max_dim=2).size(1) == 21
    assert generate("circle", m=4, max_dim=2).size(1) == 4


# --- invariants ------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_spec_matrix_invariants_on_random_rips(seed):
    k = random_rips(seed)
    for r in sorted(k.layers):
        if r == 0 or k.size(r) == 0:
            continue
        dense = spec_matrix(k, r).toarray()
        assert (dense.sum(axis=0) == r + 1).all()
        gram = dense.T @ dense
        off = gram - np.diag(np.diag(gram))
        assert off.max() <= 1  # any two columns share at most one face


@pytest.mark.parametrize("seed", range(4))
def test_rebuild_is_idempotent(seed):
    k = random_rips(seed)
    again = build_complex(k.simplices(), autoclose=True)
    assert again.layers == k.layers
    assert again.n == k.n


@pytest.mark.parametrize("seed", range(4))
def test_closure_on_random_rips(seed):
    k = random_rips(seed)
    for r in sorted(k.layers):
        if r == 0:
            continue
        for s in k.layer(r):
            for f in simplex_faces(s):
                assert k.contains(f)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_identity_filtration_property(seed):
    k = random_rips(seed, n_points=6)
    pair = validate_filtration(k, k)
    assert pair.k2.layers == k.layers
    for r in pair.k2.layers:
        assert pair.k2.layer(r)[:k.size(r)] == k.layer(r)


# --- array code against the loop references ---------------------------------------

def assert_matches_reference(k, n, layers):
    """Same vertex count, layers, indices and incidence matrices as the loop code."""
    assert (k.n, k.layers) == (n, layers)
    for r, layer in layers.items():
        assert [k.index_of(r, s) for s in layer] == list(range(1, len(layer) + 1))
        if r == 0:
            continue
        for got, want in ((boundary_matrix(k, r), reference_incidence(layers, r, True)),
                          (spec_matrix(k, r), reference_incidence(layers, r, False))):
            assert got.format == "csc" and got.has_sorted_indices
            assert got.shape == want.shape and got.dtype == want.dtype == np.int64
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, part), getattr(want, part))


def assert_builds_like_reference(simplices, autoclose):
    try:
        want = reference_build(simplices, autoclose)
    except (MissingFace, DuplicateSimplex) as exc:
        with pytest.raises(type(exc)) as err:
            build_complex(simplices, autoclose=autoclose)
        assert str(err.value) == str(exc)  # names the same face or repeat
        return
    assert_matches_reference(build_complex(simplices, autoclose=autoclose), *want)


@pytest.mark.parametrize("seed,n_points,threshold",
                         [(0, 10, 0.5), (1, 40, 0.3), (2, 120, 0.15), (3, 200, 0.1)])
@pytest.mark.parametrize("max_dim", range(4))
def test_rips_matches_loop_reference(seed, n_points, threshold, max_dim):
    pts = random_point_cloud(np.random.default_rng(seed), n_points)
    k = generate("vietoris_rips", points=pts, threshold=threshold, max_dim=max_dim)
    assert_matches_reference(k, *reference_build(reference_rips(pts, threshold, max_dim)))


def shuffled_simplices(seed, keep=1.0, repeats=0, vertex=lambda v: v):
    """A 3-dimensional Rips complex's simplices with vertex ids mapped by
    ``vertex``, each vertex list permuted and the list shuffled; a ``keep``
    share of the lower simplices is kept (all top ones are) and ``repeats``
    random simplices are listed twice more."""
    rng = np.random.default_rng(seed)
    k = random_rips(seed, n_points=12, threshold=0.5, max_dim=3)
    top = k.dim()
    out = [[vertex(v) for v in rng.permutation(s).tolist()] for s in k.simplices()
           if len(s) == top + 1 or rng.random() < keep]
    out += [list(reversed(out[i])) for i in rng.integers(len(out), size=repeats)]
    return [out[i] for i in rng.permutation(len(out))]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("autoclose", [True, False])
@pytest.mark.parametrize("keep,repeats", [(1.0, 0), (0.6, 0), (1.0, 3)])
def test_build_matches_loop_reference_on_shuffled_input(seed, autoclose, keep, repeats):
    assert_builds_like_reference(shuffled_simplices(seed, keep, repeats), autoclose)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("keep,repeats", [(1.0, 0), (0.6, 0), (1.0, 2)])
def test_build_matches_loop_reference_beyond_int64_keys(seed, keep, repeats):
    # vertex ids from 2^40 to 2^62: n^(r+1) overflows int64 from the edges up
    simplices = shuffled_simplices(seed, keep, repeats, vertex=lambda v: 2**40 + v * 2**58)
    assert_builds_like_reference(simplices, autoclose=True)
    if not repeats:
        k = build_complex(simplices)
        assert k.n == max(map(max, simplices)) + 1
        assert not k.contains((2**40 + 1, 2**40)) and not k.contains((-1, 2**40))
        pair = validate_filtration(k, k)
        assert pair.k2.layers == k.layers


def file_case(case, seed):
    """(vertex lists, the file's vertex lists, the file's header) of one load case."""
    layered = [list(reversed(s)) for s in random_rips(seed, n_points=12, threshold=0.5, max_dim=3).simplices()]
    simplices = {
        "shuffled lines": [sorted(s) for s in shuffled_simplices(seed)],
        "unsorted vertex lists": layered,
        "repeated simplex": shuffled_simplices(seed, repeats=2),
        "missing face": shuffled_simplices(seed, keep=0.6),
        "vertex map": shuffled_simplices(seed),
        "beyond int64 keys": shuffled_simplices(seed, vertex=lambda v: 2**40 + v * 2**58),
    }[case]
    n = max(map(max, simplices)) + 1
    if case != "vertex map":
        return simplices, simplices, {"n": n}
    return simplices, [[1000 + 7 * v for v in s] for s in simplices], {
        "n": n, "vertex_map": {str(1000 + 7 * v): v for v in range(n)}}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", ["shuffled lines", "unsorted vertex lists", "repeated simplex",
                                  "missing face", "vertex map", "beyond int64 keys"])
def test_load_matches_loop_reference(tmp_path, seed, case):
    # files that are not written layer by layer in sorted rows, loaded as
    # declared (no autoclose): the same layers, or the same error and message
    simplices, lines, header = file_case(case, seed)
    path = tmp_path / "k.jsonl"
    path.write_text("\n".join(map(json.dumps, [header] + [{"s": s} for s in lines])) + "\n")
    try:
        want = reference_build(simplices, autoclose=False)
    except (MissingFace, DuplicateSimplex) as exc:
        assert case in ("repeated simplex", "missing face")
        with pytest.raises(type(exc)) as err:
            load_complex(path)
        assert str(err.value) == str(exc)
        return
    assert case not in ("repeated simplex", "missing face")
    assert_matches_reference(load_complex(path), *want)


@pytest.mark.parametrize("seed", range(6))
def test_filtration_reorder_matches_loop_reference(seed):
    pts = random_point_cloud(np.random.default_rng(seed), 14)
    k1, k2 = (generate("vietoris_rips", points=pts, threshold=t, max_dim=2) for t in (0.3, 0.5))
    assert validate_filtration(k1, k2).k2.layers == reference_filtration_layers(k1, k2)
    if k2.total_size() > k1.total_size():
        with pytest.raises(NotASubcomplex) as err:
            validate_filtration(k2, k1)
        with pytest.raises(NotASubcomplex) as want:
            reference_filtration_layers(k2, k1)
        assert err.value.simplex == want.value.simplex


def test_chain_from_simplices_finds_every_term_in_one_lookup(monkeypatch, filled_square):
    k = filled_square
    want = Chain.make(1, {k.index_of(1, (0, 2)): Fraction(3, 2), k.index_of(1, (0, 1)): 2})
    finds = []
    real = SimplicialComplex._find
    monkeypatch.setattr(SimplicialComplex, "_find", lambda self, r, q: finds.append(len(q)) or real(self, r, q))
    assert Chain.from_simplices(k, [([2, 0], 1), ([0, 1], 2), ([0, 2], Fraction(1, 2))]) == want
    assert finds == [3]
    # terms are still judged in order: the first absent simplex or bad
    # coefficient raises, and a vertex id past int64 is merely absent
    with pytest.raises(BadParameter, match=r"simplex \(0, 9\) is not in the complex"):
        Chain.from_simplices(k, [([0, 1], 1), ([0, 9], 1), ([0, 2], "x")])
    with pytest.raises(ValueError):
        Chain.from_simplices(k, [([0, 1], "x"), ([0, 9], 1)])
    with pytest.raises(BadParameter, match=rf"simplex \(0, {2**70}\) is not in the complex"):
        Chain.from_simplices(k, [([0, 1], 1), ([0, 2**70], 1)])
    with pytest.raises(BadParameter, match="mixed-dimension terms"):
        Chain.from_simplices(k, [([0, 1], 1), ([0], 1)])


def test_lookup_rejects_absent_unsorted_and_out_of_range_rows(filled_square):
    assert filled_square.index_of(1, (0, 2)) == 5
    for s in ((2, 0), (1, 3), (0, 9), (-1, 0), (0.0, 2.0), (), (0, 1, 2, 3)):
        assert not filled_square.contains(s)
        with pytest.raises(KeyError):
            filled_square.index_of(len(s) - 1, s)
    with pytest.raises(KeyError):
        filled_square.index_of(2, (0, 2))  # an edge looked up among the triangles


# --- the face index -------------------------------------------------------------

def face_index_cases(tmp_path, monkeypatch, seed):
    """name -> (complex, whether its face index is whole before any read): files,
    autoclosed input and Rips complexes, and the reordered stages of pairs and of a
    track."""
    pts = random_point_cloud(np.random.default_rng(seed), 16)
    rips = [generate("vietoris_rips", points=pts, threshold=t, max_dim=3) for t in (0.3, 0.4, 0.5)]
    loaded = []
    for i, k in enumerate(rips):
        save_complex(k, tmp_path / f"{i}.jsonl")
        loaded.append(load_complex(tmp_path / f"{i}.jsonl"))
    stages, real = [], homology.validate_filtration
    monkeypatch.setattr(homology, "validate_filtration",
                        lambda k1, k2: stages.append(real(k1, k2)) or stages[-1])
    track_classes(loaded, [Chain.make(1, {})])
    assert len(stages) == 2
    cases = {
        "loaded": (loaded[2], True),
        "autoclosed": (build_complex(shuffled_simplices(seed, keep=0.6)), True),
        "rips": (rips[2], False),
        "reordered loaded k2": (validate_filtration(loaded[0], loaded[2]).k2, False),
        "reordered rips k2": (validate_filtration(rips[0], rips[2]).k2, False),
        "reordered k2 below a lower k1": (validate_filtration(
            generate("vietoris_rips", points=pts, threshold=0.4, max_dim=1), loaded[2]).k2, False),
        "track stage 2": (stages[0].k2, False),
        "track stage 3": (stages[1].k2, False),
    }
    return cases


@pytest.mark.parametrize("seed", range(3))
def test_face_index_matches_a_fresh_lookup(tmp_path, monkeypatch, seed):
    # the face index has two sources: assembly keeps the face positions its closure
    # search finds (autoclosed faces at their appended positions), and any other
    # complex, a filtration's reordered k2 included, fills a layer's entry with one
    # lookup on first use
    for name, (k, whole) in face_index_cases(tmp_path, monkeypatch, seed).items():
        dims = range(1, min(k.dim(), 3) + 1)
        assert len(dims) >= 2, name
        assert sorted(k._face_at) == (list(dims) if whole else []), name
        want = {r: k._find(r - 1, _faces(k._rows[r])).reshape(-1, r + 1) for r in dims}
        finds = []
        real = SimplicialComplex._find
        with monkeypatch.context() as m:
            m.setattr(SimplicialComplex, "_find", lambda self, r, q: finds.append(r) or real(self, r, q))
            for _ in range(2):
                for r in dims:
                    assert np.array_equal(_face_rows(k, r), want[r]), (name, r)
                    assert np.array_equal(_face_rows(k, r, [2, 0]), want[r][[2, 0]]), (name, r)
        assert finds == ([] if whole else [r - 1 for r in dims]), name
        for r in dims:
            for at in (k._face_at[r], _face_rows(k, r)):
                with pytest.raises(ValueError, match="read-only"):
                    at[0, 0] = 0
                assert np.array_equal(at, want[r])


def test_face_index_lives_on_each_complex_object(filled_square):
    # outside the dataclass fields (their pin is in test_api.py): a complex made from
    # another's layers starts with no index and fills its own
    again = SimplicialComplex(filled_square.n, dict(filled_square._rows))
    assert sorted(filled_square._face_at) == [1, 2] and again._face_at == {}
    assert np.array_equal(_face_rows(again, 2), _face_rows(filled_square, 2))
    assert again._face_at[2] is not filled_square._face_at[2]
