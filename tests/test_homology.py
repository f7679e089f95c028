from fractions import Fraction

import numpy as np
import pytest

from homology_lab import (
    Chain,
    Verdict,
    betti_via_tracking,
    boundary_matrix,
    build_complex,
    detect_cycle_stochastic,
    estimate_normalized_betti,
    estimate_normalized_persistent_betti,
    exact_betti,
    exact_persistent_betti,
    generate,
    is_cycle_exact,
    sample_cycles,
    track_classes,
    validate_filtration,
)
from homology_lab import test_equivalent as check_equivalent
from homology_lab import test_equivalent_cohomological as check_cohomological
from homology_lab import test_trivial as check_trivial
from homology_lab.cohomology import cocycle_basis
from homology_lab.errors import (
    BadParameter,
    DimensionMismatch,
    NotACycle,
    NotAFiltrationChain,
    TrivialKernel,
    ZeroChain,
)

from conftest import (
    RP2_TRIANGLES,
    complete_graph,
    count_boundary_builds,
    count_reductions,
    gf2_betti,
    klein_grid,
    oracle_solvable,
    random_rips,
    reference_boundary_of,
    rips_with_edges,
)


def loop_chain(k):
    """The triangle boundary loop [1,2] - [0,2] + [0,1] in sorted-edge signs."""
    return Chain.from_simplices(k, [([1, 2], 1), ([0, 2], -1), ([0, 1], 1)])


# --- cycles -------------------------------------------------------------------

@pytest.mark.parametrize("seed,n_points", [(0, 40), (1, 70), (2, 100), (3, 150)])
def test_face_boundaries_match_the_loop_over_every_nonzero(seed, n_points):
    # random rational chains, sampled cycles scaled by a rational, and those
    # cycles plus one more simplex, on Rips complexes with tetrahedra
    from homology_lab.homology import _boundaries

    k = random_rips(seed, n_points=n_points, threshold=(8 / (np.pi * n_points)) ** 0.5, max_dim=3)
    assert k.size(3) > 0
    rng = np.random.default_rng(seed)
    cycles = 0
    for r in (1, 2, 3):
        chains = []
        for _ in range(3):
            support = rng.choice(k.size(r), size=1 + int(rng.integers(20)), replace=False) + 1
            chains.append(Chain.make(r, {int(j): Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 7)))
                                         for j in support}))
        scale = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        for z in sample_cycles(k, r, s=3, seed=seed):
            z = Chain.make(r, {i: x * scale for i, x in z.coeffs.items()})
            j = int(rng.integers(1, k.size(r) + 1))
            chains += [z, Chain.make(r, {**z.coeffs, j: z.coeffs.get(j, 0) + 1})]
        for c, got in zip(chains, _boundaries(k, r, chains)):
            want = reference_boundary_of(k, c)
            assert got == {i: x for i, x in enumerate(want) if x}
            assert all(type(x) is Fraction for x in got.values())
            assert is_cycle_exact(k, c) == (not any(want))
            cycles += not got
    assert cycles == 9  # each sampled cycle, and nothing else: both kinds occur


@pytest.mark.parametrize("index", [0, -1, 4])
def test_is_cycle_exact_rejects_an_index_outside_the_layer(hollow_triangle, index):
    with pytest.raises(DimensionMismatch):
        is_cycle_exact(hollow_triangle, Chain(r=1, coeffs={index: Fraction(1)}))


def test_triangle_loop_is_cycle(hollow_triangle):
    assert is_cycle_exact(hollow_triangle, loop_chain(hollow_triangle))


def test_single_edge_not_cycle(hollow_triangle):
    c = Chain.from_simplices(hollow_triangle, [([0, 1], 1)])
    assert not is_cycle_exact(hollow_triangle, c)


def test_zero_chain_is_cycle(hollow_triangle):
    assert is_cycle_exact(hollow_triangle, Chain.make(1, {}))


def test_rational_coefficients_cycle(hollow_triangle):
    c = Chain.from_simplices(
        hollow_triangle, [([1, 2], Fraction(2, 3)), ([0, 2], Fraction(-2, 3)), ([0, 1], Fraction(2, 3))]
    )
    assert is_cycle_exact(hollow_triangle, c)


# --- stochastic cycle detection --------------------------------------------------

def test_detect_cycle_never_rejects_true_cycle(hollow_triangle):
    c = loop_chain(hollow_triangle)
    for seed in range(50):
        assert detect_cycle_stochastic(hollow_triangle, c, eta=0.05, seed=seed) == "likely_cycle"


def test_detect_cycle_rejects_edge_with_expected_rate(hollow_triangle):
    # success probability per trial from first principles
    d = boundary_matrix(hollow_triangle, 1).toarray().astype(float)
    gram = d.T @ d / (2 * 3)
    e1 = np.zeros(3)
    e1[0] = 1.0
    p = float(np.linalg.norm(gram @ e1) ** 2)
    assert abs(p - 1 / 6) < 1e-12

    c = Chain.from_simplices(hollow_triangle, [([0, 1], 1)])
    eta = 0.1
    rejections = sum(
        detect_cycle_stochastic(hollow_triangle, c, eta=eta, seed=seed) == "not_cycle"
        for seed in range(2000)
    )
    expected = 1 - (1 - p) ** 10
    sigma = (2000 * expected * (1 - expected)) ** 0.5
    assert abs(rejections - 2000 * expected) <= 4 * sigma


def test_detect_cycle_zero_chain(hollow_triangle):
    with pytest.raises(ZeroChain):
        detect_cycle_stochastic(hollow_triangle, Chain.make(1, {}), eta=0.1)


@pytest.mark.parametrize("exponent", [400, -400])
def test_detect_cycle_measures_an_edge_of_any_scale(hollow_triangle, exponent):
    # the unit chain sets the success probability: an edge times 10^400 did
    # not convert to float, and one times 10^-400 became 0 and passed as a cycle
    edge = Chain.make(1, {1: Fraction(10) ** exponent})
    got = [detect_cycle_stochastic(hollow_triangle, edge, eta=0.1, seed=seed) for seed in range(40)]
    assert got == [detect_cycle_stochastic(hollow_triangle, Chain.make(1, {1: 1}), eta=0.1, seed=seed)
                   for seed in range(40)]
    assert "not_cycle" in got


# --- triviality ------------------------------------------------------------------

def test_boundary_loop_trivial_in_filled(filled_triangle):
    assert check_trivial(filled_triangle, loop_chain(filled_triangle), mode="exact").answer


def test_loop_nontrivial_in_hollow(hollow_triangle):
    assert not check_trivial(hollow_triangle, loop_chain(hollow_triangle), mode="exact").answer


def test_circle_loop_nontrivial():
    k = generate("circle", m=4)
    c = Chain.from_simplices(
        k, [([0, 1], 1), ([1, 2], 1), ([2, 3], 1), ([0, 3], -1)]
    )
    assert is_cycle_exact(k, c)
    assert not check_trivial(k, c, mode="exact").answer


def test_trivial_rejects_non_cycles(hollow_triangle):
    with pytest.raises(NotACycle):
        check_trivial(hollow_triangle, Chain.from_simplices(hollow_triangle, [([0, 1], 1)]))


def test_trivial_agrees_with_membership_oracle(filled_square):
    # every cycle of the filled square, checked against direct solvability
    cycles = sample_cycles(filled_square, 1, s=12, seed=0)
    d2 = boundary_matrix(filled_square, 2).toarray()
    for c in cycles:
        got = check_trivial(filled_square, c, mode="exact").answer
        want = oracle_solvable(d2, c.dense(filled_square.size(1)))
        assert got == want


def test_trivial_stochastic_matches_exact(filled_square, hollow_triangle):
    for k in (filled_square, hollow_triangle):
        for c in sample_cycles(k, 1, s=4, seed=1):
            exact = check_trivial(k, c, mode="exact").answer
            sto = check_trivial(k, c, mode="stochastic")
            assert sto.answer == exact and not sto.low_confidence


@pytest.mark.parametrize("seed", range(4))
def test_harmonic_weight_is_within_the_margin_of_the_projection(seed):
    # |Q_H^T c|^2 against |P_H c|^2 from a dense least-squares projection
    # onto the boundary space, for unit cycles c
    from homology_lab.operators import laplacian
    from homology_lab.spectra import harmonic_basis

    k = generate("vietoris_rips", points=np.random.default_rng(seed).random((30, 2)).tolist(),
                 threshold=0.3)
    lap = laplacian(k, 1)
    # each row's entries reversed: integer CSR with unsorted indices, which the rescaling must not sort
    order = np.concatenate([np.arange(e - 1, s - 1, -1) for s, e in zip(lap.indptr, lap.indptr[1:])])
    lap = type(lap)((lap.data[order], lap.indices[order], lap.indptr), shape=lap.shape)
    assert not lap.has_sorted_indices
    before = lap.toarray()
    q, margin, converged = harmonic_basis(lap, seed)
    assert (lap.toarray() == before).all()
    assert converged and q.shape[1] == exact_betti(k, 1)
    d2 = boundary_matrix(k, 2).toarray().astype(float)
    for c in sample_cycles(k, 1, s=6, seed=seed):
        c = np.array([float(x) for x in c.dense(k.size(1))])
        c /= np.linalg.norm(c)
        harmonic = c - d2 @ np.linalg.lstsq(d2, c, rcond=None)[0]
        assert abs(np.sum((q.T @ c) ** 2) - harmonic @ harmonic) <= margin + 1e-12
    assert 0.0 <= margin < 1e-6


@pytest.mark.parametrize("seed", [0, 1], ids=["seed0", "seed1"])
def test_stochastic_verdicts_on_rips_are_right_and_confident(seed):
    # the nontrivial cycles of sample seed 1 have harmonic weights from 0.002
    # up, far above the cut; each seed samples its own ten cycles per complex
    for rips_seed in range(20):
        k = generate("vietoris_rips",
                     points=np.random.default_rng(rips_seed).random((30, 2)).tolist(), threshold=0.3)
        for c in sample_cycles(k, 1, s=10, seed=1 + seed):
            verdict = check_trivial(k, c, mode="stochastic")
            assert verdict.answer == check_trivial(k, c).answer and not verdict.low_confidence


@pytest.mark.parametrize("points,threshold", [(150, 0.16), (200, 0.15)])
def test_stochastic_verdicts_above_the_oracle_gate_are_right_and_confident(points, threshold):
    # 713 and 1196 edges, rescaled Hodge gaps of a few 1e-3
    from homology_lab.operators import laplacian
    from homology_lab.spectra import harmonic_basis

    k = generate("vietoris_rips", points=np.random.default_rng(0).random((points, 2)).tolist(),
                 threshold=threshold)
    assert k.size(1) > 500
    q, _, converged = harmonic_basis(laplacian(k, 1), 0)
    assert converged and q.shape[1] == exact_betti(k, 1)
    d2 = boundary_matrix(k, 2).toarray()
    rng = np.random.default_rng(0)
    boundaries = [Chain.make(1, {i + 1: int(x) for i, x in enumerate(d2 @ rng.integers(-2, 3, k.size(2)))
                                 if x}) for _ in range(4)]
    for c in boundaries + sample_cycles(k, 1, s=6, seed=1):
        verdict = check_trivial(k, c, mode="stochastic")
        assert verdict.answer == check_trivial(k, c).answer and not verdict.low_confidence
    assert all(check_trivial(k, c).answer for c in boundaries)


@pytest.mark.parametrize("exponent", [400, -400])
def test_stochastic_class_queries_take_chains_of_any_scale(filled_triangle, exponent):
    # coefficients past the float range: Rips cycles times 10^400 raised
    # OverflowError, and the filled triangle's loop times 10^-400 had a NaN
    # weight, a confident wrong "not trivial"; now each scaled chain reads
    # the unit column of the unscaled one
    k = rips(0, 0.3)
    d2 = boundary_matrix(k, 2).toarray()
    boundary = Chain.make(1, {i + 1: int(x) for i, x in
                              enumerate(d2 @ np.random.default_rng(0).integers(-2, 3, k.size(2))) if x})
    cycles = sample_cycles(k, 1, s=4, seed=1) + [boundary]
    cases = [(k, c) for c in cycles] + [(filled_triangle, loop_chain(filled_triangle))]

    def scaled(c):
        return Chain.make(c.r, {i: x * Fraction(10) ** exponent for i, x in c.coeffs.items()})

    for stage, c in cases:
        verdict = check_trivial(stage, scaled(c), mode="stochastic")
        assert verdict == check_trivial(stage, c, mode="stochastic")
        assert verdict.answer == check_trivial(stage, c).answer and not verdict.low_confidence
    assert check_equivalent(k, scaled(cycles[0]), cycles[1], mode="stochastic") == \
        check_equivalent(k, cycles[0], cycles[1], mode="stochastic")
    assert betti_via_tracking(k, 1, [scaled(c) for c in cycles], mode="stochastic") == \
        betti_via_tracking(k, 1, cycles, mode="stochastic") == \
        betti_via_tracking(k, 1, cycles)


@pytest.mark.parametrize("tail", [0, 40])
def test_harmonic_basis_doubles_its_block_until_the_kernel_fits(monkeypatch, tail):
    # K_12 has beta_1 = 55 > 48: the block goes 24, 48, then 96 (or the whole
    # layer when that is smaller), where it converges
    from homology_lab.operators import laplacian
    from homology_lab.spectra import harmonic_basis

    k = build_complex(complete_graph(12, tail))
    widths = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda x: widths.append(x.shape[1]) or qr(x))
    q, margin, converged = harmonic_basis(laplacian(k, 1), 0)
    assert converged and q.shape[1] == exact_betti(k, 1) == 55 and margin < 1e-6
    assert sorted(set(widths)) == [24, 48, min(96, k.size(1))]


def test_harmonic_basis_keeps_guard_columns_past_a_kernel_just_below_its_block(monkeypatch):
    # the 990 shortest edges of 300 random points have beta_1 = 23: a
    # 24-column block kept one non-harmonic column, whose Ritz value converged
    # too slowly for 50 steps; with fewer than HARMONIC_GUARD such columns the
    # block doubles to 48, and the basis converges
    from homology_lab.operators import laplacian
    from homology_lab.spectra import harmonic_basis

    pts = np.random.default_rng([300, 0]).random((300, 2))
    i, j = np.triu_indices(len(pts), 1)
    d = np.sort(np.linalg.norm(pts[i] - pts[j], axis=1))
    k = generate("vietoris_rips", points=pts, threshold=(d[989] + d[990]) / 2)
    assert k.size(1) == 990 and exact_betti(k, 1) == 23
    estimate = estimate_normalized_betti(k, 1, seed=0)
    assert estimate.betti() == 23 and not estimate.low_confidence
    widths = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda x: widths.append(x.shape[1]) or qr(x))
    q, margin, converged = harmonic_basis(laplacian(k, 1), 0)
    assert converged and q.shape[1] == 23 and margin < 1e-6
    assert sorted(set(widths)) == [24, 48]


@pytest.mark.parametrize("m, built", [(6, 0), (40, 1)])
def test_harmonic_basis_builds_the_filter_operator_at_its_first_filter_step(monkeypatch, m, built):
    # a layer that fits in the first 24-column block is solved by the first
    # Ritz step, with no filter step; a larger one builds the operator once
    from homology_lab import spectra
    from homology_lab.operators import laplacian

    calls = []
    real = spectra._shifted
    monkeypatch.setattr(spectra, "_shifted", lambda lap: calls.append(lap.shape) or real(lap))
    q, _, converged = spectra.harmonic_basis(laplacian(generate("circle", m=m), 1), 0)
    assert converged and q.shape[1] == 1
    assert calls == [(m, m)] * built


@pytest.mark.parametrize("seed", range(3))
def test_harmonic_basis_filters_a_block_that_meets_the_top_eigenspace(seed):
    # seven disjoint 4-cycles: L_1 over its infinity norm has eigenvalue 1
    # seven times, so a 24-column block of the 28 edges contains a top
    # eigenvector and its largest Ritz value is 1, where the filter's map
    # [a, 1] -> [-1, 1] divided by zero and its steps overflowed
    from homology_lab.operators import laplacian
    from homology_lab.spectra import harmonic_basis

    k = build_complex([[4 * c + i, 4 * c + (i + 1) % 4] for c in range(7) for i in range(4)])
    with np.errstate(all="raise"):
        q, margin, converged = harmonic_basis(laplacian(k, 1), seed)
    assert converged and q.shape[1] == exact_betti(k, 1) == 7 and margin < 1e-6
    square = Chain.make(1, {1: 1, 2: 1, 3: 1, 4: -1})  # 01 + 12 + 23 - 03
    verdict = check_trivial(k, square, mode="stochastic")
    assert not verdict.answer and not verdict.low_confidence


def test_stochastic_verdicts_are_exact_and_confident_when_the_kernel_outgrows_the_block_cap():
    # K_22 plus one filled triangle: beta_1 = 209 > 192.  The class queries
    # count residuals against d_2 and read no harmonic basis, so they are
    # exact and confident; the Betti estimates read the capped basis and are
    # flagged lower bounds
    from homology_lab.homology import _betti_via_tracking

    k = build_complex(complete_graph(22) + [[0, 1, 2]])
    assert exact_betti(k, 1) == 209
    triangle = Chain.from_simplices(k, [([1, 2], 1), ([0, 2], -1), ([0, 1], 1)])
    cycles = sample_cycles(k, 1, s=4, seed=1)
    verdicts = [check_trivial(k, c, mode="stochastic") for c in cycles + [triangle]]
    verdicts.append(check_equivalent(k, cycles[0], cycles[1], mode="stochastic"))
    verdicts += track_classes([k, k], cycles[:1], mode="stochastic").stages
    assert verdicts == [Verdict(answer=a, method="stochastic") for a in [False] * 4 + [True] + [False] * 3]
    assert [v.answer for v in verdicts[:6]] == [check_trivial(k, c).answer for c in cycles + [triangle]] + \
        [check_equivalent(k, cycles[0], cycles[1]).answer]
    assert _betti_via_tracking(k, 1, cycles, "stochastic") == (4, False)
    assert betti_via_tracking(k, 1, cycles) == 4
    for est in (estimate_normalized_betti(k, 1, seed=0),
                estimate_normalized_persistent_betti(validate_filtration(k, k), 1, seed=0)):
        assert est.low_confidence and est.betti() <= 209


def test_stochastic_class_queries_on_a_top_layer_match_the_exact_ones():
    # seven disjoint 4-cycles have no triangles, so every nonzero cycle is
    # nontrivial; the stochastic verdicts read residuals against the zero map
    # d_2, the cycles themselves, and agree with the exact ones, with high
    # confidence
    from homology_lab.homology import _betti_via_tracking

    k = build_complex([[4 * c + i, 4 * c + (i + 1) % 4] for c in range(7) for i in range(4)])
    assert k.size(2) == 0
    squares = [Chain.make(1, {4 * c + 1: 1, 4 * c + 2: 1, 4 * c + 3: 1, 4 * c + 4: -1}) for c in range(7)]
    cycles = squares + sample_cycles(k, 1, s=3, seed=0) + [Chain.make(1, {})]
    queries = (
        lambda mode: [check_trivial(k, c, mode) for c in cycles],
        lambda mode: [check_equivalent(k, a, b, mode) for a in cycles[5:] for b in cycles[6:]],
        lambda mode: [v for tracked in ([cycles[0]], cycles[1:3], [cycles[1], cycles[1]])
                      for v in track_classes([k, k], tracked, mode).stages],
    )
    for query in queries:
        exact, stochastic = query("exact"), query("stochastic")
        assert [v.answer for v in stochastic] == [v.answer for v in exact]
        assert {v.answer for v in exact} == {True, False}
        assert not any(v.low_confidence for v in stochastic)
    assert _betti_via_tracking(k, 1, cycles, "stochastic") == (7, False)
    assert betti_via_tracking(k, 1, cycles) == 7


def test_stochastic_class_queries_on_a_top_layer_past_the_block_cap_are_exact_and_confident():
    # K_22's edges alone: beta_1 = 210 > 192 on the top layer.  d_2 is the
    # zero map, so every residual is the cycle itself and each nonzero cycle
    # is its own class, past any cap
    from homology_lab.homology import _betti_via_tracking

    k = build_complex(complete_graph(22))
    assert exact_betti(k, 1) == 210 and k.size(2) == 0
    cycles = sample_cycles(k, 1, s=2, seed=1) + [loop_chain(k)]
    verdicts = [check_trivial(k, c, mode="stochastic") for c in cycles]
    verdicts.append(check_equivalent(k, cycles[0], cycles[1], mode="stochastic"))
    verdicts += track_classes([k, k], cycles[:1], mode="stochastic").stages
    assert verdicts == [Verdict(answer=False, method="stochastic")] * 6
    assert [v.answer for v in verdicts[:4]] == [check_trivial(k, c).answer for c in cycles] + \
        [check_equivalent(k, cycles[0], cycles[1]).answer]
    assert _betti_via_tracking(k, 1, cycles, "stochastic") == (3, False)
    assert betti_via_tracking(k, 1, cycles) == 3


def test_stochastic_verdicts_are_low_confidence_when_the_iteration_is_cut_short(monkeypatch):
    # the solver needs about 70 steps on these 713 edges; stopped by its step
    # limit, a boundary's residual is still far above the cut, so its
    # verdict is wrong and must be flagged, as must every other one
    from homology_lab import spectra

    k = generate("vietoris_rips", points=np.random.default_rng(0).random((150, 2)).tolist(),
                 threshold=0.16)
    d2 = boundary_matrix(k, 2).toarray()
    rng = np.random.default_rng(0)
    boundaries = [Chain.make(1, {i + 1: int(x) for i, x in enumerate(d2 @ rng.integers(-2, 3, k.size(2)))
                                 if x}) for _ in range(2)]
    chains = sample_cycles(k, 1, s=4, seed=1) + boundaries
    exact = [check_trivial(k, c).answer for c in chains]
    assert exact == [False] * 4 + [True] * 2
    wrong = 0
    for steps in (0, 1, 4, 16, 48):
        monkeypatch.setattr(spectra, "RESIDUAL_STEPS", steps)
        verdicts = [check_trivial(k, c, mode="stochastic") for c in chains]
        assert all(v.low_confidence for v in verdicts)
        wrong += sum(v.answer != want for v, want in zip(verdicts, exact))
    assert wrong
    monkeypatch.undo()
    assert [check_trivial(k, c, mode="stochastic") for c in chains] == \
        [Verdict(answer=a, method="stochastic") for a in exact]


def test_stochastic_class_queries_draw_no_probes_and_compute_no_rank(monkeypatch, filled_square):
    # nor do the Betti estimates, which read the same harmonic bases
    from homology_lab import exact, operators, spectra

    calls = {}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    c1, c2 = sample_cycles(filled_square, 1, s=2, seed=0)
    hollow = build_complex([[0, 1], [1, 2], [2, 3], [0, 3], [0, 2]])
    pair = validate_filtration(hollow, build_complex([[0, 2, 3], [0, 1], [1, 2]], autoclose=True))
    for name in ("stochastic_rank", "_probe_matrix", "power_iteration_bound"):
        count(spectra, name)
    count(operators, "persistent_laplacian")
    count(exact, "rank")
    count(exact, "reduce_columns")
    count(np.linalg, "eigvalsh")
    check_trivial(filled_square, c1, mode="stochastic")
    check_equivalent(filled_square, c1, c2, mode="stochastic")
    track_classes([filled_square] * 2, [c1, c2], mode="stochastic")
    betti_via_tracking(filled_square, 1, [c1, c2], mode="stochastic")
    assert estimate_normalized_betti(hollow, 1).betti() == 2
    assert estimate_normalized_persistent_betti(pair, 1).betti() == 1
    assert calls == {}


@pytest.mark.parametrize("call", [
    lambda k, c: check_trivial(k, c, mode="bogus"),
    lambda k, c: check_equivalent(k, c, c, mode="bogus"),
    lambda k, c: track_classes([k], [c], mode="bogus"),
    lambda k, c: betti_via_tracking(k, 1, [c], mode="bogus"),
], ids=["test_trivial", "test_equivalent", "track_classes", "betti_via_tracking"])
def test_class_functions_reject_an_unknown_mode(hollow_triangle, call):
    with pytest.raises(BadParameter):
        call(hollow_triangle, loop_chain(hollow_triangle))


# --- equivalence -------------------------------------------------------------------

def test_equivalent_reflexive(hollow_triangle):
    c = loop_chain(hollow_triangle)
    assert check_equivalent(hollow_triangle, c, c, mode="exact") == Verdict(answer=True, method="exact")
    # the difference is the zero chain, which lies in every boundary span,
    # the zero span of a top layer included
    for k, r in ((generate("filled_triangle"), 1), (generate("torus"), 1), (generate("sphere2"), 2),
                 (generate("circle", m=5), 0)):
        for c in sample_cycles(k, r, s=3, seed=0):
            assert check_equivalent(k, c, c, mode="exact") == Verdict(answer=True, method="exact")


def test_filled_square_paths_equivalent(filled_square):
    upper = Chain.from_simplices(filled_square, [([0, 1], 1), ([1, 2], 1), ([0, 2], -1)])
    lower = Chain.from_simplices(filled_square, [([0, 2], 1), ([2, 3], 1), ([0, 3], -1)])
    assert is_cycle_exact(filled_square, upper)
    assert is_cycle_exact(filled_square, lower)
    assert check_equivalent(filled_square, upper, lower, mode="exact").answer


def test_disjoint_loops_not_equivalent(two_hollow_triangles):
    k = two_hollow_triangles
    a = Chain.from_simplices(k, [([1, 2], 1), ([0, 2], -1), ([0, 1], 1)])
    b = Chain.from_simplices(k, [([4, 5], 1), ([3, 5], -1), ([3, 4], 1)])
    assert not check_equivalent(k, a, b, mode="exact").answer


def test_equivalence_relation_properties(figure_eight):
    k = figure_eight
    cycles = sample_cycles(k, 1, s=6, seed=2)
    for c in cycles:
        assert check_equivalent(k, c, c, mode="exact").answer
    for a in cycles[:3]:
        for b in cycles[:3]:
            ab = check_equivalent(k, a, b, mode="exact").answer
            ba = check_equivalent(k, b, a, mode="exact").answer
            assert ab == ba
    # transitivity on sampled triples
    for i in range(3):
        a, b, c = cycles[i], cycles[(i + 1) % 3], cycles[(i + 2) % 3]
        if (check_equivalent(k, a, b, mode="exact").answer
                and check_equivalent(k, b, c, mode="exact").answer):
            assert check_equivalent(k, a, c, mode="exact").answer


def test_equivalent_dimension_mismatch(filled_square):
    c1 = Chain.from_simplices(filled_square, [([0, 1], 1)])
    c0 = Chain.from_simplices(filled_square, [([0], 1)])
    with pytest.raises(DimensionMismatch):
        check_equivalent(filled_square, c1, c0)


def test_one_tracked_cycle_counts_its_nontriviality(filled_square):
    for c in sample_cycles(filled_square, 1, s=8, seed=3):
        got = betti_via_tracking(filled_square, 1, [c])
        assert got in (0, 1)
        assert got == (not check_trivial(filled_square, c).answer)


# --- tracking -------------------------------------------------------------------

def test_track_loop_dies_in_filled(hollow_triangle, filled_triangle):
    report = track_classes([hollow_triangle, filled_triangle], [loop_chain(hollow_triangle)])
    assert report.kind == "trivial"
    assert [s.answer for s in report.stages] == [False, True]


def test_track_identical_stages(hollow_triangle):
    report = track_classes([hollow_triangle, hollow_triangle], [loop_chain(hollow_triangle)])
    assert report.stages[0].answer == report.stages[1].answer


def test_track_circle_filling():
    k1 = generate("circle", m=4)
    k2 = build_complex(
        [[0, 1], [1, 2], [2, 3], [0, 3], [0, 2], [0, 1, 2], [0, 2, 3]], autoclose=True
    )
    loop = Chain.from_simplices(k1, [([0, 1], 1), ([1, 2], 1), ([2, 3], 1), ([0, 3], -1)])
    report = track_classes([k1, k2], [loop])
    assert [s.answer for s in report.stages] == [False, True]


def test_track_rejects_non_chain(hollow_triangle):
    k_other = build_complex([[0, 1], [1, 2]], autoclose=True)
    with pytest.raises(NotAFiltrationChain):
        track_classes([hollow_triangle, k_other], [loop_chain(hollow_triangle)])


def test_track_two_cycles(filled_square):
    upper = Chain.from_simplices(filled_square, [([0, 1], 1), ([1, 2], 1), ([0, 2], -1)])
    lower = Chain.from_simplices(filled_square, [([0, 2], 1), ([2, 3], 1), ([0, 3], -1)])
    report = track_classes([filled_square, filled_square], [upper, lower])
    assert report.kind == "equivalent"
    assert all(s.answer for s in report.stages)


# --- sampling --------------------------------------------------------------------

def test_sample_cycles_hollow_triangle(hollow_triangle):
    cycles = sample_cycles(hollow_triangle, 1, s=3, seed=0)
    assert len(cycles) == 3
    base = loop_chain(hollow_triangle).dense(3)
    for c in cycles:
        assert is_cycle_exact(hollow_triangle, c)
        dense = c.dense(3)
        ratios = {dense[i] / base[i] for i in range(3)}
        assert len(ratios) == 1  # kernel is one-dimensional: all are multiples


def test_sample_cycles_filled_triangle(filled_triangle):
    for c in sample_cycles(filled_triangle, 1, s=4, seed=1):
        assert is_cycle_exact(filled_triangle, c)


def test_sample_cycles_tree_graph():
    tree = build_complex([[0, 1], [1, 2], [2, 3]], autoclose=True)
    with pytest.raises(TrivialKernel):
        sample_cycles(tree, 1, s=1, seed=0)


# --- Betti via tracking -------------------------------------------------------------

def test_betti_via_tracking_hollow(hollow_triangle):
    cycles = sample_cycles(hollow_triangle, 1, s=5, seed=4)
    assert betti_via_tracking(hollow_triangle, 1, cycles, mode="exact") == 1


def test_exact_class_queries_on_the_top_layer_see_no_boundaries(monkeypatch):
    # with no (r+1)-simplices the boundary space is zero: distinct vertices
    # are independent 0-classes, and none is trivial at any stage; only the
    # zero chain is, in both modes, and neither mode builds a boundary
    k = build_complex([[0], [1], [2]])
    cycles = [Chain.make(0, {1: 1}), Chain.make(0, {2: 1}), Chain.make(0, {1: 1, 3: -1})]
    builds = count_boundary_builds(monkeypatch)
    assert betti_via_tracking(k, 0, cycles, mode="exact") == 3
    assert not any(s.answer for s in track_classes([k, k], cycles[:1]).stages)
    for mode in ("exact", "stochastic"):
        for c in cycles:
            assert check_trivial(k, c, mode=mode) == Verdict(answer=False, method=mode)
        assert check_trivial(k, Chain.make(0, {}), mode=mode) == Verdict(answer=True, method=mode)
        assert check_equivalent(k, cycles[0], cycles[1], mode=mode) == Verdict(answer=False, method=mode)
        assert check_equivalent(k, cycles[2], cycles[2], mode=mode) == Verdict(answer=True, method=mode)
    assert builds == []


def test_betti_via_tracking_figure_eight(figure_eight):
    cycles = sample_cycles(figure_eight, 1, s=10, seed=5)
    assert betti_via_tracking(figure_eight, 1, cycles, mode="exact") == 2


def test_betti_via_tracking_filled(filled_triangle):
    cycles = sample_cycles(filled_triangle, 1, s=4, seed=6)
    assert betti_via_tracking(filled_triangle, 1, cycles, mode="exact") == 0


def test_betti_via_tracking_is_lower_bound(figure_eight, filled_square, hollow_triangle):
    for k in (figure_eight, filled_square, hollow_triangle):
        cycles = sample_cycles(k, 1, s=6, seed=7)
        assert betti_via_tracking(k, 1, cycles, mode="exact") <= exact_betti(k, 1)


def test_betti_via_tracking_bounded_despite_boundary_directions():
    # Nontrivial pairwise non-homologous cycles on the torus are generically
    # independent in chain space, so a plain chain-space rank would overcount;
    # the class rank must stay bounded by the Betti number.
    k = generate("torus")
    for seed in range(6):
        cycles = sample_cycles(k, 1, s=10, seed=seed)
        got = betti_via_tracking(k, 1, cycles, mode="exact")
        assert got <= exact_betti(k, 1) == 2


def test_betti_via_tracking_reduces_the_boundary_once(monkeypatch):
    from homology_lab import exact

    k = generate("torus")
    cycles = sample_cycles(k, 1, s=10, seed=3)
    assert exact_betti(k, 1) == 2
    reductions = []
    real = exact.reduce_columns

    def counted(*args, **kwargs):
        reductions.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(exact, "reduce_columns", counted)
    assert betti_via_tracking(k, 1, cycles, mode="exact") == 2
    assert len(reductions) == 1


def test_betti_via_tracking_reaches_betti_on_canonical_generators():
    cases = [
        (generate("hollow_triangle"), 1),
        (generate("circle", m=6), 1),
        (generate("torus"), 1),
        (generate("tetrahedron_boundary"), 2),
        (generate("sphere2"), 2),
    ]
    for k, r in cases:
        beta = exact_betti(k, r)
        s = max(3 * beta, 3)
        hits = 0
        for seed in range(10):
            cycles = sample_cycles(k, r, s=s, seed=seed)
            got = betti_via_tracking(k, r, cycles, mode="exact")
            assert got <= beta
            hits += got == beta
        assert hits >= 9


def test_stochastic_betti_via_tracking_is_a_lower_bound():
    canonical = [generate("hollow_triangle"), generate("torus"), generate("sphere2"),
                 generate("tetrahedron_boundary"), generate("circle", m=7)]
    rips = [generate("vietoris_rips", points=np.random.default_rng(seed).random((30, 2)).tolist(),
                     threshold=0.3) for seed in range(20)]
    hits = []
    for k in canonical + rips:
        cycles = sample_cycles(k, 1, s=10, seed=1)
        got = betti_via_tracking(k, 1, cycles, mode="stochastic")
        assert got <= exact_betti(k, 1)
        hits.append(got == betti_via_tracking(k, 1, cycles, mode="exact"))
    assert all(hits[:len(canonical)])
    assert sum(hits[len(canonical):]) >= 15


# --- one check and one build per query ---------------------------------------------

def rips(seed, threshold, n_points=30):
    points = np.random.default_rng(seed).random((n_points, 2)).tolist()
    return generate("vietoris_rips", points=points, threshold=threshold)


@pytest.mark.parametrize("mode", ["exact", "stochastic"])
def test_class_queries_build_each_boundary_once(monkeypatch, mode):
    # input cycles are checked from their own faces, with no build; a query
    # in either mode builds d_2 once, and a track the last stage's d_2 once
    stages = [rips(0, t) for t in (0.3, 0.33, 0.36)]
    c1, c2 = sample_cycles(stages[0], 1, s=2, seed=0)
    builds = count_boundary_builds(monkeypatch)
    reductions = count_reductions(monkeypatch)

    def count(call) -> int:
        builds.clear()
        reductions.clear()
        call()
        return len(builds)

    # exact: one plain reduction of d_2 per query, stochastic: none
    reduced = [False] if mode == "exact" else []
    per_query = 1
    assert count(lambda: check_trivial(stages[0], c1, mode=mode)) == per_query
    assert reductions == reduced
    assert count(lambda: check_equivalent(stages[0], c1, c2, mode=mode)) == per_query
    assert reductions == reduced
    # the zero target c1 - c1 is in every span: it needs no boundary
    assert count(lambda: check_equivalent(stages[0], c1, c1, mode=mode)) == 0
    for s in (1, 2, 3):
        # the last stage's d_2, exactly reduced once and grown stage by stage
        builds_per_track = 1
        for cycles in ([c1], [c1, c2]):
            assert count(lambda: track_classes(stages[:s], cycles, mode=mode)) == builds_per_track
            assert reductions == reduced
    for n in (1, 4, 10):
        cycles = sample_cycles(stages[0], 1, s=n, seed=1)
        assert count(lambda: betti_via_tracking(stages[0], 1, cycles, mode=mode)) == per_query
    assert count(lambda: check_cohomological(stages[0], c1, c2, seed=0)) == 1
    # a non-cycle needs the whole d_1 for its measurement probability
    edge = Chain.make(1, {1: 1})
    for c, want in ((c1, 0), (edge, 1)):
        assert count(lambda: detect_cycle_stochastic(stages[0], c, eta=0.1, seed=0)) == want


@pytest.mark.parametrize("mode", ["exact", "stochastic"])
def test_track_classes_matches_the_verdicts_on_each_reordered_stage(mode):
    for seed in range(10):
        stages = [rips(seed, t, n_points=20) for t in (0.25, 0.3, 0.36)]
        ordered = stages[:1]
        for k in stages[1:]:
            ordered.append(validate_filtration(ordered[-1], k).k2)
        c1, c2 = sample_cycles(stages[0], 1, s=2, seed=seed)
        one = track_classes(stages, [c1], mode=mode)
        two = track_classes(stages, [c1, c2], mode=mode)
        assert (one.kind, two.kind) == ("trivial", "equivalent")
        assert one.stages == tuple(check_trivial(k, c1, mode=mode) for k in ordered)
        assert two.stages == tuple(check_equivalent(k, c1, c2, mode=mode) for k in ordered)


LOOP = Chain.make(1, {1: 1, 2: 1, 5: -1})  # [0,1] + [1,2] - [0,2] in the filled square
BAD_INPUTS = {  # bad chain, a good cycle of the filled square, error
    "absent-layer": (Chain.make(3, {1: 1}), LOOP, DimensionMismatch),
    "edge-index": (Chain.make(1, {6: 1}), LOOP, DimensionMismatch),
    "vertex-index": (Chain.make(0, {5: 1}), Chain.make(0, {1: 1}), DimensionMismatch),
    "non-cycle": (Chain.make(1, {1: 1}), LOOP, NotACycle),
    "mixed-dimension": (Chain.make(0, {1: 1}), LOOP, DimensionMismatch),
}
CLASS_CALLS = {
    "test_trivial": lambda k, bad, good: check_trivial(k, bad),
    "test_trivial-stochastic": lambda k, bad, good: check_trivial(k, bad, mode="stochastic"),
    "test_equivalent": lambda k, bad, good: check_equivalent(k, bad, good),
    "test_equivalent-stochastic": lambda k, bad, good: check_equivalent(k, good, bad,
                                                                        mode="stochastic"),
    "track_classes-one": lambda k, bad, good: track_classes([k, k], [bad]),
    "track_classes-two": lambda k, bad, good: track_classes([k, k], [good, bad], mode="stochastic"),
    "betti_via_tracking": lambda k, bad, good: betti_via_tracking(k, good.r, [good, bad]),
    "test_equivalent_cohomological": lambda k, bad, good: check_cohomological(k, good, bad),
    "is_cycle_exact": lambda k, bad, good: is_cycle_exact(k, bad),
    "detect_cycle_stochastic": lambda k, bad, good: detect_cycle_stochastic(k, bad, 0.1, seed=0),
}
SINGLE_CHAIN = ("test_trivial", "test_trivial-stochastic", "track_classes-one", "is_cycle_exact",
                "detect_cycle_stochastic")


@pytest.mark.parametrize("case", BAD_INPUTS)
@pytest.mark.parametrize("call", CLASS_CALLS)
def test_class_functions_keep_their_error_classes(filled_square, call, case):
    # the filled square has 4 vertices, 5 edges and 2 triangles; a lone vertex
    # is a 0-cycle, and a lone edge is not a 1-cycle
    bad, good, error = BAD_INPUTS[case]
    assert is_cycle_exact(filled_square, good)
    if (case == "mixed-dimension" and call in SINGLE_CHAIN) or (
            case == "non-cycle" and call in ("is_cycle_exact", "detect_cycle_stochastic")):
        CLASS_CALLS[call](filled_square, bad, good)  # a valid query: no error
        return
    with pytest.raises(error):
        CLASS_CALLS[call](filled_square, bad, good)


# --- class counts past the harmonic basis's block cap, and a known-answer family ---------

def wedge_of_triangles(m):
    """m hollow triangles sharing vertex 0: beta_1 = m, and no 2-simplex."""
    return build_complex([e for w in range(m) for e in ([0, 2 * w + 1], [0, 2 * w + 2],
                                                        [2 * w + 1, 2 * w + 2])])


def test_stochastic_class_counts_on_a_wedge_past_the_block_cap_are_right_and_confident():
    # beta_1 = 250 > 192, where the harmonic basis ended empty: a sampled
    # cycle read "trivial" and ten of them counted 0, both flagged
    k = wedge_of_triangles(250)
    assert exact_betti(k, 1) == 250
    cycles = sample_cycles(k, 1, 10, seed=1)
    assert check_trivial(k, cycles[0], mode="stochastic") == Verdict(answer=False, method="stochastic")
    from homology_lab.homology import _betti_via_tracking

    assert _betti_via_tracking(k, 1, cycles, "stochastic") == (10, False)
    assert betti_via_tracking(k, 1, cycles, mode="stochastic") == betti_via_tracking(k, 1, cycles) == 10


def test_stochastic_persistent_betti_reads_no_harmonic_basis_of_k2(monkeypatch):
    # an 8-cycle k1 inside k2 = k1 plus 200 disjoint hollow triangles: k2 has
    # beta_1 = 201 > 192, whose capped basis made the persistent count 0;
    # now only k1's basis is built
    from homology_lab import spectra

    k1 = [[v, (v + 1) % 8] for v in range(8)]
    k2 = k1 + [[8 + 3 * w + a, 8 + 3 * w + b] for w in range(200) for a, b in ((0, 1), (0, 2), (1, 2))]
    pair = validate_filtration(build_complex(k1), build_complex(k2))
    sizes = []
    real = spectra.hodge_basis
    monkeypatch.setattr(spectra, "hodge_basis", lambda k, r, seed: sizes.append(k.size(r)) or real(k, r, seed))
    est = estimate_normalized_persistent_betti(pair, 1)
    assert (est.betti(), est.low_confidence) == (1, False)
    assert sizes == [8]


def torus_grid(m):
    """The m x m triangulated torus: vertex (i, j) is i m + j, and each square
    of the grid is cut along its diagonal."""
    def v(i, j):
        return i % m * m + j % m
    return build_complex([tri for i in range(m) for j in range(m)
                          for tri in ([v(i, j), v(i + 1, j), v(i + 1, j + 1)],
                                      [v(i, j), v(i, j + 1), v(i + 1, j + 1)])], autoclose=True)


def test_torus_grid_answers_are_known_in_both_modes():
    # the 20 x 20 torus: |S| = (400, 1200, 800) and beta = (1, 2, 1) over Q,
    # known without any oracle; a row loop is nontrivial, a triangle's
    # boundary trivial, and sampled cycles span both 1-classes
    m = 20
    k = torus_grid(m)
    assert [k.size(r) for r in range(3)] == [400, 1200, 800]
    for r, want in enumerate((1, 2, 1)):
        assert exact_betti(k, r) == want
        est = estimate_normalized_betti(k, r, seed=0)
        assert (est.betti(), est.low_confidence) == (want, False)
    row = Chain.from_simplices(k, [([j, j + 1], 1) for j in range(m - 1)] + [([0, m - 1], -1)])
    triangle = Chain.from_simplices(k, [([m, m + 1], 1), ([0, m + 1], -1), ([0, m], 1)])
    cycles = sample_cycles(k, 1, s=6, seed=0)
    for mode in ("exact", "stochastic"):
        assert check_trivial(k, row, mode) == Verdict(answer=False, method=mode)
        assert check_trivial(k, triangle, mode) == Verdict(answer=True, method=mode)
        assert betti_via_tracking(k, 1, cycles, mode) == 2


def test_torus_inside_its_cone_answers_are_known():
    # K = the 20 x 20 torus inside cone(K), the apex joined to every simplex:
    # the cone is contractible, so every class of K dies in it, while K inside
    # itself keeps beta = (1, 2, 1); the cocycles of K number
    # |S_1| - rank d_2 = 1200 - 799 = 401 = beta_1 + rank d_1
    k = torus_grid(20)
    apex = k.n
    cone = build_complex(k.simplices() + [s + (apex,) for s in k.simplices()], autoclose=True)
    coned, same = validate_filtration(k, cone), validate_filtration(k, k)
    assert [exact_persistent_betti(coned, r) for r in range(3)] == [1, 0, 0]
    assert [exact_persistent_betti(same, r) for r in range(3)] == [1, 2, 1]
    est = estimate_normalized_persistent_betti(coned, 1, seed=0)
    assert (est.betti(), est.low_confidence) == (0, False)
    assert len(cocycle_basis(k, 1)) == 401


@pytest.mark.parametrize("m", [3, pytest.param(20, marks=pytest.mark.slow)])
def test_klein_bottle_and_projective_plane_answers_are_rational(m):
    # beta over Q differs from beta over GF(2) on both surfaces: torsion in
    # H_1 over the integers, which GF(2) counts and Q does not
    for k, sizes, want, mod2 in ((klein_grid(m), (m * m, 3 * m * m, 2 * m * m), (1, 1, 0), (1, 2, 1)),
                                 (build_complex(RP2_TRIANGLES), (6, 15, 10), (1, 0, 0), (1, 1, 1))):
        assert tuple(k.size(r) for r in range(3)) == sizes
        assert tuple(exact_betti(k, r) for r in range(3)) == want
        assert tuple(gf2_betti(k, r) for r in range(3)) == mod2


def walk_loop(k, walk):
    """The 1-cycle along a closed walk through the vertices ``walk``, each edge
    signed by the direction the walk takes it."""
    steps = zip(walk, walk[1:] + walk[:1])
    return Chain.from_simplices(k, [(sorted((a, b)), 1 if a < b else -1) for a, b in steps])


@pytest.mark.parametrize("mode", ["exact", "stochastic"])
@pytest.mark.parametrize("m", [3, 8, 20])
def test_klein_bottle_loops_over_the_rationals(m, mode):
    # H_1 over Z is Z + Z/2: rows wrap with j reflected, so the loop along j
    # is 2-torsion and bounds over Q; the loop along i generates the free part
    k = klein_grid(m)
    along_j, along_i = walk_loop(k, list(range(m))), walk_loop(k, [i * m for i in range(m)])
    assert check_trivial(k, along_j, mode) == Verdict(True, mode, False)
    assert check_trivial(k, along_i, mode) == Verdict(False, mode, False)


@pytest.mark.parametrize("mode", ["exact", "stochastic"])
def test_a_projective_plane_loop_that_is_no_face_bounds_over_the_rationals(mode):
    # 0-1-3 is not a triangle of RP^2, but H_1 over Q is 0
    k = build_complex(RP2_TRIANGLES)
    assert (0, 1, 3) not in k.layer(2)
    assert check_trivial(k, walk_loop(k, [0, 1, 3]), mode) == Verdict(True, mode, False)


@pytest.mark.parametrize("n_points,seed",
                         [(300, 0), (400, 1), pytest.param(500, 2, marks=pytest.mark.slow)])
def test_euler_characteristic_and_components_of_large_rips_complexes(n_points, seed):
    # sum (-1)^r beta_r = sum (-1)^r |S_r| through the top layer, and beta_0
    # counts the components that a union-find of the edges finds
    k = rips_with_edges(n_points, 4, seed, max_dim=3)
    layers = [r for r in range(4) if k.size(r)]
    assert layers == [0, 1, 2, 3] and k.size(2) > 1000
    betti = [exact_betti(k, r) for r in layers]
    euler = sum((-1) ** r * k.size(r) for r in layers)
    assert sum((-1) ** r * b for r, b in zip(layers, betti)) == euler
    parent = list(range(n_points))

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for a, b in k.layer(1):
        parent[root(a)] = root(b)
    assert betti[0] == len({root(v) for v in range(n_points)})


def test_zero_chains_are_cycles_read_from_zero_columns(monkeypatch):
    # the map below dimension 1 reads as zero columns, with no face lookup
    from homology_lab import operators
    from homology_lab.homology import _boundaries

    k = random_rips(2, n_points=10)
    chains = [Chain.make(0, {1: 1}), Chain.make(0, {}),
              Chain.make(0, {2: Fraction(-3, 4), k.size(0): 5})]
    monkeypatch.setattr(operators, "_face_rows", lambda *a: pytest.fail("faces read below dimension 1"))
    assert _boundaries(k, 0, chains) == [{}, {}, {}]
    assert all(is_cycle_exact(k, c) for c in chains)
