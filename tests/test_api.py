"""The public API in ``homology_lab.__all__`` is part of the behavioural
contract: adding or removing a name must change this list on purpose."""

import homology_lab

PUBLIC = [
    "BettiEstimate", "BoundaryMatrix", "Chain", "ChebyshevStepFilter", "ClassReport", "Cochain",
    "EstimatorParams", "FiltrationPair", "PersistentBlocks", "RankEstimate", "SimplicialComplex",
    "SpecMatrix", "Verdict", "betti_via_tracking", "boundary_matrix", "build_complex",
    "chebyshev_filter", "coboundary_matrix", "cohomology", "complexes",
    "detect_cycle_stochastic", "errors", "estimate_normalized_betti",
    "estimate_normalized_persistent_betti", "evaluate", "exact", "exact_betti",
    "exact_persistent_betti", "exact_rank", "generate", "homology", "is_cycle_exact",
    "laplacian", "manual_cocycle", "normalized_laplacian", "operators", "pair_cocycle",
    "persistent_blocks", "persistent_laplacian", "persistent_up_laplacian",
    "power_moments_rank", "project_to_cocycle", "random_cocycle", "sample_cycles",
    "schur_complement", "spec_matrix", "spectra", "stochastic_rank", "test_equivalent",
    "test_equivalent_cohomological", "test_trivial", "track_classes", "validate_filtration",
    "vietoris_rips",
]


def test_public_api_is_pinned():
    assert sorted(homology_lab.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(homology_lab, name), name
