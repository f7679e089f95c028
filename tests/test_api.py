"""The public API in ``homology_lab.__all__`` and the CLI's options are part
of the behavioural contract: adding or removing a name or a flag must change
these lists on purpose."""

import argparse

import homology_lab
from homology_lab.cli import PARSER

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


ESTIMATOR = ["--degree", "--delta", "--mode", "--seed"]
OPTIONS = {
    "betti": sorted(ESTIMATOR + ["--input", "--max-dim", "--no-oracle", "--plot-data", "--points",
                                 "--probe-kind", "--probes", "--r", "--thresholds"]),
    "persistent-betti": sorted(ESTIMATOR + ["--input", "--no-oracle", "--probe-kind", "--probes",
                                            "--r"]),
    "test-trivial": sorted(ESTIMATOR + ["--chain", "--input"]),
    "test-equiv": sorted(ESTIMATOR + ["--chain", "--chain2", "--dump-witness", "--input",
                                      "--method", "--witnesses"]),
    "detect-cycle": ["--chain", "--eta", "--input", "--seed"],
    "track": sorted(ESTIMATOR + ["--chain", "--chain2", "--stages"]),
    "betti-track": sorted(ESTIMATOR + ["--input", "--no-oracle", "--r", "--samples"]),
    "gen": ["--kind", "--m", "--max-dim", "--out", "--points", "--seed", "--threshold"],
    "dump-operator": ["--dump-operator", "--input", "--operator", "--r", "--seed"],
}


def test_cli_options_are_pinned():
    sub = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(o for a in p._actions if not isinstance(a, argparse._HelpAction)
                        for o in a.option_strings)
           for name, p in sub.choices.items()}
    assert got == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 69
