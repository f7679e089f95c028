"""The public API in ``homology_lab.__all__``, its functions' parameters, its
dataclasses' fields and the CLI's options are part of the behavioural
contract: adding or removing a name, a parameter, a field or a flag must
change these lists on purpose."""

import argparse
import dataclasses
import inspect

import homology_lab
from homology_lab.cli import PARSER

PUBLIC = [
    "BettiEstimate", "Chain", "ChebyshevStepFilter", "ClassReport", "Cochain", "FiltrationPair",
    "RankEstimate", "SimplicialComplex", "Verdict", "betti_via_tracking",
    "boundary_matrix", "build_complex", "chebyshev_filter", "coboundary_matrix", "cohomology",
    "complexes",
    "detect_cycle_stochastic", "errors", "estimate_normalized_betti",
    "estimate_normalized_persistent_betti", "evaluate", "exact", "exact_betti",
    "exact_persistent_betti", "exact_rank", "generate", "homology", "is_cycle_exact",
    "laplacian", "manual_cocycle", "operators", "pair_cocycle",
    "persistent_laplacian", "persistent_up_laplacian",
    "power_moments_rank", "random_cocycle", "sample_cycles",
    "schur_complement", "spec_matrix", "spectra", "stochastic_rank", "test_equivalent",
    "test_equivalent_cohomological", "test_trivial", "track_classes", "validate_filtration",
    "vietoris_rips",
]


def test_public_api_is_pinned():
    assert sorted(homology_lab.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(homology_lab, name), name


MODED = ["--mode", "--seed"]
OPTIONS = {
    "betti": sorted(MODED + ["--input", "--max-dim", "--no-oracle", "--plot-data", "--points",
                             "--r", "--thresholds"]),
    "persistent-betti": sorted(MODED + ["--input", "--no-oracle", "--r"]),
    "test-trivial": sorted(MODED + ["--chain", "--input"]),
    "test-equiv": sorted(MODED + ["--chain", "--chain2", "--dump-witness", "--input",
                                  "--method", "--witnesses"]),
    "detect-cycle": ["--chain", "--eta", "--input", "--seed"],
    "track": sorted(MODED + ["--chain", "--chain2", "--stages"]),
    "betti-track": sorted(MODED + ["--input", "--no-oracle", "--r", "--samples"]),
    "gen": ["--kind", "--m", "--max-dim", "--out", "--points", "--seed", "--threshold"],
    "dump-operator": ["--dump-operator", "--input", "--operator", "--r", "--seed"],
}


def test_cli_options_are_pinned():
    sub = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(o for a in p._actions if not isinstance(a, argparse._HelpAction)
                        for o in a.option_strings)
           for name, p in sub.choices.items()}
    assert got == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 53


PARAMETERS = {
    "betti_via_tracking": ["cycles", "k", "mode", "r"],
    "boundary_matrix": ["k", "r"],
    "build_complex": ["autoclose", "simplices"],
    "chebyshev_filter": ["delta", "m"],
    "coboundary_matrix": ["k", "r"],
    "detect_cycle_stochastic": ["c", "eta", "k", "seed"],
    "estimate_normalized_betti": ["k", "r", "seed"],
    "estimate_normalized_persistent_betti": ["pair", "r", "seed"],
    "evaluate": ["c", "k", "w"],
    "exact_betti": ["k", "r"],
    "exact_persistent_betti": ["pair", "r"],
    "exact_rank": ["m"],
    "generate": ["kind", "m", "max_dim", "points", "threshold"],
    "is_cycle_exact": ["c", "k"],
    "laplacian": ["k", "r"],
    "manual_cocycle": ["k", "r", "seed"],
    "pair_cocycle": ["k", "r"],
    "persistent_laplacian": ["pair", "r"],
    "persistent_up_laplacian": ["pair", "r"],
    "power_moments_rank": ["a", "filt", "n_v", "seed"],
    "random_cocycle": ["k", "r", "seed"],
    "sample_cycles": ["k", "r", "s", "seed"],
    "schur_complement": ["index_set", "m"],
    "spec_matrix": ["k", "r"],
    "stochastic_rank": ["a", "filt", "n_v", "seed"],
    "test_equivalent": ["c1", "c2", "k", "mode"],
    "test_equivalent_cohomological": ["c1", "c2", "k", "seed", "witnesses"],
    "test_trivial": ["c", "k", "mode"],
    "track_classes": ["cycles", "mode", "stages"],
    "validate_filtration": ["k1", "k2"],
    "vietoris_rips": ["max_dim", "points", "threshold"],
}


def test_public_parameters_are_pinned():
    functions = [getattr(homology_lab, name) for name in homology_lab.__all__]
    got = {f.__name__: sorted(inspect.signature(f).parameters)
           for f in functions if inspect.isfunction(f)}
    assert got == PARAMETERS
    assert sum(map(len, PARAMETERS.values())) == 87


FIELDS = {
    "BettiEstimate": ["value", "layer_size", "low_confidence"],
    "Chain": ["r", "coeffs"],
    "ChebyshevStepFilter": ["delta", "degree", "coeffs"],
    "ClassReport": ["kind", "stages"],
    "Cochain": ["r", "values", "cocycle"],
    "FiltrationPair": ["k1", "k2"],
    "RankEstimate": ["normalized", "raw", "n_v", "degree", "delta", "stderr"],
    "SimplicialComplex": ["n", "_rows"],
    "Verdict": ["answer", "method", "low_confidence"],
}


def test_public_dataclass_fields_are_pinned():
    # in declaration order, which positional construction depends on
    classes = [getattr(homology_lab, name) for name in homology_lab.__all__]
    got = {c.__name__: [f.name for f in dataclasses.fields(c)]
           for c in classes if dataclasses.is_dataclass(c)}
    assert got == FIELDS
