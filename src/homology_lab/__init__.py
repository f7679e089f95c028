"""Classical, verifiable homology and cohomology computations on simplicial
complexes: exact rational oracles next to stochastic Chebyshev estimators."""

from .complexes import (
    Chain,
    FiltrationPair,
    SimplicialComplex,
    build_complex,
    generate,
    validate_filtration,
    vietoris_rips,
)
from .operators import (
    boundary_matrix,
    coboundary_matrix,
    laplacian,
    persistent_laplacian,
    persistent_up_laplacian,
    schur_complement,
)
from .spectra import (
    BettiEstimate,
    ChebyshevStepFilter,
    RankEstimate,
    chebyshev_filter,
    estimate_normalized_betti,
    estimate_normalized_persistent_betti,
    exact_betti,
    exact_persistent_betti,
    exact_rank,
    power_moments_rank,
    stochastic_rank,
)
from .homology import (
    ClassReport,
    Verdict,
    betti_via_tracking,
    detect_cycle_stochastic,
    sample_cycles,
    test_equivalent,
    test_trivial,
    track_classes,
)
from .cohomology import (
    Cochain,
    evaluate,
    random_cocycle,
    test_equivalent_cohomological,
)

__all__ = [name for name in dir() if not name.startswith("_")]
