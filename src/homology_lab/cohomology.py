"""Cochains, exact cocycle bases, and the functional homology-equivalence test.

Two cycles are homologous exactly when every cocycle agrees on them.  The
witnesses here are random small-integer combinations of an exact integer
cocycle basis, evaluated in rational arithmetic: a witness that tells two
cycles apart certifies that they are inequivalent, while one that does not
has missed a difference with probability at most 1/5 (Schwartz-Zippel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exact
from .complexes import Chain, SimplicialComplex
from .errors import BadParameter, DimensionMismatch, EmptyLayer, TrivialCocycleSpace
from .homology import _random_combinations, _require_cycles
from .operators import _boundary_columns

WITNESSES = 8  # default number of witnesses of test_equivalent_cohomological


@dataclass(frozen=True)
class Cochain:
    """Linear functional on one chain layer, stored densely."""

    r: int
    values: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


def evaluate(k: SimplicialComplex, w: Cochain, c: Chain) -> float:
    """Pair a cochain with a chain: the dot product in the simplex basis."""
    if w.r != c.r:
        raise DimensionMismatch("cochain and chain dimensions differ")
    n = k.size(w.r)
    if len(w.values) != n:
        raise DimensionMismatch("cochain length does not match the layer")
    dense = np.array([float(x) for x in c.dense(n)])
    return float(np.dot(w.values, dense))


def cocycle_basis(k: SimplicialComplex, r: int) -> list[exact.Vector]:
    """Exact sparse integer basis of the r-cocycles, ker of the transposed
    (r+1)-boundary (all of C^r when there is no (r+1)-layer); raises
    :class:`TrivialCocycleSpace` when it is empty."""
    if k.size(r) == 0:
        raise EmptyLayer(f"no simplices of dimension {r}")
    basis = exact.reduce_columns(_boundary_columns(k, r + 1).T, track=True).kernel
    if not basis:
        raise TrivialCocycleSpace(f"the degree-{r} cocycle space is zero")
    return basis


def random_cocycle(k: SimplicialComplex, r: int, seed=None) -> Cochain:
    """Unit-norm cocycle: one random small-integer combination of the exact
    cocycle basis, scaled to unit norm.

    Raises :class:`TrivialCocycleSpace` when the coboundary map has no kernel.
    """
    w = next(_random_combinations(cocycle_basis(k, r), np.random.default_rng(seed)))
    values = np.array([w.get(i, 0) for i in range(k.size(r))], dtype=float)
    return Cochain(r=r, values=values / np.linalg.norm(values))


@dataclass(frozen=True)
class CohomologyVerdict:
    """``equivalent`` is one-sided: ``witness``, an integer cocycle with
    different exact values on the two cycles, certifies inequivalence, while
    agreement on k witnesses is wrong with probability at most 5^-k."""

    equivalent: bool
    witness: Cochain | None
    witnesses_used: int


def test_equivalent_cohomological(k: SimplicialComplex, c1: Chain, c2: Chain,
                                  witnesses: int = WITNESSES, seed=None) -> CohomologyVerdict:
    """Probe homology equivalence with exact integer cocycle witnesses.

    Reduces the transposed (r+1)-boundary once for a cocycle basis, then
    draws up to ``witnesses`` combinations of it from one generator and
    evaluates each on c1 - c2 in rational arithmetic.  The first nonzero
    value separates the classes.  A trivial cocycle space distinguishes
    nothing and reads as equivalent.
    """
    if witnesses < 1:
        raise BadParameter("need at least one witness")
    _require_cycles(k, c1.r, [c1, c2])
    try:
        basis = cocycle_basis(k, c1.r)
    except TrivialCocycleSpace:
        return CohomologyVerdict(equivalent=True, witness=None, witnesses_used=0)
    diff = (c1 - c2).coeffs
    draws = _random_combinations(basis, np.random.default_rng(seed))
    for used in range(1, witnesses + 1):
        w = next(draws)
        if sum(w.get(i - 1, 0) * x for i, x in diff.items()):
            values = np.array([w.get(i, 0) for i in range(k.size(c1.r))])
            witness = Cochain(r=c1.r, values=values)
            return CohomologyVerdict(equivalent=False, witness=witness, witnesses_used=used)
    return CohomologyVerdict(equivalent=True, witness=None, witnesses_used=witnesses)
