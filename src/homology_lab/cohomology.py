"""Cochains, cocycle construction, and the functional homology-equivalence test.

Two cycles are homologous exactly when every cocycle agrees on them.  The
witnesses here are random small-integer combinations of an exact integer
cocycle basis, evaluated in rational arithmetic: a witness that tells two
cycles apart certifies that they are inequivalent, while one that does not
has missed a difference with probability at most 1/5 (Schwartz-Zippel).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact
from .complexes import Chain, SimplicialComplex
from .errors import (
    BadParameter,
    ConstructionFailed,
    DimensionMismatch,
    EmptyLayer,
    NotFound,
    TrivialCocycleSpace,
)
from .homology import _random_combinations, _require_cycles
from .operators import _boundary_columns

WITNESSES = 8  # default number of witnesses of test_equivalent_cohomological


@dataclass(frozen=True)
class Cochain:
    """Linear functional on one chain layer, stored densely.

    ``cocycle`` marks functionals verified (or constructed) to vanish under
    the coboundary map.
    """

    r: int
    values: np.ndarray
    cocycle: bool = False

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
    return Cochain(r=r, values=values / np.linalg.norm(values), cocycle=True)


def manual_cocycle(k: SimplicialComplex, r: int, seed=None) -> Cochain:
    """Greedy per-simplex cocycle construction in exact rational arithmetic.

    Sweeps the (r+1)-simplices in index order.  Each simplex imposes one
    signed zero-sum constraint on the values of its faces; faces still free
    get random integers except for one, which is solved for.  A simplex whose
    faces are all fixed is only verified: a violated constraint aborts with
    :class:`ConstructionFailed` (the greedy order can deadlock on shared
    faces, and a silently patched value would not be a cocycle).
    """
    if k.size(r) == 0 or k.size(r + 1) == 0:
        raise EmptyLayer(f"manual construction needs simplices at dimensions {r} and {r + 1}")
    rng = np.random.default_rng(seed)
    columns = _boundary_columns(k, r + 1)
    values: dict[int, Fraction] = {}
    for faces in columns:
        unassigned = [i for i in sorted(faces) if i not in values]
        if not unassigned:
            continue  # checked with every other column below
        for i in unassigned[:-1]:
            values[i] = Fraction(int(rng.integers(-4, 5)))
        last = unassigned[-1]
        others = sum(s * values[i] for i, s in faces.items() if i != last)
        values[last] = Fraction(-others, faces[last])
    # exact global verification before anything leaves this function
    _verify_cocycle(k, r, columns, values)
    dense = np.zeros(k.size(r))
    for i, v in values.items():
        dense[i] = float(v)
    return Cochain(r=r, values=dense, cocycle=True)


def _verify_cocycle(k: SimplicialComplex, r: int, columns, values) -> None:
    """Raise :class:`ConstructionFailed` at the first (r+1)-simplex on whose
    boundary the exact cochain ``values`` (index -> rational) does not vanish."""
    for col, faces in enumerate(columns):
        if sum(s * values.get(i, 0) for i, s in faces.items()) != 0:
            raise ConstructionFailed(col + 1, k.layer(r + 1)[col])


def pair_cocycle(k: SimplicialComplex, r: int) -> Cochain:
    """Two-simplex cocycle from a pair of faces private to one (r+1)-simplex.

    Scans the boundary's integer columns, transposed, for two r-simplices whose
    single coface is the same; the two values are set to +-1 so the signed sum
    over it vanishes, verified exactly as in :func:`manual_cocycle`.  Raises
    :class:`NotFound` when no such pair exists.
    """
    if k.size(r) == 0 or k.size(r + 1) == 0:
        raise EmptyLayer(f"pair construction needs simplices at dimensions {r} and {r + 1}")
    columns = _boundary_columns(k, r + 1)
    single: dict[int, list[tuple[int, int]]] = {}
    for row, cofaces in enumerate(columns.T):
        if len(cofaces) == 1:
            (col, sign), = cofaces.items()
            single.setdefault(col, []).append((row, sign))
    for col in sorted(single):
        rows = single[col]
        if len(rows) >= 2:
            (p, sp), (q, sq) = rows[0], rows[1]
            values = {p: 1, q: -1 if sp == sq else 1}
            _verify_cocycle(k, r, columns, values)
            dense = np.zeros(k.size(r))
            dense[[p, q]] = values[p], values[q]
            return Cochain(r=r, values=dense, cocycle=True)
    raise NotFound("no column owns two single-entry rows")


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
            witness = Cochain(r=c1.r, values=values, cocycle=True)
            return CohomologyVerdict(equivalent=False, witness=witness, witnesses_used=used)
    return CohomologyVerdict(equivalent=True, witness=None, witnesses_used=witnesses)
