"""Cycle detection, triviality and equivalence testing, and class tracking.

Every class question is one count, by :func:`_class_ranks` in one path per
mode: how many classes some r-cycles span modulo the boundaries.  Betti by
tracking is that count; triviality and equivalence ask whether it is 0 for c
or c1 - c2.  Input chains are checked from the signed faces of their own
simplices, with no boundary matrix.  The exact path runs over the rationals;
the stochastic path counts their least-squares residuals against the same
(r+1)-boundary with :func:`spectra.residual_rank`, and draws nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact
from .complexes import Chain, SimplicialComplex, validate_filtration
from .errors import (
    BadParameter,
    DimensionMismatch,
    NotACycle,
    NotAFiltrationChain,
    NotASubcomplex,
    TrivialKernel,
    ZeroChain,
)
from .operators import _boundary, _boundary_columns, boundary_matrix
from .spectra import cycle_basis, residual_rank
from .spectra import exact_rank  # noqa: F401 -- perfbench's tracer test reads homology.exact_rank


def _boundaries(k: SimplicialComplex, r: int, chains) -> list[exact.Vector]:
    """Each r-chain's exact boundary as a sparse rational vector indexed from 0,
    empty exactly for a cycle, summed in integers over the signed faces of the
    chain's own simplices; raises :class:`DimensionMismatch` on a chain of another
    dimension or with an index outside the layer."""
    size = k.size(r)
    for c in chains:
        if c.r != r:
            raise DimensionMismatch(f"chain dimension {c.r} differs from {r}")
        if size == 0:
            raise DimensionMismatch(f"complex has no simplices of dimension {r}")
        for i in c.coeffs:
            if not 1 <= i <= size:
                raise DimensionMismatch(f"chain index {i} outside the layer's 1..{size}")
    cleared = [exact._cleared(c.coeffs) for c in chains]
    columns = iter(_boundary_columns(k, r, [j - 1 for ints, _ in cleared for j in ints]))
    out = []
    for ints, scale in cleared:
        b = {}
        for cj in ints.values():
            for i, v in next(columns).items():
                b[i] = b.get(i, 0) + v * cj
        out.append({i: Fraction(x, scale) for i, x in b.items() if x})
    return out


def is_cycle_exact(k: SimplicialComplex, c: Chain) -> bool:
    """Whether the chain's boundary vanishes identically (0-chains always do)."""
    return not _boundaries(k, c.r, [c])[0]


def _require_cycles(k: SimplicialComplex, r: int, chains) -> None:
    """Raise unless every chain is an r-cycle of k: :class:`DimensionMismatch`
    as in :func:`_boundaries`, then :class:`NotACycle`."""
    if any(_boundaries(k, r, chains)):
        raise NotACycle("input chain has nonzero boundary")


def _unit_columns(chains, n: int) -> np.ndarray:
    """The nonzero chains as the unit columns of an n-row float array.  Each is
    cleared to integers and divided by its largest entry first, so that
    coefficients of any size reach float with no overflow and no NaN."""
    out = np.zeros((n, len(chains)))
    for j, c in enumerate(chains):
        ints, _ = exact._cleared(c.coeffs)
        top = max(map(abs, ints.values()))
        for i, x in ints.items():
            out[i - 1, j] = x / top
    return out / np.linalg.norm(out, axis=0)


def detect_cycle_stochastic(k: SimplicialComplex, c: Chain, eta: float, seed=None) -> str:
    """Repeated-measurement emulation of cycle detection.

    Runs ceil(1/eta) Bernoulli trials with per-trial success probability
    ||M c_hat||^2 where M is the normalized down-Gram operator; one success
    refutes cyclehood.  Exact cycles have success probability exactly zero,
    so a true cycle is never rejected.

    Returns "likely_cycle" or "not_cycle".
    """
    if not (0.0 < eta < 1.0):
        raise BadParameter("eta must lie strictly between 0 and 1")
    if c.is_zero():
        raise ZeroChain("cannot test the zero chain")
    if not _boundaries(k, c.r, [c])[0]:
        return "likely_cycle"
    d = boundary_matrix(k, c.r)
    vec = _unit_columns([c], k.size(c.r))[:, 0]
    p = float(np.linalg.norm(d.T @ (d @ vec) / ((c.r + 1) * k.size(c.r))) ** 2)
    trials = math.ceil(1.0 / eta)
    rng = np.random.default_rng(seed)
    if np.any(rng.random(trials) < p):
        return "not_cycle"
    return "likely_cycle"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a triviality or equivalence test: whether a class count of
    :func:`_class_ranks` is 0, and whether it is low-confidence (stochastic only)."""

    answer: bool
    method: str
    low_confidence: bool = False


def _check_mode(mode: str) -> None:
    if mode not in ("exact", "stochastic"):
        raise BadParameter(f"unknown mode {mode!r}")


def _class_ranks(stages, r: int, chains, mode: str) -> list[tuple[int, bool]]:
    """Per stage, how many classes the checked r-cycles span modulo its
    boundaries, and whether that is low-confidence.  With no nonzero chain it
    is 0, with no build.  Both modes build the last stage's (r+1)-boundary
    once, and each stage reads its column prefix: exactly, one reduction grown
    by each stage's columns; stochastically, :func:`spectra.residual_rank`."""
    chains = [c for c in chains if not c.is_zero()]
    if not chains:
        return [(0, False)] * len(stages)
    if mode == "stochastic":
        d, cols = _boundary(stages[-1], r + 1), _unit_columns(chains, stages[-1].size(r))
        return [residual_rank(d[:, :k.size(r + 1)], cols) for k in stages]
    vecs = [{i - 1: x for i, x in c.coeffs.items()} for c in chains]
    cofaces = _boundary_columns(stages[-1], r + 1)
    boundary = exact.reduce_columns(cofaces[:stages[0].size(r + 1)])
    return [(boundary.extend(cofaces[boundary.added:k.size(r + 1)]).rank_modulo(vecs), False)
            for k in stages]


def test_trivial(k: SimplicialComplex, c: Chain, mode: str = "exact") -> Verdict:
    """Is the cycle a boundary?  :func:`track_classes` over the one stage k."""
    return track_classes([k], [c], mode).stages[0]


def test_equivalent(k: SimplicialComplex, c1: Chain, c2: Chain, mode: str = "exact") -> Verdict:
    """Is c1 - c2 a boundary?  :func:`track_classes` of the pair over the one stage k."""
    return track_classes([k], [c1, c2], mode).stages[0]


@dataclass(frozen=True)
class ClassReport:
    """Per-stage triviality (one cycle) or equivalence (two cycles) verdicts,
    stage i + 1 at position i."""

    kind: str  # "trivial" or "equivalent"
    stages: tuple[Verdict, ...]


def track_classes(stages, cycles, mode: str = "exact") -> ClassReport:
    """Follow one or two cycles through a filtration chain.

    Consecutive stages must nest.  Each stage is reordered onto its
    predecessor's prefix, so the cycles, checked once on the first stage,
    keep their indices and stay cycles through every stage.  The target, c or
    c1 - c2, is trivial where its class count of :func:`_class_ranks` is 0.
    """
    _check_mode(mode)
    stages = list(stages)
    if len(stages) < 1:
        raise NotAFiltrationChain("need at least one stage")
    cycles = list(cycles)
    if len(cycles) not in (1, 2):
        raise BadParameter("track one cycle (triviality) or two (equivalence)")

    ordered = [stages[0]]
    for nxt in stages[1:]:
        try:
            pair = validate_filtration(ordered[-1], nxt)
        except NotASubcomplex as exc:
            raise NotAFiltrationChain(f"stage {len(ordered)} is not included in its successor: {exc}") from exc
        ordered.append(pair.k2)

    _require_cycles(ordered[0], cycles[0].r, cycles)
    target = cycles[0] if len(cycles) == 1 else cycles[0] - cycles[1]
    ranks = _class_ranks(ordered, target.r, [target], mode)
    return ClassReport(kind="trivial" if len(cycles) == 1 else "equivalent",
                       stages=tuple(Verdict(answer=count == 0, method=mode, low_confidence=low)
                                    for count, low in ranks))


def _random_combinations(basis: list[exact.Vector], rng):
    """Endless index-sorted combinations of independent sparse integer
    vectors, coefficients uniform in [-2, 2]; an all-zero draw is skipped."""
    while True:
        vec: dict[int, int] = {}
        for a, b in zip(rng.integers(-2, 3, size=len(basis)).tolist(), basis):
            for i, x in b.items():
                vec[i] = vec.get(i, 0) + a * x
        vec = {i: v for i, v in sorted(vec.items()) if v}
        if vec:
            yield vec


def sample_cycles(k: SimplicialComplex, r: int, s: int, seed=None) -> list[Chain]:
    """Random small-integer combinations of an exact kernel basis.

    Every returned chain is a genuine cycle by construction; a trivial kernel
    raises :class:`TrivialKernel`.
    """
    if s < 1:
        raise BadParameter("need at least one sample")
    n = k.size(r)
    if n == 0:
        raise DimensionMismatch(f"complex has no simplices of dimension {r}")
    basis = cycle_basis(k, r)
    if not basis:
        raise TrivialKernel(f"the dimension-{r} boundary map has no kernel")
    draws = _random_combinations(basis, np.random.default_rng(seed))
    return [Chain.make(r, {i + 1: v for i, v in next(draws).items()}) for _ in range(s)]


def betti_via_tracking(k: SimplicialComplex, r: int, cycles, mode: str = "exact") -> int:
    """Betti lower bound from sampled cycles: their class count of
    :func:`_class_ranks`, dim(B + span(cycles)) - dim B for the boundaries B.
    Stochastically, a solve cut short by its step limit leaves residuals too
    large, so a low-confidence count may exceed the bound."""
    return _betti_via_tracking(k, r, cycles, mode)[0]


def _betti_via_tracking(k: SimplicialComplex, r: int, cycles, mode: str) -> tuple[int, bool]:
    """:func:`betti_via_tracking` and its ``low_confidence``."""
    _check_mode(mode)
    cycles = list(cycles)
    _require_cycles(k, r, cycles)
    return _class_ranks([k], r, cycles, mode)[0]
