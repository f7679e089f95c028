"""Cycle detection, triviality and equivalence testing, and class tracking.

A triviality or equivalence test is :func:`track_classes` over one stage, so
each mode has one verdict path.  Input chains are checked from the signed
faces of their own simplices, with no boundary matrix.  The exact paths run
entirely over the rationals.  The stochastic paths draw no probes and compute
no rank: a cycle c is a boundary exactly when its projection onto the kernel
of the Hodge Laplacian vanishes, and the basis Q_H of
:func:`spectra.hodge_basis` gives its weight |Q_H^T c|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .spectra import HARMONIC_CUT, EstimatorParams, cycle_basis, hodge_basis, tracked_rank
from .spectra import exact_rank  # noqa: F401 -- perfbench's tracer test reads homology.exact_rank


def _boundaries(k: SimplicialComplex, r: int, chains) -> list[exact.Vector]:
    """Each r-chain's exact boundary as a sparse rational vector indexed from 0,
    empty exactly for a cycle, from the signed faces of the chain's own
    simplices; raises :class:`DimensionMismatch` on a chain of another
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
    if r == 0 or not chains:
        return [{} for _ in chains]
    faces = _boundary_columns(k, r, [j - 1 for c in chains for j in c.coeffs])
    columns = zip(faces.indices.reshape(-1, r + 1).tolist(), faces.data.reshape(-1, r + 1).tolist())
    out = []
    for c in chains:
        b = {}
        for cj in c.coeffs.values():
            for i, v in zip(*next(columns)):
                b[i] = b.get(i, 0) + v * cj
        out.append({i: x for i, x in b.items() if x})
    return out


def is_cycle_exact(k: SimplicialComplex, c: Chain) -> bool:
    """Whether the chain's boundary vanishes identically (0-chains always do)."""
    return not _boundaries(k, c.r, [c])[0]


def _require_cycles(k: SimplicialComplex, r: int, chains) -> None:
    """Raise unless every chain is an r-cycle of k: :class:`DimensionMismatch`
    as in :func:`_boundaries`, then :class:`NotACycle`."""
    if any(_boundaries(k, r, chains)):
        raise NotACycle("input chain has nonzero boundary")


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
    d = boundary_matrix(k, c.r).entries
    vec = np.array([float(x) for x in c.dense(k.size(c.r))])
    vec /= np.linalg.norm(vec)
    p = float(np.linalg.norm(d.T @ (d @ vec) / ((c.r + 1) * k.size(c.r))) ** 2)
    trials = math.ceil(1.0 / eta)
    rng = np.random.default_rng(seed)
    if np.any(rng.random(trials) < p):
        return "not_cycle"
    return "likely_cycle"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a triviality or equivalence test.  Only stochastic tests set
    ``low_confidence``: when the unit cycle's harmonic weight lies within the
    margin of :func:`spectra.harmonic_basis` of ``HARMONIC_CUT``, or when that
    basis did not converge, as for a kernel past the block cap."""

    answer: bool
    method: str
    low_confidence: bool = False


def _cofaces(k: SimplicialComplex, r: int) -> list[exact.Vector]:
    """Sparse columns of the (r+1)-boundary; none without (r+1)-simplices."""
    return exact.sparse_columns(_boundary(k, r + 1))


def _vector(c: Chain) -> exact.Vector:
    """The chain as a sparse rational column, indexed from 0."""
    return {i - 1: x for i, x in c.coeffs.items()}


def _check_mode(mode: str) -> None:
    if mode not in ("exact", "stochastic"):
        raise BadParameter(f"unknown mode {mode!r}")


def _trivial(k: SimplicialComplex, c: Chain, params: EstimatorParams | None) -> Verdict:
    """The stochastic verdict on a checked cycle: its harmonic weight
    |Q_H^T c|^2 / |c|^2 cut at ``HARMONIC_CUT`` (see :class:`Verdict`)."""
    if c.is_zero() or k.size(c.r + 1) == 0:
        return Verdict(answer=c.is_zero(), method="stochastic")
    q, margin, converged = hodge_basis(k, c.r, (params or EstimatorParams()).seed)
    vec = np.array([float(x) for x in c.dense(k.size(c.r))])
    weight = float(np.sum((q.T @ vec) ** 2) / (vec @ vec))
    return Verdict(answer=weight <= HARMONIC_CUT, method="stochastic",
                   low_confidence=abs(weight - HARMONIC_CUT) <= margin or not converged)


def test_trivial(k: SimplicialComplex, c: Chain, mode: str = "exact",
                 params: EstimatorParams | None = None) -> Verdict:
    """Is the cycle a boundary?  :func:`track_classes` over the one stage k:
    exactly, membership in one reduction of the (r+1)-boundary;
    stochastically, its harmonic weight cut as in :func:`_trivial`."""
    return track_classes([k], [c], mode, params).stages[0]


def test_equivalent(k: SimplicialComplex, c1: Chain, c2: Chain, mode: str = "exact",
                    params: EstimatorParams | None = None) -> Verdict:
    """Are two cycles homologous, that is, is their difference a boundary?
    :func:`track_classes` of the pair over the one stage k."""
    return track_classes([k], [c1, c2], mode, params).stages[0]


@dataclass(frozen=True)
class ClassReport:
    """Per-stage triviality (one cycle) or equivalence (two cycles) verdicts,
    stage i + 1 at position i."""

    kind: str  # "trivial" or "equivalent"
    stages: tuple[Verdict, ...]


def track_classes(stages, cycles, mode: str = "exact",
                  params: EstimatorParams | None = None) -> ClassReport:
    """Follow one or two cycles through a filtration chain.

    Consecutive stages must nest.  Each stage is reordered onto its
    predecessor's prefix, so the cycles, checked once on the first stage,
    keep their indices and stay cycles through every stage.  Exactly, one
    reduction of the last stage's (r+1)-boundary grows stage by stage, and
    each verdict is whether the target lies in its span: the zero chain
    always does, with no build, and without (r+1)-simplices the span is zero.
    Stochastically, each stage's verdict is :func:`_trivial`'s.
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
    kind = "trivial" if len(cycles) == 1 else "equivalent"
    if mode == "stochastic":
        return ClassReport(kind=kind, stages=tuple(_trivial(k, target, params) for k in ordered))
    vec = _vector(target)
    cofaces = _cofaces(ordered[-1], target.r) if vec else []  # the zero chain needs no build
    boundary, verdicts = exact.Reduction(), []
    for k in ordered:
        for col in cofaces[boundary.added:k.size(target.r + 1)]:
            boundary.add(col)
        verdicts.append(Verdict(answer=boundary.contains(vec), method="exact"))
    return ClassReport(kind=kind, stages=tuple(verdicts))


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


def betti_via_tracking(k: SimplicialComplex, r: int, cycles, mode: str = "exact",
                       params: EstimatorParams | None = None) -> int:
    """Betti lower bound from sampled cycles: the rank of the cycles modulo
    the boundary space B.

    Exactly: one reduction of the (r+1)-boundary, extended by every cycle;
    the rank increases count dim(B + span(cycles)) - dim B.  Stochastically:
    :func:`spectra.tracked_rank` of the unit cycles C, whose Q_H Q_H^T C is
    within margin * |C| of P_H C, so the result stays a lower bound.
    """
    return _betti_via_tracking(k, r, cycles, mode, params)[0]


def _betti_via_tracking(k: SimplicialComplex, r: int, cycles, mode: str,
                        params: EstimatorParams | None) -> tuple[int, bool]:
    """:func:`betti_via_tracking` and its ``low_confidence``: set only
    stochastically, when the harmonic basis did not converge or a tracked
    singular value lies within the margin of the cut."""
    _check_mode(mode)
    cycles = list(cycles)
    _require_cycles(k, r, cycles)
    reps = [c for c in cycles if not c.is_zero()]
    if not reps:
        return 0, False
    if mode == "exact":
        boundary = exact.reduce_columns(_cofaces(k, r))
        return sum(boundary.add(_vector(c)) for c in reps), False
    unit = np.array([[float(x) for x in c.dense(k.size(r))] for c in reps]).T
    unit /= np.linalg.norm(unit, axis=0)
    q, margin, converged = hodge_basis(k, r, (params or EstimatorParams()).seed)
    count, near = tracked_rank(q, unit, margin)
    return count, near or not converged
