"""Rank and Betti computation: exact rational oracles, harmonic bases and a
stochastic rank estimator.

The exact side reduces everything to ranks, pivots and kernels of sparse
boundaries, from the fraction-free reduction in :mod:`exact`: both routes of
the persistent oracle too, so no exact answer touches a float.  Betti numbers,
cycle bases and both persistent routes read integer boundary columns, no matrix.
A stochastic beta_r is the column count of an orthonormal basis Q_H of the
kernel of a Hodge Laplacian, from Chebyshev-filtered subspace iteration
(:func:`harmonic_basis`, via :func:`hodge_basis`) on the Laplacian over a
Collatz-Wielandt bound of its spectrum, with filter degrees set by the Ritz
residuals.  Every class count (class verdicts, and persistent beta_r from
k1's Q_H) is :func:`residual_rank`, by least squares against the
(r+1)-boundary.  No stochastic answer draws a probe, computes an exact rank
or reads a dense spectrum.

:func:`stochastic_rank` and :func:`power_moments_rank` estimate rank(A)/N by
the trace-estimation recipe: approximate the spectral step indicator by a
degree-m Chebyshev polynomial of y = 2x - 1 (spectrum in [0, 1];
coefficients from one DCT) and average probe quadratic forms, by the
three-term recurrence with the doubling identities T_2k = 2 T_k^2 - T_0,
T_2k+1 = 2 T_k T_k+1 - T_1, or through explicit power moments.

Operators stay sparse (CSR).  The rank estimator and :func:`harmonic_basis`
share one recurrence loop, :func:`_chebyshev_blocks`.  It runs in place in
two preallocated blocks, each step one call of scipy's private kernel
``csr_matvecs`` (where ``csr_matrix @ ndarray`` ends), the only call that
adds a product into a given block: no step allocates, negates or subtracts
one.  Degree m costs the rank estimator ceil(m/2) products, O(nnz) per probe
each.  :func:`residual_rank`'s CGLS runs the same way on the float CSC arrays
of the (r+1)-boundary, converted once per query: ``csc_matvecs`` for d p and
``csr_matvecs`` on the same arrays for d^T r, into zeroed preallocated blocks,
updates in place, and a stage read through its indptr prefix, no slice or copy.

Nothing here imports scipy or ``numpy.polynomial.chebyshev`` at module level:
each function that builds a float operator imports scipy.sparse, or reads the
kernels off ``scipy.sparse._sparsetools``, once per call and outside its loop,
so that exact answers and the CLI start without scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import exact
from .complexes import FiltrationPair, SimplicialComplex, _diameters
from .errors import (
    BadParameter,
    DegreeTooHigh,
    EmptyLayer,
    RouteDisagreement,
    SpectralNormExceeded,
)
from .operators import _boundary, _boundary_columns, _prefix_boundary, laplacian

if TYPE_CHECKING:
    import scipy.sparse as sp


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------

def exact_rank(m) -> int:
    """Exact rank of a rational matrix (sparse fraction-free reduction)."""
    return exact.rank(m)


def _rank(m) -> int:
    """:func:`exact_rank`, with no reduction of a zero map."""
    return exact_rank(m) if m.nnz else 0


def exact_betti(k: SimplicialComplex, r: int) -> int:
    """Betti number |S_r| - rank(boundary_r) - rank(boundary_{r+1}), exactly over Q."""
    if k.size(r) == 0:
        raise EmptyLayer(f"no simplices of dimension {r}")
    return k.size(r) - _rank(_boundary_columns(k, r)) - _rank(_boundary_columns(k, r + 1))


def _sweep_betti(k: SimplicialComplex, d2: np.ndarray, r: int, thresholds) -> list[int]:
    """:func:`exact_betti` at r of the Rips complex at each threshold, 0 where it has no
    r-simplices, from ``k``, the Rips complex at the largest threshold, and ``d2``, its
    points' squared distances.  Ordered stably by diameter, each threshold's r- and
    (r+1)-simplices are a prefix of k's, so one left-to-right reduction of each boundary
    gives the rank of every prefix of its columns (Zomorodian & Carlsson, DCG 2005)."""
    cuts = [t**2 for t in thresholds]  # as vietoris_rips compares them
    size, rank = {}, {}
    for q in (r, r + 1):
        diam = _diameters(d2, k._rows.get(q, np.empty((0, q + 1), dtype=np.int64)))
        order = np.argsort(diam, kind="stable")
        size[q] = np.searchsorted(diam[order], cuts)  # simplices with diameter < t**2
        columns, reduction = _boundary_columns(k, q), exact.Reduction()
        grown = [0] + [reduction.extend([columns[j]]).rank for j in order.tolist()]
        rank[q] = np.array(grown)[size[q]]
    return (size[r] - rank[r] - rank[r + 1]).tolist()


def cycle_basis(k: SimplicialComplex, r: int) -> list[exact.Vector]:
    """Exact sparse basis of the r-cycles, ker(boundary_r): all of C_r when
    there is no (r-1)-layer."""
    return exact.reduce_columns(_boundary_columns(k, r), track=True).kernel


def exact_persistent_betti(pair: FiltrationPair, r: int) -> int:
    """Persistent Betti number dim Z_r(k1) - dim(Z_r(k1) ∩ B_r(k2)) by two routes from
    exact ranks and pivots, which share dim Z_r(k1) = |S_r(k1)| - rank of k1's
    r-boundary; route A's value is returned, and disagreement raises
    :class:`RouteDisagreement`.  Both routes reduce the integer columns D of k2's
    (r+1)-boundary, which :func:`operators._prefix_boundary` checks to be [B R; 0 G],
    k1's simplices first, or raises :class:`StructuralViolation`.

    Route A subtracts the number of pivots below |S_r(k1)| in one plain
    column reduction of D: reduced columns have distinct pivots (a column's
    largest index), so those with such pivots span B_r(k2) ∩ C_r(k1) =
    Z_r(k1) ∩ B_r(k2).  Route B subtracts rank D - rank G, D reduced by its
    rows: B_r(k2) ∩ C_r(k1) is D's image of ker [0 G], which has dimension
    |S_r+1(k2)| - rank G and contains ker D.
    """
    n1, m1 = pair.k1.size(r), pair.k1.size(r + 1)
    d = _prefix_boundary(pair, r)  # raises EmptyLayer when n1 is 0
    route_a = route_b = n1 - _rank(_boundary_columns(pair.k1, r))
    route_a -= sum(p < n1 for p in exact.reduce_columns(d).pivots)
    route_b -= _rank(d.T) - _rank(d[m1:].T[n1:])  # rank G by its rows: new columns' rows from n1
    if route_a != route_b:
        raise RouteDisagreement(route_a, route_b)
    return route_a


# ---------------------------------------------------------------------------
# Chebyshev step filter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChebyshevStepFilter:
    """Polynomial surrogate for the rank indicator 1{x > delta} on [0, 1].

    The underlying target is an erf ramp rising from 0 at delta/2 to 1 at
    delta (smoothing width delta/2), projected onto Chebyshev polynomials of
    the mapped variable y = 2x - 1 by discrete cosine quadrature.
    """

    delta: float
    degree: int
    coeffs: tuple[float, ...]

    def __call__(self, x: float) -> float:
        from numpy.polynomial.chebyshev import chebval

        return chebval(2.0 * float(x) - 1.0, self.coeffs)


def _smoothed_step(x: np.ndarray, delta: float) -> np.ndarray:
    from scipy.special import erf

    center, halfwidth = 0.75 * delta, 0.25 * delta
    return 0.5 * (1.0 + erf(2.6 * (x - center) / halfwidth))


QUAD_POINTS = 2048  # cosine quadrature nodes of the filter coefficients


def chebyshev_filter(delta: float, m: int) -> ChebyshevStepFilter:
    """Chebyshev coefficients of the smoothed step at threshold ``delta``."""
    if not (0.0 < delta < 1.0):
        raise BadParameter("delta must lie strictly between 0 and 1")
    if m < 1:
        raise BadParameter("degree must be at least 1")
    from scipy.fft import dct

    theta = np.pi * (np.arange(QUAD_POINTS) + 0.5) / QUAD_POINTS
    f = _smoothed_step(0.5 * (np.cos(theta) + 1.0), delta)
    # (2/N) sum_k f_k cos(j theta_k) for j < N is one DCT-II; beyond that the
    # cosines alias: c_N = 0, c_{2N-i} = -c_i and c_{j+2N} = -c_j.
    head = dct(f, type=2) / QUAD_POINTS
    half = np.concatenate([head, [0.0], -head[:0:-1]])
    c = np.concatenate([half, -half])[np.arange(m + 1) % (4 * QUAD_POINTS)]
    c[0] *= 0.5
    return ChebyshevStepFilter(delta=float(delta), degree=int(m), coeffs=tuple(c))


# ---------------------------------------------------------------------------
# Stochastic rank estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankEstimate:
    """Normalized rank estimate with its estimator configuration.

    ``normalized`` is clamped to [0, 1]; ``raw`` keeps the unclamped mean of
    the per-probe estimates and ``stderr`` their standard error.
    """

    normalized: float
    raw: float
    n_v: int
    degree: int
    delta: float
    stderr: float


def _probe_matrix(n: int, n_v: int, seed) -> np.ndarray:
    """Stack n_v Rademacher probe columns, entries +-1/sqrt(n).

    One Generator seeded with ``seed`` draws the probes in order, so column l
    is probe l and a larger batch starts with the smaller one.  The bits are
    drawn probe-major and written row-major for the CSR kernel.
    """
    scale = 1.0 / math.sqrt(n)
    bits = np.random.default_rng(seed).integers(0, 2, size=(n_v, n)).T
    v = np.multiply(bits, 2.0 * scale, out=np.empty((n, n_v)))
    v -= scale  # bits 0, 1 -> -scale, +scale exactly
    return v


def _prepare(a, n_v: int, seed):
    """Checked CSR operator mapped to B = 2A - I, and the probes."""
    if n_v < 1:
        raise BadParameter("need at least one probe")
    import scipy.sparse as sp

    a = sp.csr_matrix(a, dtype=float)
    if a.shape[0] != a.shape[1]:
        raise BadParameter("estimator input must be a square matrix")
    n = a.shape[0]
    if n == 0:
        raise BadParameter("empty matrix")
    bound = power_iteration_bound(a)
    if bound > 1.0 + 1e-6:
        raise SpectralNormExceeded(f"power-iteration norm bound {bound:.6g} exceeds 1")
    return 2.0 * a - sp.identity(n, format="csr"), _probe_matrix(n, n_v, seed)


def _finalize(per_probe: np.ndarray, filt: ChebyshevStepFilter, n_v: int) -> RankEstimate:
    raw = float(per_probe.mean())
    stderr = float(per_probe.std(ddof=1) / math.sqrt(n_v)) if n_v > 1 else 0.0
    return RankEstimate(
        normalized=float(min(1.0, max(0.0, raw))),
        raw=raw,
        n_v=n_v,
        degree=filt.degree,
        delta=filt.delta,
        stderr=stderr,
    )


def _chebyshev_blocks(b: sp.csr_matrix, x: np.ndarray, steps: int):
    """Yield s_k = sigma_k T_k(B) x, k = 0 .. steps, sigma = +, +, -, - repeating, so
    that s_k+1 = s_k-1 + sigma_k+1 sigma_k 2B s_k is added in place into s_k-1's block.
    A yielded block stays valid for one more step; x's block may be overwritten."""
    from scipy.sparse._sparsetools import csr_matvecs  # Y += A X, in place

    n, cols = x.shape
    blocks = (np.ascontiguousarray(x, dtype=float), np.zeros((n, cols)))
    flat = [blk.reshape(-1) for blk in blocks]
    signed = (2.0 * b.data, -2.0 * b.data)  # sigma_k+1 sigma_k = (-1)^k for k >= 1
    yield blocks[0]
    for k in range(steps):  # s_k+1 into the block of s_k-1, of zeros for s_1 = B s_0
        data = signed[k % 2] if k else b.data
        csr_matvecs(n, n, cols, b.indptr, b.indices, data, flat[k % 2], flat[1 - k % 2])
        yield blocks[1 - k % 2]


def stochastic_rank(a, filt: ChebyshevStepFilter, n_v: int = 200, seed=None) -> RankEstimate:
    """Estimate rank(A)/N for a symmetric PSD matrix with spectrum in [0, 1]:
    the mean over probes v of the filtered forms sum_j c_j v^T T_j(B) v,
    B = 2A - 1.  Deterministic for a fixed seed.  The doubling identities
    give every form from T_0 v ... T_ceil(m/2) v: ceil(m/2) sparse products."""
    b, v = _prepare(a, n_v, seed)
    half = (filt.degree + 1) // 2
    forms = np.empty((2 * half + 1, n_v))  # rows 2k, 2k + 1: <s_k, s_k>, <s_k, s_k+1>
    for k, s in enumerate(_chebyshev_blocks(b, v, half)):
        np.einsum("ij,ij->j", s, s, out=forms[2 * k])
        if k:
            np.einsum("ij,ij->j", prev, s, out=forms[2 * k - 1])
        prev = s
    j = np.arange(2, 2 * half + 1)  # v^T T_j v = 2<s_k, s_k> - T_0, 2 (-1)^k <s_k, s_k+1> - T_1
    forms[2:] = np.where(j % 4 == 3, -2.0, 2.0)[:, None] * forms[2:] - forms[j % 2]
    per_probe = np.asarray(filt.coeffs) @ forms[: filt.degree + 1]
    return _finalize(per_probe, filt, n_v)


MAX_MOMENT_DEGREE = 30  # power-basis coefficients grow like 2^(m-1); at 30 cancellation costs ~1e-7


def power_moments_rank(a, filt: ChebyshevStepFilter, n_v: int = 200, seed=None) -> RankEstimate:
    """Same estimand as :func:`stochastic_rank`, evaluated through moments.

    Each probe's form sum_j c_j v^T T_j v is the moments v^T B^s v of the
    mapped operator weighted by numpy's Chebyshev-to-power conversion of the
    c_j (``cheb2poly``); a cross-check that the two evaluation orders agree.
    """
    if filt.degree > MAX_MOMENT_DEGREE:
        raise DegreeTooHigh(f"power expansion is limited to degree {MAX_MOMENT_DEGREE}")
    from numpy.polynomial.chebyshev import cheb2poly

    b, v = _prepare(a, n_v, seed)
    moments = np.empty((filt.degree + 1, n_v))
    w = v
    moments[0] = np.einsum("ij,ij->j", v, w)
    for s in range(1, filt.degree + 1):
        w = b @ w
        moments[s] = np.einsum("ij,ij->j", v, w)
    power = cheb2poly(filt.coeffs)  # trailing zeros trimmed
    return _finalize(power @ moments[: power.size], filt, n_v)


def power_iteration_bound(a) -> float:
    """Rayleigh-quotient estimate of the spectral norm after 30 steps from a
    fixed random start (``default_rng(0)``)."""
    import scipy.sparse as sp

    a = sp.csr_matrix(a, dtype=float)
    n = a.shape[0]
    if n == 0 or not a.count_nonzero():
        return 0.0
    x = np.random.default_rng(0).standard_normal(n)
    x /= np.linalg.norm(x)
    est = 0.0
    for _ in range(30):
        y = a @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        est = norm
        x = y / norm
    return float(est)


HARMONIC_BLOCK, HARMONIC_CAP = 24, 192  # first and largest block of harmonic_basis
HARMONIC_GUARD = 8  # non-harmonic Ritz pairs it keeps in a block below the cap
HARMONIC_DEGREE = 24  # Chebyshev degree of a block's first filter step, and the most of any
HARMONIC_EPS = 1e-8  # largest value plus residual of a harmonic Ritz pair, and margin to stop at
HARMONIC_STEPS = 50  # filter steps before it gives up
BOUND_STEPS = 6  # steps of |L| + I that tighten the Collatz-Wielandt bound of _rescaled


def harmonic_basis(lap, seed) -> tuple[np.ndarray, float, bool]:
    """Orthonormal basis Q_H of ker L, L the PSD ``lap`` over the Collatz-Wielandt
    bound of :func:`_rescaled`, by Chebyshev-filtered subspace iteration (Zhou, Saad,
    Tiago & Chelikowsky 2006) from a Gaussian block of ``default_rng(seed)``; its
    Davis-Kahan margin; and whether it converged.  Each step applies T_m of the
    map M sending [a, 1] onto [-1, 1], a the largest Ritz value capped at 0.99: a
    block that meets the eigenspace of 1 leaves no interval.  M sends 0 to -z,
    z = (1 + a) / (1 - a), so T_m lifts the kernel by T_m(z) over the rest of
    [a, 1].  A block's first step takes m = ``HARMONIC_DEGREE``; each later one
    the least m up to it with T_m(z) >= |R_g| / (eps (theta_g - r_g)), eps =
    ``HARMONIC_EPS``, (theta_g, r_g) the first Ritz pair with theta - r > eps and
    R_g the residuals up to it: the gain that brings that margin to eps.  Q_H holds
    the leading Ritz pairs with value plus residual at most ``HARMONIC_EPS``;
    when after a step fewer than ``HARMONIC_GUARD`` pairs have value minus
    residual above it, the block doubles, so that the next pair stays apart
    from the kernel (Zhou et al.'s extra states); at the cap it ends when no
    such pair is left.  The margin |R| / (theta_1 - r_1), R the residuals of
    Q_H and the next pair (theta_1, r_1), bounds |Q_H Q_H^T - P_H| (Parlett
    1998) unless the Gaussian start missed a direction below theta_1, which
    happens only with small probability.
    A kernel past ``HARMONIC_CAP`` columns gives an infinite margin."""
    import scipy.sparse as sp

    lap, _ = _rescaled(sp.csr_matrix(lap, dtype=float, copy=True))  # unshared: rescaled in place
    n = lap.shape[0]
    shifted = None  # built at the first filter step: a small layer may need none
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, min(HARMONIC_BLOCK, n)))
    filtered = False
    for _ in range(HARMONIC_STEPS):
        q = np.linalg.qr(x)[0]
        lq = lap @ q
        theta, y = np.linalg.eigh(q.T @ lq)
        x = q @ y
        res = np.linalg.norm(lq @ y - x * theta, axis=0)
        h = int(np.cumprod(theta + res <= HARMONIC_EPS).sum())  # the leading harmonic run
        margin = (float(np.linalg.norm(res[:h + 1]) / (theta[h] - res[h]))
                  if h < x.shape[1] and theta[h] > res[h] else math.inf)
        if margin <= HARMONIC_EPS:
            return x[:, :h], margin, True
        full = x.shape[1] >= min(HARMONIC_CAP, n)
        if filtered and np.count_nonzero(theta - res > HARMONIC_EPS) < (1 if full else HARMONIC_GUARD):
            if full:  # the zero cluster fills the largest block
                return x[:, :h], 0.0 if h == n else math.inf, h == n
            x = np.hstack([x, rng.standard_normal((n, min(2 * x.shape[1], HARMONIC_CAP, n) - x.shape[1]))])
            filtered = False
            continue
        a = min(theta[-1], 0.99)  # T_m of M, which maps [a, 1] onto [-1, 1] and 0 onto -z
        z, degree = (1.0 + a) / (1.0 - a), HARMONIC_DEGREE
        if filtered:  # the least m whose T_m(z) takes the first non-harmonic margin to eps
            g = int(np.argmax(theta - res > HARMONIC_EPS))
            gain = np.linalg.norm(res[:g + 1]) / (HARMONIC_EPS * (theta[g] - res[g]))
            ladder = np.cosh(np.arange(1, HARMONIC_DEGREE + 1) * np.arccosh(z))
            degree = min(HARMONIC_DEGREE, 1 + int(np.searchsorted(ladder, gain)))
        shifted = shifted or _shifted(lap)
        *_, x = _chebyshev_blocks(shifted(2.0 / (1.0 - a), z), x, degree)  # s_m = +-T_m(M) x
        filtered = True
    return x[:, :h], margin, False


def _shifted(lap: sp.csr_matrix):
    """alpha L - beta I of the CSR matrix L as a function of (alpha, beta).  Each call
    refills and returns one matrix of L's pattern plus the diagonal, with alpha l_ij
    off the diagonal and alpha l_ii - beta on it (l_ii = 0 where L stores none)."""
    import scipy.sparse as sp

    op = lap + sp.identity(lap.shape[0], format="csr")  # l_ii >= 0, so no entry cancels
    diag = op.indices == np.repeat(np.arange(lap.shape[0]), np.diff(op.indptr))
    l = op.data.copy()
    l[diag] = lap.diagonal()

    def refill(alpha: float, beta: float) -> sp.csr_matrix:
        np.multiply(l, alpha, out=op.data)
        op.data[diag] -= beta
        return op
    return refill


def _rescaled(a: sp.csr_matrix) -> tuple[sp.csr_matrix, float]:
    """A divided in place by a Collatz-Wielandt bound max_i (|A| x)_i / x_i, and that
    bound: for every positive x it is at least rho(|A|), so at least every |eigenvalue|,
    and a PSD spectrum lands in [0, 1].  x starts at the ones (the infinity norm) and
    takes ``BOUND_STEPS`` steps of |A| + I, the smallest value kept.  Indices are sorted
    first, so that equal matrices get equal bounds."""
    from scipy.sparse._sparsetools import csr_matvecs

    a.sort_indices()
    n, magnitude = a.shape[0], np.abs(a.data)
    if not magnitude.any():  # the zero matrix, stored zeros or none
        return a, 1.0
    x, bound = np.ones(n), math.inf
    for _ in range(BOUND_STEPS + 1):
        y = np.zeros(n)
        csr_matvecs(n, n, 1, a.indptr, a.indices, magnitude, x, y)
        bound = min(bound, float(np.max(y / x)))
        x += y
        x /= x.max()
    a.data /= bound
    return a, bound


def hodge_basis(k: SimplicialComplex, r: int, seed) -> tuple[np.ndarray, float, bool]:
    """:func:`harmonic_basis` of k's Hodge Laplacian d_r^T d_r + d_{r+1} d_{r+1}^T."""
    return harmonic_basis(laplacian(k, r), seed)


CLASS_CUT = 1e-3  # least singular value of a class's residual, over |C|
RESIDUAL_TOL = 1e-10  # |d^T r| of a column at which residual_rank stops it
RESIDUAL_STEPS = 1000  # CGLS steps before residual_rank gives up


def residual_rank(d: sp.csc_matrix, m: int, cols: np.ndarray,
                  margin: float = 0.0) -> tuple[int, bool]:
    """How many singular values of the least-squares residual R = C - dZ lie
    above max(margin, CLASS_CUT) |C|, and whether that is low-confidence; d is
    the first ``m`` columns of the float CSC matrix ``d``, a stage of the
    boundary read by its column count.  R is P_H C for cycles C, so this is the
    float :meth:`exact.Reduction.rank_modulo`.
    CGLS (Hestenes & Stiefel 1952) from Z = 0 updates R, its columns in
    lockstep with one product by d and one by d^T per step, each until
    |d^T r| <= ``RESIDUAL_TOL``.  Low when one runs past ``RESIDUAL_STEPS``,
    or a singular value is within margin |C| + eps of the cut: eps = |d^T R|_F
    / sigma_min(d) bounds |R - P_H C|, sigma_min estimated (not certified)
    from the Lanczos tridiagonal G G^T that CG's coefficients give.
    Each product is one kernel call on d's indptr prefix into a zeroed block
    (``csc_matvecs``; ``csr_matvecs`` for d^T), as ``@`` on the slice ends."""
    from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

    n, k = d.shape[0], cols.shape[1]
    arrays = (d.indptr[:m + 1], d.indices, d.data)
    res = np.array(cols, dtype=float, order="C")
    scale = float(np.linalg.norm(res, 2))
    s, q = np.zeros((m, k)), np.empty((n, k))
    flat_res, flat_s, flat_q = res.reshape(-1), s.reshape(-1), q.reshape(-1)
    csr_matvecs(m, n, k, *arrays, flat_res, flat_s)
    p = s.copy()
    flat_p = p.reshape(-1)
    gamma = np.einsum("ij,ij->j", s, s)
    running = gamma > RESIDUAL_TOL ** 2
    steps = []  # per step, every column's alpha and beta, both 0 once it stops
    while running.any() and len(steps) < RESIDUAL_STEPS:
        q.fill(0.0)
        csc_matvecs(n, m, k, *arrays, flat_p, flat_q)
        alpha = np.divide(gamma, np.einsum("ij,ij->j", q, q), out=np.zeros(k), where=running)
        q *= alpha
        res -= q
        s.fill(0.0)
        csr_matvecs(m, n, k, *arrays, flat_res, flat_s)
        gamma, old = np.einsum("ij,ij->j", s, s), gamma
        running = gamma > RESIDUAL_TOL ** 2
        beta = np.divide(gamma, old, out=np.zeros(k), where=running)
        p *= beta
        p += s
        steps.append((alpha, beta))
    eps = 0.0
    if steps:  # G of a column that ran every step: 1 / sqrt(alpha) on the diagonal, sqrt(beta / alpha) below
        j = np.flatnonzero(steps[-1][0])[0]
        alpha, beta = np.array([a[j] for a, _ in steps]), np.array([b[j] for _, b in steps[:-1]])
        g = np.diag(1.0 / np.sqrt(alpha)) + np.diag(np.sqrt(beta / alpha[:-1]), -1)
        eps = math.sqrt(gamma.sum()) / np.linalg.svd(g, compute_uv=False)[-1]
    cut = max(margin, CLASS_CUT) * scale
    sigma = np.linalg.svd(res, compute_uv=False)
    return (int(np.count_nonzero(sigma > cut)),
            bool(running.any() or np.any(np.abs(sigma - cut) <= margin * scale + eps)))


# ---------------------------------------------------------------------------
# Betti estimation endpoints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BettiEstimate:
    """(Persistent) Betti count over the layer size, low-confidence when the
    harmonic basis did not converge (past the block cap the count is then a
    lower bound) or when :func:`residual_rank` is."""

    value: float
    layer_size: int
    low_confidence: bool = False

    def betti(self) -> int:
        return round(self.value * self.layer_size)


def estimate_normalized_betti(k: SimplicialComplex, r: int, seed=None) -> BettiEstimate:
    """beta_r / |S_r|, beta_r the column count of the harmonic basis of the
    Hodge Laplacian of k, its Gaussian start drawn from ``seed``."""
    n = k.size(r)
    if n == 0:
        raise EmptyLayer(f"no simplices of dimension {r}")
    q, _, converged = hodge_basis(k, r, seed)
    return BettiEstimate(value=q.shape[1] / n, layer_size=n, low_confidence=not converged)


def estimate_normalized_persistent_betti(pair: FiltrationPair, r: int,
                                         seed=None) -> BettiEstimate:
    """Persistent beta_r / |S_r(k1)| by homology tracking: the dimension of
    the image of H_r(k1) in H_r(k2) is the number of classes that k1's
    harmonic basis Q_H1, padded with zeros onto k2's prefix, spans modulo
    k2's boundaries: :func:`residual_rank` against k2's (r+1)-boundary with
    Q_H1's margin.  An empty Q_H1 gives 0 with no build."""
    n = pair.k1.size(r)
    if n == 0:
        raise EmptyLayer(f"k1 has no simplices of dimension {r}")
    q1, margin1, converged = hodge_basis(pair.k1, r, seed)
    if not q1.shape[1]:
        return BettiEstimate(value=0.0, layer_size=n, low_confidence=not converged)
    padded = np.vstack([q1, np.zeros((pair.k2.size(r) - n, q1.shape[1]))])
    d = _boundary(pair.k2, r + 1).astype(float)
    count, low = residual_rank(d, d.shape[1], padded, margin1)
    return BettiEstimate(value=count / n, layer_size=n, low_confidence=low or not converged)
