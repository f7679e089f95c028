"""Boundary and Laplacian operators, persistent block structure, Schur complements.

Signs follow the sorted-vertex orientation: the face obtained by deleting the
vertex in position i of a sorted simplex enters with sign (-1)^i.  Exact paths
read a boundary's integer columns straight from the face positions, with no
matrix, through :func:`_boundary_columns`: out of an empty layer there are no
columns, and below dimension 1 only zero ones; :func:`_prefix_boundary` checks
the persistent block structure on them.  Float paths read the same rule as a
CSC matrix through :func:`_boundary`, the int zero matrix of the right shape for
a missing layer, so callers need no branch of their own; :func:`laplacian` reads
the face positions itself, into one stacked matrix.
Only the pseudoinverse-based paths are floating point, and they share one
thresholded pseudoinverse, :func:`_pinv_sym`.
"""

from __future__ import annotations

import operator

import numpy as np
import scipy.sparse as sp

from . import exact
from .complexes import FiltrationPair, SimplicialComplex, _face_rows, _incidence
from .errors import BadParameter, EmptyLayer, StructuralViolation

PINV_RTOL = 1e-10  # singular values <= PINV_RTOL * sigma_max are treated as zero


def boundary_matrix(k: SimplicialComplex, r: int) -> sp.csc_matrix:
    """CSC int matrix of the map sending each r-simplex to its alternating face sum."""
    if r < 1:
        raise BadParameter("boundary matrices start at dimension 1")
    if k.size(r) == 0 or k.size(r - 1) == 0:
        raise EmptyLayer(f"dimension {r} needs nonempty layers {r} and {r - 1}")
    return _incidence(k, r, (-1) ** np.arange(r + 1))


def _boundary_columns(k: SimplicialComplex, r: int, cols=slice(None)) -> exact.Columns:
    """Integer columns ``cols`` (0-based, all by default) of the r-boundary, each
    {face position: (-1)^i} over its r + 1 faces, read with no matrix.  An empty
    layer has no columns, and the map below dimension 1 has zero columns."""
    if r < 1 or not k.size(r):
        return exact.Columns([{} for _ in np.arange(k.size(r))[cols]], k.size(r - 1))
    signs = [(-1) ** i for i in range(r + 1)]
    return exact.Columns([dict(zip(w, signs)) for w in _face_rows(k, r, cols).tolist()],
                         k.size(r - 1))


def coboundary_matrix(k: SimplicialComplex, r: int) -> sp.csc_matrix:
    """CSC int matrix of the degree-r coboundary map: the transpose of the (r+1)-boundary."""
    return boundary_matrix(k, r + 1).T.tocsc()


def _boundary(k: SimplicialComplex, r: int) -> sp.csc_matrix:
    """Entries of the r-boundary, |S_{r-1}| x |S_r|; a map into or out of an
    empty layer, and the map below dimension 1, is the int zero matrix."""
    if r >= 1 and k.size(r) and k.size(r - 1):
        return boundary_matrix(k, r)
    return sp.csc_matrix((k.size(r - 1) if r >= 1 else 0, k.size(r)), dtype=int)


def laplacian(k: SimplicialComplex, r: int) -> sp.csr_matrix:
    """Combinatorial Laplacian d_{r+1} d_{r+1}^T + d_r^T d_r, missing layers read as zero
    maps, as one int product D D^T of the stacked D = [d_{r+1} | d_r^T].  D^T is read
    from the face index: one row per (r+1)-simplex, its faces with signs (-1)^i, then
    one per (r-1)-simplex, its cofaces in order.  Indices are sorted where an up-term
    exists; a top layer keeps the product's order, as d_r^T d_r always stored it."""
    if r < 0:
        raise BadParameter("dimension must be non-negative")
    if k.size(r) == 0:
        raise EmptyLayer(f"no simplices of dimension {r}")
    faces = _face_rows(k, r + 1) if k.size(r + 1) else np.empty((0, r + 2), dtype=np.int64)
    down = _face_rows(k, r).ravel() if r else np.empty(0, dtype=np.int64)
    cofaces = np.argsort(down, kind="stable")  # each (r-1)-simplex's cofaces, in order
    ends = faces.size + np.cumsum(np.bincount(down, minlength=k.size(r - 1)))
    signs = np.concatenate([np.tile((-1) ** np.arange(r + 2), len(faces)),
                            (-1) ** (cofaces % (r + 1))])
    dt = sp.csr_matrix((signs, np.concatenate([faces.ravel(), cofaces // (r + 1)]),
                        np.concatenate([np.arange(0, faces.size + 1, r + 2), ends])),
                       shape=(len(faces) + len(ends), k.size(r)))
    lap = dt.T.tocsr() @ dt
    if len(faces):
        lap.sort_indices()
    return lap


def _prefix_boundary(pair: FiltrationPair, r: int) -> exact.Columns:
    """k2's (r+1)-boundary as integer columns, checked to be [B R; 0 G] with B k1's own
    boundary: raises :class:`StructuralViolation` if an old column has a new face or B
    differs, and :class:`EmptyLayer` if k1 has no r-simplices."""
    n1 = pair.k1.size(r)
    if n1 == 0:
        raise EmptyLayer(f"k1 has no simplices of dimension {r}")
    d = _boundary_columns(pair.k2, r + 1)
    old = d[:pair.k1.size(r + 1)]
    if any(max(faces) >= n1 for faces in old):
        raise StructuralViolation("an old (r+1)-simplex touches a new r-face; closure is broken")
    if old != _boundary_columns(pair.k1, r + 1):
        raise StructuralViolation("prefix block differs from k1's boundary matrix")
    return d


def _pinv_sym(m: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(m, rcond=PINV_RTOL, hermitian=True)


def schur_complement(m: np.ndarray, index_set) -> np.ndarray:
    """Eliminate the 1-based rows/columns in ``index_set`` from a symmetric matrix.

    Returns M(comp, comp) - M(comp, I) M(I, I)^+ M(I, comp) with a
    singular-value-thresholded pseudoinverse: a copy of M for an empty index
    set, a (0, 0) matrix for the full one.
    """
    m = np.asarray(m, dtype=float)
    try:
        idx = sorted({operator.index(i) for i in index_set})
    except TypeError:
        raise BadParameter("index set must hold integers") from None
    if idx and (idx[0] < 1 or idx[-1] > m.shape[0]):
        raise BadParameter("index set out of range (indices are 1-based)")
    inner = np.array(idx, dtype=int) - 1
    keep = np.setdiff1d(np.arange(m.shape[0]), inner)
    m_ki = m[np.ix_(keep, inner)]
    return m[np.ix_(keep, keep)] - m_ki @ _pinv_sym(m[np.ix_(inner, inner)]) @ m_ki.T


def persistent_up_laplacian(pair: FiltrationPair, r: int) -> np.ndarray:
    """Up-part of the persistent Laplacian on k1's r-simplices.

    In the prefix order of a validated filtration, k2's (r+1)-boundary is
    [B R; 0 G]: B is k1's own boundary, R couples new (r+1)-simplices to old
    r-faces, G is the all-new corner, and the lower left block is zero because
    every face of an old simplex is old.  Returns B B^T + R R^T - R G^T (G G^T)^+ G R^T.
    """
    _prefix_boundary(pair, r)
    n1, m1 = pair.k1.size(r), pair.k1.size(r + 1)
    full = _boundary(pair.k2, r + 1).toarray().astype(float)
    b, rr, g = full[:n1, :m1], full[:n1, m1:], full[n1:, m1:]
    return b @ b.T + rr @ rr.T - rr @ g.T @ _pinv_sym(g @ g.T) @ g @ rr.T


def persistent_laplacian(pair: FiltrationPair, r: int) -> np.ndarray:
    """Persistent Laplacian on k1's r-simplices; its kernel dimension is the
    persistent Betti number."""
    up = persistent_up_laplacian(pair, r)  # raises EmptyLayer when k1 has no r-simplices
    d = _boundary(pair.k1, r).toarray().astype(float)
    return up + d.T @ d
