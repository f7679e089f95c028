"""Boundary and Laplacian operators, persistent block structure, Schur complements.

Signs follow the sorted-vertex orientation: the face obtained by deleting the
vertex in position i of a sorted simplex enters with sign (-1)^i.  Exact paths
read a boundary's integer columns straight from the face positions, with no
matrix, through :func:`_boundary_columns`: out of an empty layer there are no
columns, and below dimension 1 only zero ones.  Float paths and block checks
read the same rule as a CSC matrix through :func:`_boundary`, the int zero
matrix of the right shape for a missing layer, so callers need no branch of
their own.  Only the pseudoinverse-based paths are floating point, and they
share one thresholded pseudoinverse, :func:`_pinv_sym`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import exact
from .complexes import FiltrationPair, SimplicialComplex, _face_rows, _incidence
from .errors import BadParameter, EmptyLayer, StructuralViolation

PINV_RTOL = 1e-10  # singular values <= PINV_RTOL * sigma_max are treated as zero


@dataclass(frozen=True)
class BoundaryMatrix:
    """Signed incidence matrix of one boundary map, shape |S_{r-1}| x |S_r|."""

    r: int
    entries: sp.csc_matrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def toarray(self) -> np.ndarray:
        return self.entries.toarray()


def boundary_matrix(k: SimplicialComplex, r: int) -> BoundaryMatrix:
    """Matrix of the map sending each r-simplex to its alternating face sum."""
    if r < 1:
        raise BadParameter("boundary matrices start at dimension 1")
    if k.size(r) == 0 or k.size(r - 1) == 0:
        raise EmptyLayer(f"dimension {r} needs nonempty layers {r} and {r - 1}")
    return BoundaryMatrix(r=r, entries=_incidence(k, r, (-1) ** np.arange(r + 1)))


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
    """Matrix of the degree-r coboundary map: the transpose of the (r+1)-boundary."""
    return boundary_matrix(k, r + 1).entries.T.tocsc()


def _boundary(k: SimplicialComplex, r: int) -> sp.csc_matrix:
    """Entries of the r-boundary, |S_{r-1}| x |S_r|; a map into or out of an
    empty layer, and the map below dimension 1, is the int zero matrix."""
    if r >= 1 and k.size(r) and k.size(r - 1):
        return boundary_matrix(k, r).entries
    return sp.csc_matrix((k.size(r - 1) if r >= 1 else 0, k.size(r)), dtype=int)


def laplacian(k: SimplicialComplex, r: int) -> sp.csr_matrix:
    """Combinatorial Laplacian: up-term plus down-term, missing layers read as zero maps."""
    if r < 0:
        raise BadParameter("dimension must be non-negative")
    if k.size(r) == 0:
        raise EmptyLayer(f"no simplices of dimension {r}")
    terms = [m @ m.T for m in (_boundary(k, r + 1), _boundary(k, r).T) if m.nnz]
    if not terms:
        return sp.csr_matrix((k.size(r), k.size(r)), dtype=int)
    return sum(terms[1:], terms[0]).tocsr()


def laplacian_divisor(k: SimplicialComplex, r: int) -> int:
    """Normalization constant 2(r+1)(r+2)|S_r||S_{r+1}|, empty layer counting as 1."""
    s_up = max(k.size(r + 1), 1)
    return 2 * (r + 1) * (r + 2) * k.size(r) * s_up


def normalized_laplacian(k: SimplicialComplex, r: int) -> sp.csr_matrix:
    """Laplacian scaled so its spectral norm is strictly below one."""
    return laplacian(k, r).astype(float) / laplacian_divisor(k, r)


@dataclass(frozen=True)
class PersistentBlocks:
    """Block decomposition of the larger complex's (r+1)-boundary.

    With the prefix ordering of a validated filtration, the boundary matrix of
    k2 splits as [B R; 0 G]: B is k1's own boundary, R couples new
    (r+1)-simplices to old r-faces, and G is the all-new corner.  The lower
    left block is zero because every face of an old simplex is old.
    """

    r: int
    b: sp.csc_matrix
    r_block: sp.csc_matrix
    g: sp.csc_matrix


def persistent_blocks(pair: FiltrationPair, r: int) -> PersistentBlocks:
    """Split the (r+1)-boundary of k2 along the old/new simplex prefix."""
    return _split_boundary(pair, r)[0]


def _split_boundary(pair: FiltrationPair, r: int) -> tuple[PersistentBlocks, sp.csc_matrix]:
    """:func:`persistent_blocks` and the (r+1)-boundary of k2 they are cut from."""
    k1, k2 = pair.k1, pair.k2
    if k1.size(r) == 0:
        raise EmptyLayer(f"k1 has no simplices of dimension {r}")
    n_old_rows = k1.size(r)
    n_old_cols = k1.size(r + 1)

    full = _boundary(k2, r + 1)
    b = full[:n_old_rows, :n_old_cols]
    r_blk = full[:n_old_rows, n_old_cols:]
    g = full[n_old_rows:, n_old_cols:]
    lower_left = full[n_old_rows:, :n_old_cols]
    if lower_left.nnz != 0:
        raise StructuralViolation(
            "an old (r+1)-simplex touches a new r-face; closure is broken"
        )
    # B must literally be k1's own boundary under the shared prefix ordering.
    if (b - _boundary(k1, r + 1)).nnz != 0:
        raise StructuralViolation("prefix block differs from k1's boundary matrix")
    return PersistentBlocks(r=r, b=b.tocsc(), r_block=r_blk.tocsc(), g=g.tocsc()), full


def _pinv_sym(m: np.ndarray) -> np.ndarray:
    if m.size == 0:
        return m.copy()
    return np.linalg.pinv(m, rcond=PINV_RTOL, hermitian=True)


def schur_complement(m: np.ndarray, index_set) -> np.ndarray:
    """Eliminate the 1-based rows/columns in ``index_set`` from a symmetric matrix.

    Returns M(comp, comp) - M(comp, I) M(I, I)^+ M(I, comp) with a
    singular-value-thresholded pseudoinverse.  An empty index set returns a
    copy of M.
    """
    m = np.asarray(m, dtype=float)
    idx = sorted(set(int(i) for i in index_set))
    if not idx:
        return m.copy()
    if idx[0] < 1 or idx[-1] > m.shape[0]:
        raise BadParameter("index set out of range (indices are 1-based)")
    dropped = set(idx)
    inner = np.array([i - 1 for i in idx])
    keep = np.array([i for i in range(m.shape[0]) if i + 1 not in dropped], dtype=int)
    m_kk = m[np.ix_(keep, keep)]
    m_ki = m[np.ix_(keep, inner)]
    m_ii = m[np.ix_(inner, inner)]
    if keep.size == 0:
        return np.zeros((0, 0))
    return m_kk - m_ki @ _pinv_sym(m_ii) @ m_ki.T


def persistent_up_laplacian(pair: FiltrationPair, r: int) -> np.ndarray:
    """Up-part of the persistent Laplacian from the block formula.

    B B^T + R R^T - R G^T (G G^T)^+ G R^T, acting on k1's r-simplices.
    """
    blocks = persistent_blocks(pair, r)
    b = blocks.b.toarray().astype(float)
    rr = blocks.r_block.toarray().astype(float)
    g = blocks.g.toarray().astype(float)
    up = b @ b.T + rr @ rr.T
    if g.shape[0] > 0 and g.shape[1] > 0:
        ggt = g @ g.T
        up = up - rr @ g.T @ _pinv_sym(ggt) @ g @ rr.T
    return up


def persistent_laplacian(pair: FiltrationPair, r: int) -> np.ndarray:
    """Persistent Laplacian on k1's r-simplices; its kernel dimension is the
    persistent Betti number."""
    up = persistent_up_laplacian(pair, r)  # raises EmptyLayer when k1 has no r-simplices
    d = _boundary(pair.k1, r).toarray().astype(float)
    return up + d.T @ d
