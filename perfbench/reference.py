"""Independent reference answers and the correctness gate.

Nothing here calls homology_lab.  Ranks of integer boundary matrices come
from a floating-point spectrum (the eigenvalues of the smaller Gram matrix,
which must show a clear gap between zero and nonzero), and on small
instances every such rank is cross-checked against a plain sparse
elimination over Fractions.  A disagreement raises ReferenceMismatch, which
aborts the benchmark instead of letting it judge outputs against a reference
it cannot trust.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

EST_TOL = 0.05  # normalized estimate tolerance (acceptance criterion 6)
CROSS_CHECK_MAX_DIM = 600  # Fraction cross-check when rows + cols stay at or below this
GAP_ZERO = 1e-9  # Gram eigenvalues below this share of the largest count as zero
GAP_NONZERO = 1e-4  # ... and above this share as nonzero; anything between aborts


class ReferenceMismatch(RuntimeError):
    """The reference cannot be trusted; the benchmark must stop."""


def boundary(lower: list[tuple], upper: list[tuple]) -> np.ndarray:
    """Signed boundary matrix, rows indexed by ``lower``, columns by ``upper``."""
    index = {s: i for i, s in enumerate(lower)}
    m = np.zeros((len(lower), len(upper)))
    for j, s in enumerate(upper):
        for pos in range(len(s)):
            m[index[s[:pos] + s[pos + 1:]], j] = -1.0 if pos % 2 else 1.0
    return m


def float_rank(m: np.ndarray) -> int:
    """Rank from the spectrum of the smaller Gram matrix of ``m``."""
    if m.size == 0 or not m.any():
        return 0
    gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    eigs = np.linalg.eigvalsh(gram)
    top = float(eigs[-1])
    if np.any((eigs > GAP_ZERO * top) & (eigs < GAP_NONZERO * top)):
        raise ReferenceMismatch(f"no clear spectral gap in a {m.shape} matrix")
    return int(np.count_nonzero(eigs >= GAP_NONZERO * top))


def fraction_rank(m: np.ndarray) -> int:
    """Rank by sparse column elimination over exact rationals."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for j in range(m.shape[1]):
        col = {int(i): Fraction(int(round(m[i, j]))) for i in np.flatnonzero(m[:, j])}
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                break
            f = col[low] / other[low]
            for i, v in other.items():
                x = col.get(i, 0) - f * v
                if x:
                    col[i] = x
                else:
                    col.pop(i, None)
    return len(pivots)


def rank(m: np.ndarray) -> int:
    """Float rank, cross-checked exactly on small matrices."""
    value = float_rank(m)
    if sum(m.shape) <= CROSS_CHECK_MAX_DIM:
        exact = fraction_rank(m)
        if exact != value:
            raise ReferenceMismatch(
                f"float rank {value} != Fraction rank {exact} for a {m.shape} matrix")
    return value


@dataclass
class Complex:
    """A complex written by the benchmark: layers in file order."""

    layers: dict[int, list[tuple]]
    path: str

    def size(self, r: int) -> int:
        return len(self.layers.get(r, ()))


@dataclass
class ChainSpec:
    """An integer 1-chain on a complex, keyed by oriented edge (a, b), a < b."""

    complex_id: str
    coeffs: dict[tuple, int]
    path: str


class References:
    """Lazily computed, cached reference answers over the benchmark's inputs."""

    def __init__(self, complexes: dict[str, Complex], chains: dict[str, ChainSpec]):
        self.complexes = complexes
        self.chains = chains
        self._cache: dict[tuple, object] = {}

    def _cached(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def _rank_d(self, cid: str, r: int) -> int:
        k = self.complexes[cid]
        if r < 1 or k.size(r) == 0 or k.size(r - 1) == 0:
            return 0
        return self._cached(("rank", cid, r),
                            lambda: rank(boundary(k.layers[r - 1], k.layers[r])))

    def betti(self, cid: str, r: int) -> int:
        k = self.complexes[cid]
        return k.size(r) - self._rank_d(cid, r) - self._rank_d(cid, r + 1)

    def persistent_betti(self, cid1: str, cid2: str, r: int) -> int:
        """dim Z_r(K1) - (rank D - rank D_new), D the (r+1)-boundary of K2 and
        D_new its rows on r-simplices that K1 lacks."""
        def compute():
            k1, k2 = self.complexes[cid1], self.complexes[cid2]
            cycles = k1.size(r) - self._rank_d(cid1, r)
            if k2.size(r + 1) == 0:
                return cycles
            d = boundary(k2.layers[r], k2.layers[r + 1])
            old = set(k1.layers[r])
            new_rows = [i for i, s in enumerate(k2.layers[r]) if s not in old]
            return cycles - (self._rank_d(cid2, r + 1) - rank(d[new_rows, :]))
        return self._cached(("pbetti", cid1, cid2, r), compute)

    def is_boundary(self, cid: str, coeffs: dict[tuple, int]) -> bool:
        """Whether a 1-cycle lies in the image of the 2-boundary of ``cid``."""
        k = self.complexes[cid]
        if not any(coeffs.values()):
            return True
        if k.size(2) == 0:
            return False
        index = {s: i for i, s in enumerate(k.layers[1])}
        vec = np.zeros((k.size(1), 1))
        for edge, c in coeffs.items():
            vec[index[edge], 0] = c
        d = boundary(k.layers[1], k.layers[2])
        return rank(np.hstack([d, vec])) == self._rank_d(cid, 2)

    def trivial(self, chain_id: str, cid: str | None = None) -> bool:
        spec = self.chains[chain_id]
        cid = cid or spec.complex_id
        return self._cached(("trivial", chain_id, cid),
                            lambda: self.is_boundary(cid, spec.coeffs))

    def equivalent(self, a: str, b: str, cid: str | None = None) -> bool:
        ca, cb = self.chains[a], self.chains[b]
        cid = cid or ca.complex_id
        diff = dict(ca.coeffs)
        for e, c in cb.coeffs.items():
            diff[e] = diff.get(e, 0) - c
        return self._cached(("equiv", a, b, cid), lambda: self.is_boundary(cid, diff))

    def is_cycle(self, chain_id: str) -> bool:
        spec = self.chains[chain_id]
        degree: dict[int, int] = {}
        for (a, b), c in spec.coeffs.items():
            degree[a] = degree.get(a, 0) - c
            degree[b] = degree.get(b, 0) + c
        return not any(degree.values())


def read_simplices(path) -> set[tuple]:
    """Simplex set of a JSON-lines complex file (header line skipped)."""
    lines = Path(path).read_text().splitlines()[1:]
    return {tuple(json.loads(ln)["s"]) for ln in lines if ln.strip()}


@dataclass(frozen=True)
class Outcome:
    """Judgement of one operation.

    ``failed`` follows the operation's documented guarantee; ``hard`` marks a
    failure of an exact answer, a one-sided guarantee, or the process itself
    (raise / non-zero exit), which makes the run incorrect.  Estimator misses
    and high-confidence wrong stochastic verdicts are failed but not hard.
    """

    failed: bool
    hard: bool = False
    est_err: float | None = None
    detail: str = ""


OK = Outcome(failed=False)


def _hard(detail: str) -> Outcome:
    return Outcome(failed=True, hard=True, detail=detail)


def _estimate(value: float, exact: int, n: int) -> Outcome:
    err = abs(float(value) - exact / n)
    if err > EST_TOL:
        return Outcome(failed=True, est_err=err,
                       detail=f"estimate {value:.4f} vs {exact}/{n}")
    return Outcome(failed=False, est_err=err)


def _verdict(out: dict, truth: bool, stochastic: bool) -> Outcome:
    if out["answer"] == truth:
        return OK
    if not stochastic:
        return _hard(f"exact verdict {out['answer']} != {truth}")
    if out.get("confidence") == "low":
        return OK
    return Outcome(failed=True, detail=f"high-confidence verdict {out['answer']} != {truth}")


def judge(check: tuple, code, out: dict | None, refs: References) -> Outcome:
    """Compare one CLI result with the reference named by ``check``."""
    if code != 0 or out is None:
        return _hard(f"exit code {code}")
    kind = check[0]
    if kind == "betti":
        _, cid, r, mode = check
        truth = refs.betti(cid, r)
        if "exact_betti" in out and out["exact_betti"] != truth:
            return _hard(f"oracle echo {out['exact_betti']} != {truth}")
        if mode == "exact":
            return OK if out["betti"] == truth else _hard(f"betti {out['betti']} != {truth}")
        return _estimate(out["normalized"], truth, refs.complexes[cid].size(r))
    if kind == "sweep":
        _, cids, r = check
        got = [row[2] for row in out["sweep"]]
        want = [refs.betti(cid, r) for cid in cids]
        return OK if got == want else _hard(f"sweep {got} != {want}")
    if kind == "pbetti":
        _, cid1, cid2, r, mode = check
        truth = refs.persistent_betti(cid1, cid2, r)
        echo = out.get("exact_persistent_betti", truth)
        if echo != truth:
            return _hard(f"oracle echo {echo} != {truth}")
        if mode == "exact":
            got = out["persistent_betti"]
            return OK if got == truth else _hard(f"persistent betti {got} != {truth}")
        return _estimate(out["normalized"], truth, refs.complexes[cid1].size(r))
    if kind == "gen":
        _, cid, path = check
        want = {s for layer in refs.complexes[cid].layers.values() for s in layer}
        return OK if read_simplices(path) == want else _hard("generated complex differs")
    if kind == "trivial":
        _, chain, mode = check
        return _verdict(out, refs.trivial(chain), mode == "stochastic")
    if kind == "equiv":
        _, a, b, mode = check
        return _verdict(out, refs.equivalent(a, b), mode == "stochastic")
    if kind == "equiv_cohomology":
        _, a, b = check
        if refs.equivalent(a, b) and not out["answer"]:
            return _hard("cohomology test separated two equivalent cycles")
        return OK
    if kind == "track":
        _, chains, stage_ids = check
        for stage, cid in zip(out["stages"], stage_ids):
            truth = (refs.trivial(chains[0], cid) if len(chains) == 1
                     else refs.equivalent(chains[0], chains[1], cid))
            if stage["answer"] != truth:
                return _hard(f"stage {stage['stage']}: {stage['answer']} != {truth}")
        return OK if len(out["stages"]) == len(stage_ids) else _hard("stage count differs")
    if kind == "betti_track":
        _, cid, r = check
        truth = refs.betti(cid, r)
        if out.get("exact_betti", truth) != truth:
            return _hard(f"oracle echo {out['exact_betti']} != {truth}")
        if out["betti_lower_bound"] > truth:
            return _hard(f"lower bound {out['betti_lower_bound']} exceeds betti {truth}")
        return OK
    if kind == "detect":
        _, chain = check
        if refs.is_cycle(chain) and out["answer"] != "likely_cycle":
            return _hard("a true cycle was rejected")
        return OK
    raise ValueError(f"unknown check {kind!r}")
