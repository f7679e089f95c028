"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every stochastic criterion is pinned to explicit seeds so the suite is
reproducible; every tolerance is stated inline.
"""

import time
from contextlib import contextmanager

import numpy as np

import homology_lab as hl
from homology_lab import Chain
from homology_lab.cli import run as cli_run
from homology_lab.exact import kernel_basis
from homology_lab.io import save_complex
from homology_lab.operators import boundary_matrix

from conftest import (
    canonical_complexes,
    oracle_betti,
    oracle_solvable,
    random_rips,
    random_rips_filtration,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"[criterion {number:2d}] PASS  {description}")


# -----------------------------------------------------------------------------


def test_criterion_1_exact_betti_numbers():
    with criterion(1, "exact Betti numbers match the from-definition oracle"):
        expected = {
            "hollow_triangle": (1, 1),
            "filled_triangle": (1, 0),
            "circle4": (1, 1),
            "circle8": (1, 1),
            "tetrahedron_boundary": (1, 0, 1),
            "torus": (1, 2, 1),
        }
        complexes = canonical_complexes()
        for name, betti in expected.items():
            k = complexes[name]
            for r, want in enumerate(betti):
                start = time.monotonic()
                assert hl.exact_betti(k, r) == want, (name, r)
                assert oracle_betti(k, r) == want, (name, r)
                assert time.monotonic() - start < 1.0, (name, r)


def test_criterion_2_boundary_algebra():
    with criterion(2, "boundary/coboundary algebra exact on 100 random complexes"):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            threshold = float(rng.uniform(0.35, 0.7))
            k = random_rips(seed, n_points=8, threshold=threshold, max_dim=3)
            assert k.total_size() <= 200
            for r in sorted(k.layers):
                if r == 0 or k.size(r) == 0:
                    continue
                d = boundary_matrix(k, r)
                assert (d.multiply(d)).sum() == (r + 1) * k.size(r)  # Frobenius count
                if k.size(r + 1) > 0:
                    d_up = boundary_matrix(k, r + 1)
                    assert (d @ d_up).nnz == 0  # boundary of a boundary
                    assert (d_up.T @ d.T).nnz == 0  # coboundary squares to zero


def _filtration_pool():
    pairs = []
    seed = 0
    while len(pairs) < 50:
        rng = np.random.default_rng(10_000 + seed)
        t1 = float(rng.uniform(0.3, 0.5))
        t2 = float(rng.uniform(0.55, 0.85))
        pair = random_rips_filtration(seed, n_points=7, t1=t1, t2=t2)
        seed += 1
        if pair.k2.total_size() <= 100:
            pairs.append(pair)
    return pairs


def test_criterion_3_schur_identity():
    with criterion(3, "block persistent up-Laplacian equals the Schur complement"):
        checked = 0
        for pair in _filtration_pool():
            for r in (0, 1):
                if pair.k1.size(r) == 0 or pair.k2.size(r + 1) == 0:
                    continue
                up = hl.persistent_up_laplacian(pair, r)
                full = boundary_matrix(pair.k2, r + 1).toarray().astype(float)
                product = full @ full.T
                new_idx = range(pair.k1.size(r) + 1, pair.k2.size(r) + 1)
                schur = hl.schur_complement(product, new_idx)
                assert np.linalg.norm(up - schur) <= 1e-8
                checked += 1
        assert checked >= 50


def test_criterion_4_persistent_two_routes():
    with criterion(4, "persistent Betti: pivot route equals rank route"):
        for pair in _filtration_pool():
            for r in (0, 1):
                if pair.k1.size(r) == 0:
                    continue
                hl.exact_persistent_betti(pair, r)  # raises RouteDisagreement on split
        hollow, filled = hl.generate("hollow_triangle"), hl.generate("filled_triangle")
        pair = hl.validate_filtration(hollow, filled)
        assert hl.exact_persistent_betti(pair, 1) == 0
        assert hl.exact_betti(hollow, 1) == 1


def test_criterion_5_stochastic_rank_estimator():
    with criterion(5, "stochastic rank within 0.05 on >=95% of 100 PSD runs"):
        start = time.monotonic()
        filt = hl.chebyshev_filter(0.045, 64)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(20_000 + seed)
            n = int(rng.integers(32, 257))
            rank_n = int(rng.integers(0, n + 1))
            eigs = np.concatenate([rng.uniform(0.05, 1.0, rank_n), np.zeros(n - rank_n)])
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = (q * eigs) @ q.T
            a = (a + a.T) / 2
            est = hl.stochastic_rank(a, filt, n_v=200, seed=seed)
            if abs(est.normalized - rank_n / n) <= 0.05:
                hits += 1
        assert hits >= 95
        assert time.monotonic() - start < 30.0

        # power-expansion evaluation agrees with the recurrence on shared
        # probes (degree capped at 16: the expansion guard tops out at 30)
        a = np.diag([0.9] * 8 + [0.0] * 8)
        filt16 = hl.chebyshev_filter(0.01, 16)
        rec = hl.stochastic_rank(a, filt16, n_v=64, seed=5)
        mom = hl.power_moments_rank(a, filt16, n_v=64, seed=5)
        assert abs(rec.raw - mom.raw) <= 1e-8


def test_criterion_6_normalized_betti_pipeline():
    with criterion(6, "normalized Betti estimates within 0.05 on canonical complexes"):
        hits = trials = 0
        for name, k in canonical_complexes().items():
            for r in sorted(k.layers):
                if k.size(r) == 0:
                    continue
                want = hl.exact_betti(k, r) / k.size(r)
                for seed in range(12):
                    est = hl.estimate_normalized_betti(
                        k, r, seed=seed
                    )
                    trials += 1
                    if abs(est.value - want) <= 0.05:
                        hits += 1
        assert hits >= int(0.95 * trials), (hits, trials)


def _cycle_corpus(k):
    """Kernel basis plus all pairwise sums and differences."""
    basis = kernel_basis(boundary_matrix(k, 1).toarray())
    chains = []
    for v in basis:
        chains.append(Chain.make(1, {i + 1: x for i, x in enumerate(v) if x != 0}))
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            for sign in (1, -1):
                vec = [a + sign * b for a, b in zip(basis[i], basis[j])]
                c = Chain.make(1, {t + 1: x for t, x in enumerate(vec) if x != 0})
                if not c.is_zero():
                    chains.append(c)
    return chains


def _small_complex_pool():
    pool = {
        "hollow_triangle": hl.generate("hollow_triangle"),
        "filled_triangle": hl.generate("filled_triangle"),
        "circle5": hl.generate("circle", m=5),
        "tetrahedron": hl.generate("tetrahedron_boundary"),
        "filled_square": hl.build_complex(
            [[0, 1], [1, 2], [2, 3], [0, 3], [0, 2], [0, 1, 2], [0, 2, 3]], autoclose=True
        ),
        "two_hollow": hl.build_complex(
            [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]], autoclose=True
        ),
        "figure_eight": hl.build_complex(
            [[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [0, 4]], autoclose=True
        ),
    }
    assert all(k.total_size() <= 30 for k in pool.values())
    return pool


def test_criterion_7_triviality_and_equivalence():
    with criterion(7, "triviality testing matches the membership oracle; stochastic agrees"):
        pool = _small_complex_pool()
        labelled = []
        for name, k in pool.items():
            if k.size(1) == 0:
                continue
            for c in _cycle_corpus(k):
                exact_answer = hl.test_trivial(k, c, mode="exact").answer
                if k.size(2) == 0:
                    want = c.is_zero()
                else:
                    want = oracle_solvable(
                        boundary_matrix(k, 2).toarray(), c.dense(k.size(1))
                    )
                assert exact_answer == want, name
                labelled.append((k, c, exact_answer))

        agree = wrong_confident = 0
        trials = 200
        for t in range(trials):
            k, c, exact_answer = labelled[t % len(labelled)]
            verdict = hl.test_trivial(k, c, mode="stochastic")
            if verdict.answer == exact_answer:
                agree += 1
            elif not verdict.low_confidence:
                wrong_confident += 1
        assert agree >= int(0.95 * trials), agree
        assert wrong_confident == 0


def test_criterion_8_cycle_detection_one_sided():
    with criterion(8, "cycle detection never rejects cycles; rejection rate matches"):
        k = hl.generate("hollow_triangle")
        loop = Chain.from_simplices(k, [([1, 2], 1), ([0, 2], -1), ([0, 1], 1)])
        for seed in range(10_000):
            assert hl.detect_cycle_stochastic(k, loop, eta=0.1, seed=seed) == "likely_cycle"

        # analytic per-trial success probability for the single edge [0,1]
        d = boundary_matrix(k, 1).toarray().astype(float)
        gram = d.T @ d / (2 * 3)
        e1 = np.array([1.0, 0.0, 0.0])
        p = float(np.linalg.norm(gram @ e1) ** 2)
        edge = Chain.from_simplices(k, [([0, 1], 1)])
        trials = 10_000
        rejections = sum(
            hl.detect_cycle_stochastic(k, edge, eta=0.1, seed=seed) == "not_cycle"
            for seed in range(trials)
        )
        expected = trials * (1 - (1 - p) ** 10)
        sigma = (trials * (1 - (1 - p) ** 10) * (1 - p) ** 10) ** 0.5
        assert abs(rejections - expected) <= 3 * sigma


def test_criterion_9_cohomological_testing():
    with criterion(9, "cohomological equivalence matches exact homology testing"):
        pool = [v for v in _small_complex_pool().values() if v.size(1) > 1]
        agree = 0
        trials = 200
        for t in range(trials):
            k = pool[t % len(pool)]
            c1, c2 = hl.sample_cycles(k, 1, s=2, seed=40_000 + t)
            want = hl.test_equivalent(k, c1, c2, mode="exact").answer
            got = hl.test_equivalent_cohomological(k, c1, c2, witnesses=8, seed=t).equivalent
            if got == want:
                agree += 1
        assert agree >= int(0.99 * trials), agree

        # witness invariance properties on every constructed witness
        square = _small_complex_pool()["filled_square"]
        upper = Chain.from_simplices(square, [([0, 1], 1), ([1, 2], 1), ([0, 2], -1)])
        lower = Chain.from_simplices(square, [([0, 2], 1), ([2, 3], 1), ([0, 3], -1)])
        assert hl.test_equivalent(square, upper, lower, mode="exact").answer
        delta0 = hl.coboundary_matrix(square, 0).toarray()
        cycles = hl.sample_cycles(square, 1, s=5, seed=3)
        for seed in range(20):
            w = hl.random_cocycle(square, 1, seed=seed)
            gap = abs(hl.evaluate(square, w, upper) - hl.evaluate(square, w, lower))
            assert gap <= 1e-8 * max(1.0, w.norm() * (upper.norm() + lower.norm()))
            w0 = np.random.default_rng(seed).standard_normal(square.size(0))
            cob = hl.Cochain(r=1, values=delta0 @ w0)
            for c in cycles:
                scale = 1e-8 * (1 + cob.norm() * c.norm())
                assert abs(hl.evaluate(square, cob, c)) <= scale

        # cohomology dimensions equal homology dimensions on canonicals
        for name, k in canonical_complexes().items():
            for r in sorted(k.layers):
                if k.size(r) == 0:
                    continue
                n = k.size(r)
                dim_ker = n - (
                    hl.exact_rank(boundary_matrix(k, r + 1).toarray()) if k.size(r + 1) else 0
                )
                rank_prev = (
                    hl.exact_rank(boundary_matrix(k, r).toarray())
                    if r >= 1 and k.size(r - 1)
                    else 0
                )
                assert dim_ker - rank_prev == hl.exact_betti(k, r), (name, r)


def test_criterion_10_tracking_estimator():
    with criterion(10, "tracking estimator bounds Betti from below, reaching it w.h.p."):
        hollow = hl.generate("hollow_triangle")
        fig8 = hl.build_complex(
            [[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [0, 4]], autoclose=True
        )
        for k, want in ((hollow, 1), (fig8, 2)):
            exact_value = hl.exact_betti(k, 1)
            assert exact_value == want
            hits = 0
            seeds = range(40)
            for seed in seeds:
                cycles = hl.sample_cycles(k, 1, s=10, seed=seed)
                got = hl.betti_via_tracking(k, 1, cycles, mode="exact")
                assert got <= exact_value  # always a lower bound
                if got == exact_value:
                    hits += 1
            assert hits >= int(0.95 * len(seeds))


def test_criterion_11_reproducibility(tmp_path, capsys):
    with criterion(11, "identical seeds give byte-identical JSON output"):
        path = tmp_path / "c8.jsonl"
        save_complex(hl.generate("circle", m=8), path)
        outputs = []
        for _ in range(2):
            code = cli_run([
                "betti", "--input", str(path), "--r", "1",
                "--mode", "stochastic", "--seed", "31415",
            ])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].encode() == outputs[1].encode()

        outputs = []
        for _ in range(2):
            code = cli_run([
                "betti-track", "--input", str(path), "--r", "1",
                "--samples", "6", "--seed", "2718",
            ])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
