#!/usr/bin/env python3
"""homology-lab benchmark: seeded CLI workloads in a single-client closed loop.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload rips_small --seed 1 --seconds 40 --trace 0

Each operation is one in-process ``homology_lab.cli.run([...])`` call; the
next one starts only after the previous one returns.  A run repeats whole
passes over the workload's operation list for ``--seconds`` (at least
MIN_PASSES passes), so every run measures the same mix.  Every operation
therefore has one repetition per pass; its samples are the fastest
1/FAST_SHARE of them.  p50 and tail are taken over all operations' samples
pooled, and the throughput is their number over their summed latency.

The machine is shared, and its speed changes by up to a factor of two, for
seconds or for many minutes.  So every pass also times a fixed computation of
the benchmark's own, the yardstick (independent of the program; see
Yardstick), and the end-to-end latency metrics are given in yardsticks: the
latency divided by the yardstick's time in the same run, both taken over the
fastest quarter of their samples.  A change to the program moves them exactly
as it moves the seconds; a change in the machine's speed moves both sides.
The seconds are on the record line.  A pass is kept short (a few
seconds), so that every operation is repeated in many passes spread over the
whole run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is a separate
run: it alternates passes without tracing and passes with spans around every
public function of the program, and prints per-layer metrics from those spans
plus ``trace_overhead_s``, the traced minus the untraced time of one pass
(each operation at its fastest).  Alternating puts both kinds of pass under
the same conditions of the machine.

``setup_s`` is the import of the CLI in a fresh interpreter plus the
generation and writing of the seeded inputs, repeated SETUP_REPEATS times
spread over the run (median); ``peak_rss_mb`` is read right after the loop,
before any reference answer is computed.

Reference answers are computed after the loop, by the benchmark's own code,
and every distinct operation is judged once against them: ``attempted`` and
``failed`` count operations, not repetitions.  The last stdout line is the result
JSON; the line before it carries the run record and quality figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BLAS_THREADS = 1  # at or below nproc; one thread keeps a shared machine's timings steady
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

MIN_PASSES = 3
SETUP_REPEATS = 9
FAST_SHARE = 4  # an operation's samples are the fastest quarter of its repetitions
YARDSTICK_REPEATS = 3  # yardstick timings at the start of every pass
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it

IMPORT_PROBE = ("import time; t = time.perf_counter(); import homology_lab.cli; "
                "print(time.perf_counter() - t)")

STAGE_FUNCTIONS = (
    "cli.run",
    "io.load_complex", "io.load_filtration", "io.load_chain", "io.save_complex",
    "complexes.vietoris_rips", "complexes.build_complex", "complexes.validate_filtration",
    "operators.boundary_matrix", "operators.laplacian", "operators.persistent_laplacian",
    "operators.persistent_up_laplacian", "operators.schur_complement",
    "exact.rank", "exact.rref", "exact.kernel_basis", "exact.intersection_dim",
    "exact.to_integer_rows",
    "spectra.exact_betti", "spectra.exact_persistent_betti",
    "spectra.estimate_normalized_betti", "spectra.estimate_normalized_persistent_betti",
    "spectra.power_iteration_bound", "spectra.chebyshev_filter", "spectra.stochastic_rank",
    "homology.test_trivial", "homology.test_equivalent", "homology.track_classes",
    "homology.sample_cycles", "homology.betti_via_tracking", "homology.detect_cycle_stochastic",
    "cohomology.random_cocycle", "cohomology.project_to_cocycle",
    "cohomology.test_equivalent_cohomological",
)
SUBCOMMANDS = ("betti", "persistent-betti", "test-trivial", "test-equiv", "detect-cycle",
               "track", "betti-track", "gen")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_record(seed: int, import_s: float) -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get(BLAS_ENV[0], 0)) or None,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(ROOT),
        "src_lines": src_lines,
        "import_s": import_s,
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def time_import() -> float:
    """Import time of the CLI module in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=str(ROOT),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class SetUp:
    """Set-up repetitions: the CLI's import in a fresh interpreter plus the
    generation and writing of the seeded inputs.

    The first repetition's inputs are the ones the loop runs.  The others are
    spread over the run and deleted at once, so their median samples the
    machine at several moments rather than at one."""

    def __init__(self, build, seed: int, work: Path):
        self.build, self.seed, self.work = build, seed, work
        self.times: list[float] = []
        self.workload = self.once()

    def once(self):
        target = self.work / f"setup{len(self.times)}"
        start = time.perf_counter()
        target.mkdir(parents=True)
        workload = self.build(self.seed, target)
        generate_s = time.perf_counter() - start
        self.times.append(time_import() + generate_s)
        if len(self.times) > 1:
            shutil.rmtree(target)
        return workload

    def repeat_until(self, share: float) -> None:
        """Repetitions due once ``share`` of the run has elapsed."""
        while len(self.times) < 1 + min(share, 1.0) * (SETUP_REPEATS - 1):
            self.once()

    def median(self) -> float:
        self.repeat_until(1.0)
        return statistics.median(self.times)


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

def run_op(cli, argv) -> tuple[float, object, str]:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(list(argv))
        except Exception as exc:  # an escaped exception is a failed operation
            code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


class Yardstick:
    """A fixed computation of the benchmark's own, made of the three kinds of
    work the program does: Fraction elimination of a 14 x 16 integer matrix,
    building and sorting a dict of tuples, and six products of a 300 x 300
    and a 300 x 60 float matrix.  About 10 ms on one BLAS thread.

    In trials on the class_queries workload, throughput in yardsticks varied
    between runs about half as much as throughput in seconds."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.ints = rng.integers(-3, 4, size=(14, 16)).tolist()
        self.a = rng.standard_normal((300, 300))
        self.b = rng.standard_normal((300, 60))

    def _eliminate(self) -> int:
        rows = [[Fraction(x) for x in row] for row in self.ints]
        rank = 0
        for c in range(len(rows[0])):
            pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for i in range(rank + 1, len(rows)):
                f = rows[i][c] / rows[rank][c]
                if f:
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
            rank += 1
        return rank

    def _tally(self) -> list:
        counts: dict[tuple[int, int], int] = {}
        for i in range(3000):
            key = (i % 97, i % 89)
            counts[key] = counts.get(key, 0) + i
        return sorted(counts.items())

    def _products(self):
        x = self.b
        for _ in range(6):
            x = self.a @ x
        return x

    def time(self) -> float:
        start = time.perf_counter()
        self._eliminate()
        self._tally()
        self._products()
        return time.perf_counter() - start


def fastest_share(xs: list[float]) -> list[float]:
    """The fastest 1/FAST_SHARE of ``xs`` (at least one): the same work is
    repeated, and other tenants of a shared machine only ever add time."""
    return sorted(xs)[:max(1, len(xs) // FAST_SHARE)]


class Loop:
    """Executes passes over an operation list and keeps every observation."""

    def __init__(self, cli, ops, tracer=None):
        self.cli, self.ops, self.tracer = cli, ops, tracer
        self.latencies: list[list[float]] = [[] for _ in ops]
        self.results: list[dict[tuple, int]] = [{} for _ in ops]  # (code, stdout) -> count
        self.pass_times: list[float] = []
        self.yardstick, self.yardstick_times = Yardstick(), []
        self.op_spans: list[tuple[int, int, int]] = []  # (op index, first span, end span)

    def one_pass(self) -> None:
        self.yardstick_times += [self.yardstick.time() for _ in range(YARDSTICK_REPEATS)]
        start = time.perf_counter()
        for i, op in enumerate(self.ops):
            first = self.tracer.mark() if self.tracer else 0
            latency, code, stdout = run_op(self.cli, op.argv)
            if self.tracer:
                self.op_spans.append((i, first, self.tracer.mark()))
            self.latencies[i].append(latency)
            key = (code, stdout)
            self.results[i][key] = self.results[i].get(key, 0) + 1
        self.pass_times.append(time.perf_counter() - start)

    def run_for(self, seconds: float, min_passes: int, after_pass=None) -> None:
        """Whole passes, at least ``min_passes``; after those, a pass starts
        only if a pass of the mean length still ends within ``seconds``.
        ``after_pass`` gets the share of ``seconds`` elapsed after each pass."""
        start = time.perf_counter()
        while len(self.pass_times) < min_passes or (
                time.perf_counter() - start + statistics.mean(self.pass_times) <= seconds):
            self.one_pass()
            if after_pass:
                after_pass((time.perf_counter() - start) / seconds if seconds else 1.0)


# ---------------------------------------------------------------------------
# judging
# ---------------------------------------------------------------------------

def judge_all(loops, ops, refs) -> dict:
    """Judge every distinct operation once; raises ReferenceMismatch if a
    reference is unsound.

    Each operation passes a fixed ``--seed``, so all its repetitions, traced
    or not, must print the same output.  An operation fails if any output it
    printed fails its check or if its outputs differ, so ``attempted`` and
    ``failed`` depend only on the seed, not on how many passes fit the time.
    """
    from reference import judge

    attempted = failed = hard = 0
    est_errs: list[float] = []
    details: list[str] = []
    for i, op in enumerate(ops):
        outputs = {key for loop in loops for key in loop.results[i]}
        outcomes = []
        for code, stdout in sorted(outputs, key=repr):
            try:
                out = json.loads(stdout) if code == 0 else None
            except json.JSONDecodeError:
                out = None
            outcomes.append(judge(op.check, code, out, refs))
        attempted += 1
        errs = [o.est_err for o in outcomes if o.est_err is not None]
        if errs:
            est_errs.append(max(errs))
        bad = [o.detail for o in outcomes if o.failed]
        if len(outputs) > 1:
            bad.append(f"{len(outputs)} different outputs under one seed")
        if bad:
            failed += 1
            hard += any(o.hard for o in outcomes)
            details.append(f"{op.subcommand} {op.check[1]}: {'; '.join(bad)}")
    return {"attempted": attempted, "failed": failed, "hard": hard, "est_errs": est_errs,
            "details": details[:20]}


def quality(verdict: dict) -> dict:
    errs = verdict["est_errs"]
    return {
        "failed_op_share": verdict["failed"] / max(verdict["attempted"], 1),
        "est_err_p50": statistics.median(errs) if errs else 0.0,
        "est_err_max": max(errs) if errs else 0.0,
        "estimates": len(errs),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def latency_metrics(loop: Loop) -> dict:
    """Latency over the fastest quarter of each operation's repetitions, in
    seconds and in yardsticks.  Pooling a few samples per operation gives
    the tail more samples than there are operations."""
    samples = sorted(x for lat in loop.latencies for x in fastest_share(lat))
    n = len(samples)
    beyond = min(TAIL_BEYOND, n - 1)
    yardstick_s = statistics.mean(fastest_share(loop.yardstick_times))
    seconds = {
        "ops_per_s": n / sum(samples),
        "op_latency_p50_s": statistics.median(samples),
        "op_latency_tail_s": samples[n - 1 - beyond],
    }
    return {
        "seconds": seconds,
        "yardstick_s": yardstick_s,
        "ops_per_yardstick": seconds["ops_per_s"] * yardstick_s,
        "op_latency_p50_yardsticks": seconds["op_latency_p50_s"] / yardstick_s,
        "op_latency_tail_yardsticks": seconds["op_latency_tail_s"] / yardstick_s,
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_samples": n,
        "passes": len(loop.pass_times),
    }


def layer_metrics(tracer, loop: Loop, ops) -> dict:
    import numpy as np

    import tracing

    names, dur, self_t = tracer.self_times()
    index = {name: i for i, name in enumerate(tracer.names)}
    calls = np.bincount(names, minlength=len(tracer.names))
    self_by_name = np.bincount(names, weights=self_t, minlength=len(tracer.names))
    m: dict[str, tuple[float, str]] = {}
    for fn in STAGE_FUNCTIONS:
        i = index.get(fn)
        m[f"{fn}.calls"] = (int(calls[i]) if i is not None else 0, "count")
        m[f"{fn}.self_s"] = (float(self_by_name[i]) if i is not None else 0.0, "s")
    module_of = np.array([tracer.names[i].split(".")[0] for i in range(len(tracer.names))])
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (float(self_by_name[module_of == layer].sum()), "s")

    per_sub: dict[str, list[float]] = {s: [] for s in SUBCOMMANDS}
    estimator_time = estimator_exact = 0.0
    exact_names = np.flatnonzero(module_of == "exact")
    for i, first, end in loop.op_spans:
        root = float(dur[first]) if end > first else 0.0
        per_sub.setdefault(ops[i].subcommand, []).append(root)
        if ops[i].estimator:
            estimator_time += root
            estimator_exact += float(self_t[first:end][np.isin(names[first:end], exact_names)].sum())
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.p50_s"] = (statistics.median(per_sub[sub]) if per_sub[sub] else 0.0, "s")

    c = tracer.counts
    m["exact.rank.cells"] = (int(c["exact.rank.cells"]), "count")
    m["spectra.stochastic_rank.matvec_cols"] = (int(c["spectra.stochastic_rank.matvec_cols"]), "count")
    m["spectra.oracle_share"] = (estimator_exact / estimator_time if estimator_time else 0.0, "ratio")
    requested = c["cohomology.witnesses_requested"]
    m["cohomology.witness_yield"] = (c["cohomology.witnesses_used"] / requested if requested else 0.0,
                                     "ratio")
    verdicts = c["homology.stochastic_verdicts"]
    m["homology.low_confidence_share"] = (
        c["homology.low_confidence_verdicts"] / verdicts if verdicts else 0.0, "ratio")
    return m


def emit(extra: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps(extra, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "homology_lab" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'homology_lab'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    from reference import ReferenceMismatch, References

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    from homology_lab import cli
    import_s = time.perf_counter() - start

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = SetUp(workloads.WORKLOADS[args.workload], args.seed, work)
        w = setup.workload
        loops = [Loop(cli, w.ops)]
        if args.trace:
            tracer = tracing.Tracer()
            loops.append(Loop(cli, w.ops, tracer))

            def traced_pass(_share):
                tracer.install()
                try:
                    loops[1].one_pass()
                finally:
                    tracer.restore()

            loops[0].run_for(args.seconds, 1, traced_pass)
        else:
            loops[0].run_for(args.seconds, MIN_PASSES, setup.repeat_until)
            setup_s = setup.median()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        judge_start = time.perf_counter()
        try:
            verdict = judge_all(loops, w.ops, References(w.complexes, w.chains))
        except ReferenceMismatch as exc:
            print(f"perfbench: reference check failed, aborting: {exc}", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other run is using it

    q = quality(verdict)
    extra = {"record": run_record(args.seed, import_s), "workload": args.workload,
             "quality": q, "failures": verdict["details"],
             "judge_s": time.perf_counter() - judge_start}
    if args.trace:
        metrics = layer_metrics(tracer, loops[1], w.ops)
        overhead = sum(map(min, loops[1].latencies)) - sum(map(min, loops[0].latencies))
        metrics["trace_overhead_s"] = (overhead, "s")
        for key in ("failed_op_share", "est_err_p50", "est_err_max"):
            metrics[key] = (q[key], "ratio")
        extra["passes"] = len(loops[1].pass_times)
    else:
        lat = latency_metrics(loops[0])
        extra["latency"] = {k: lat[k] for k in (
            "seconds", "yardstick_s", "tail_percentile", "tail_samples", "passes")}
        metrics = {
            "ops_per_yardstick": (lat["ops_per_yardstick"], "1/yardstick"),
            "op_latency_p50_yardsticks": (lat["op_latency_p50_yardsticks"], "yardstick"),
            "op_latency_tail_yardsticks": (lat["op_latency_tail_yardsticks"], "yardstick"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    emit(extra, verdict["hard"] == 0, verdict["attempted"], verdict["failed"], metrics)
    return 0


if __name__ == "__main__":
    for var in BLAS_ENV:  # before anything loads numpy
        os.environ[var] = str(BLAS_THREADS)
    sys.exit(main())
