"""Command-line front end.

Every run resolves its full configuration (including the seed) before doing
any work and embeds it in the result JSON on stdout, so any output can be
reproduced from the printed config alone.  Diagnostics go to stderr; exit
codes: 0 success, 2 input error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import io as files
from .complexes import generate, validate_filtration
from .errors import InputError, InternalError
from .homology import (
    betti_via_tracking,
    detect_cycle_stochastic,
    sample_cycles,
    test_equivalent,
    test_trivial,
    track_classes,
)
from .cohomology import test_equivalent_cohomological
from .operators import boundary_matrix, laplacian
from .spectra import (
    EstimatorParams,
    estimate_normalized_betti,
    estimate_normalized_persistent_betti,
    exact_betti,
    exact_persistent_betti,
)

ORACLE_GATE = 500  # echo the exact answer alongside stochastic output below this size


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    inputs: tuple[str, ...]
    r: int | None
    mode: str | None
    delta: float | None
    degree: int
    probes: int
    probe_kind: str
    seed: int
    out: str | None
    emit_plot_data: bool
    stages: tuple[str, ...] | None
    points: str | None
    thresholds: str | None
    max_dim: int | None
    eta: float | None
    witnesses: int | None
    samples: int | None
    method: str | None

    def estimator_params(self) -> EstimatorParams:
        return EstimatorParams(delta=self.delta, degree=self.degree, probes=self.probes,
                               probe_kind=self.probe_kind, seed=self.seed)


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("HOMOLOGY_LAB_SEED")
    if env is not None:
        return int(env)
    return int(np.random.SeedSequence().entropy % (2**31))


def _build_config(args) -> RunConfig:
    inputs = tuple(str(p) for p in (getattr(args, "input", None),
                                    getattr(args, "chain", None),
                                    getattr(args, "chain2", None)) if p)
    return RunConfig(
        subcommand=args.command,
        inputs=inputs,
        r=getattr(args, "r", None),
        mode=getattr(args, "mode", None),
        delta=getattr(args, "delta", None),
        degree=getattr(args, "degree", 64),
        probes=getattr(args, "probes", 200),
        probe_kind=getattr(args, "probe_kind", "rademacher"),
        seed=_resolve_seed(getattr(args, "seed", None)),
        out=getattr(args, "out", None),
        emit_plot_data=bool(getattr(args, "plot_data", None)),
        stages=tuple(args.stages) if getattr(args, "stages", None) else None,
        **{name: getattr(args, name, None)
           for name in ("points", "thresholds", "max_dim", "eta", "witnesses", "samples", "method")},
    )


def _emit(result: dict, config: RunConfig) -> None:
    result["config"] = asdict(config)
    print(json.dumps(result, sort_keys=True))


def _load_any(path):
    """A complex file, or a filtration manifest when the JSON header has k1/k2."""
    head = Path(path).read_text().splitlines()[0]
    obj = json.loads(head)
    if "k1" in obj and "k2" in obj:
        return files.load_filtration(path)
    return files.load_complex(path)


def emit_plot_data(rows, out) -> str:
    """Persistence-profile CSV: one (threshold, r, betti, method) row per scale."""
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["threshold", "r", "betti", "method"])
    for threshold, r, betti, method in rows:
        writer.writerow([threshold, r, betti, method])
    text = buf.getvalue()
    if out:
        Path(out).write_text(text)
    return text


def _cmd_betti(args, config: RunConfig) -> dict:
    if getattr(args, "points", None):
        if not args.thresholds:
            raise InputError("a point-cloud sweep needs --thresholds")
        return _cmd_betti_sweep(args, config)
    if not args.input:
        raise InputError("betti needs --input (or --points with --thresholds)")
    k = files.load_complex(args.input)
    result: dict = {"r": args.r, "layer_size": k.size(args.r)}
    if args.mode == "exact":
        betti = exact_betti(k, args.r)
        result["betti"] = betti
        result["normalized"] = betti / k.size(args.r)
    else:
        est = estimate_normalized_betti(k, args.r, config.estimator_params())
        result["normalized"] = est.value
        result["estimate"] = est.value
        result["stderr"] = est.rank_estimate.stderr
        result["rescale"] = est.rescale
        if k.total_size() <= ORACLE_GATE and not args.no_oracle:
            result["exact_betti"] = exact_betti(k, args.r)
    return result


def _cmd_betti_sweep(args, config: RunConfig) -> dict:
    pts = json.loads(Path(args.points).read_text())
    thresholds = sorted(float(t) for t in args.thresholds.split(","))
    rows = []
    for t in thresholds:
        k = generate("vietoris_rips", points=pts, threshold=t, max_dim=args.max_dim)
        betti = exact_betti(k, args.r) if k.size(args.r) else 0
        rows.append((t, args.r, betti, "exact"))
    text = emit_plot_data(rows, args.plot_data)
    return {"sweep": [list(row) for row in rows], "csv": text if not args.plot_data else args.plot_data}


def _cmd_persistent_betti(args, config: RunConfig) -> dict:
    pair = files.load_filtration(args.input)
    result: dict = {"r": args.r, "layer_size": pair.k1.size(args.r)}
    if args.mode == "exact":
        betti = exact_persistent_betti(pair, args.r)
        result["persistent_betti"] = betti
        result["normalized"] = betti / pair.k1.size(args.r)
    else:
        est = estimate_normalized_persistent_betti(pair, args.r, config.estimator_params())
        result["normalized"] = est.value
        result["stderr"] = est.rank_estimate.stderr
        if pair.k2.total_size() <= ORACLE_GATE and not args.no_oracle:
            result["exact_persistent_betti"] = exact_persistent_betti(pair, args.r)
    return result


def _cmd_test_trivial(args, config: RunConfig) -> dict:
    k = files.load_complex(args.input)
    c = files.load_chain(args.chain)
    v = test_trivial(k, c, mode=args.mode, params=config.estimator_params())
    return {"answer": v.answer, "method": v.method, "confidence": "low" if v.low_confidence else "high"}


def _cmd_test_equiv(args, config: RunConfig) -> dict:
    k = files.load_complex(args.input)
    c1 = files.load_chain(args.chain)
    c2 = files.load_chain(args.chain2)
    if args.method == "cohomology":
        verdict = test_equivalent_cohomological(k, c1, c2, witnesses=args.witnesses,
                                                seed=config.seed)
        out = {"answer": verdict.equivalent, "method": "cohomology",
               "confidence": "high" if not verdict.equivalent else "probabilistic",
               "witnesses_used": verdict.witnesses_used}
        if args.dump_witness and verdict.witness is not None:
            Path(args.dump_witness).write_text(
                json.dumps([float(x) for x in verdict.witness.values])
            )
        return out
    v = test_equivalent(k, c1, c2, mode=args.mode, params=config.estimator_params())
    return {"answer": v.answer, "method": v.method, "confidence": "low" if v.low_confidence else "high"}


def _cmd_detect_cycle(args, config: RunConfig) -> dict:
    k = files.load_complex(args.input)
    c = files.load_chain(args.chain)
    verdict = detect_cycle_stochastic(k, c, eta=args.eta, seed=config.seed)
    return {"answer": verdict, "method": "stochastic", "eta": args.eta}


def _cmd_track(args, config: RunConfig) -> dict:
    stages = [files.load_complex(p) for p in args.stages]
    chains = [files.load_chain(args.chain)]
    if args.chain2:
        chains.append(files.load_chain(args.chain2))
    report = track_classes(stages, chains, mode=args.mode, params=config.estimator_params())
    return {
        "kind": report.kind,
        "stages": [
            {"stage": s.stage, "answer": s.answer, "method": s.method,
             "confidence": "low" if s.low_confidence else "high"}
            for s in report.stages
        ],
    }


def _cmd_betti_track(args, config: RunConfig) -> dict:
    k = files.load_complex(args.input)
    cycles = sample_cycles(k, args.r, s=args.samples, seed=config.seed)
    value = betti_via_tracking(k, args.r, cycles, mode=args.mode,
                               params=config.estimator_params())
    result = {"betti_lower_bound": value, "samples": args.samples, "r": args.r}
    if k.total_size() <= ORACLE_GATE and not args.no_oracle:
        result["exact_betti"] = exact_betti(k, args.r)
    return result


def _cmd_gen(args, config: RunConfig) -> dict:
    kwargs = {}
    if args.m is not None:
        kwargs["m"] = args.m
    if args.points:
        kwargs["points"] = json.loads(Path(args.points).read_text())
        kwargs["threshold"] = args.threshold
        kwargs["max_dim"] = args.max_dim
    k = generate(args.kind, seed=config.seed, **kwargs)
    files.save_complex(k, args.out)
    return {"kind": args.kind, "out": args.out,
            "sizes": {str(r): k.size(r) for r in sorted(k.layers)}}


def _cmd_dump_operator(args, config: RunConfig) -> dict:
    k = files.load_complex(args.input)
    if args.operator == "boundary":
        m = boundary_matrix(k, args.r).entries
    else:
        m = laplacian(k, args.r)
    files.dump_operator(m, args.dump_operator)
    return {"operator": args.operator, "r": args.r, "path": args.dump_operator,
            "shape": list(m.shape)}


def _add_estimator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--degree", type=int, default=64)
    p.add_argument("--probes", type=int, default=200)
    p.add_argument("--probe-kind", dest="probe_kind", default="rademacher",
                   choices=["rademacher", "hadamard_column"])
    p.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="homology-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", help="Betti number of a complex (exact or estimated)")
    p.add_argument("--input", help="complex file (JSON lines)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "stochastic"], default="exact")
    p.add_argument("--no-oracle", action="store_true")
    p.add_argument("--points", help="JSON point cloud for a threshold sweep")
    p.add_argument("--thresholds", help="comma-separated sweep thresholds")
    p.add_argument("--max-dim", dest="max_dim", type=int, default=2)
    p.add_argument("--plot-data", dest="plot_data", help="write sweep CSV here")
    _add_estimator_flags(p)

    p = sub.add_parser("persistent-betti", help="persistent Betti number of a filtration")
    p.add_argument("--input", required=True, help="filtration manifest")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "stochastic"], default="exact")
    p.add_argument("--no-oracle", action="store_true")
    _add_estimator_flags(p)

    p = sub.add_parser("test-trivial", help="is a cycle homologous to zero?")
    p.add_argument("--input", required=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--mode", choices=["exact", "stochastic"], default="exact")
    _add_estimator_flags(p)

    p = sub.add_parser("test-equiv", help="are two cycles homologous?")
    p.add_argument("--input", required=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--chain2", required=True)
    p.add_argument("--mode", choices=["exact", "stochastic"], default="exact")
    p.add_argument("--method", choices=["homology", "cohomology"], default="homology")
    p.add_argument("--witnesses", type=int, default=8)
    p.add_argument("--dump-witness", dest="dump_witness")
    _add_estimator_flags(p)

    p = sub.add_parser("detect-cycle", help="is a chain a cycle? (one-sided test)")
    p.add_argument("--input", required=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--eta", type=float, default=0.1)
    _add_estimator_flags(p)

    p = sub.add_parser("track", help="follow cycles through a filtration chain")
    p.add_argument("--stages", nargs="+", required=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--chain2")
    p.add_argument("--mode", choices=["exact", "stochastic"], default="exact")
    _add_estimator_flags(p)

    p = sub.add_parser("betti-track", help="Betti lower bound from sampled cycles")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--mode", choices=["exact", "stochastic"], default="exact")
    p.add_argument("--no-oracle", action="store_true")
    _add_estimator_flags(p)

    p = sub.add_parser("gen", help="write a generated complex to a file")
    p.add_argument("--kind", required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--points")
    p.add_argument("--threshold", type=float)
    p.add_argument("--max-dim", dest="max_dim", type=int, default=2)
    p.add_argument("--out", required=True)
    _add_estimator_flags(p)

    p = sub.add_parser("dump-operator", help="export an operator as MatrixMarket")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--operator", choices=["boundary", "laplacian"], default="boundary")
    p.add_argument("--dump-operator", dest="dump_operator", required=True)
    _add_estimator_flags(p)

    return parser


_HANDLERS = {
    "betti": _cmd_betti,
    "persistent-betti": _cmd_persistent_betti,
    "test-trivial": _cmd_test_trivial,
    "test-equiv": _cmd_test_equiv,
    "detect-cycle": _cmd_detect_cycle,
    "track": _cmd_track,
    "betti-track": _cmd_betti_track,
    "gen": _cmd_gen,
    "dump-operator": _cmd_dump_operator,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    config = _build_config(args)
    try:
        result = _HANDLERS[args.command](args, config)
    except InternalError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 3
    except (InputError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 2
    _emit(result, config)
    return 0


def main() -> None:
    sys.exit(run())
