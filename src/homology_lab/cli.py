"""Command-line front end.

The parser is built once, at import.  Its parsed namespace is the run
record: ``run`` writes the resolved seed back into it, a cohomological
``test-equiv`` its witness count, and every result JSON on stdout embeds it
as ``config``, one key per flag (dashes become underscores) plus
``subcommand``.  So every output replays from its own JSON, and a run
rejects any flag it would not read but ``--seed``, which every subcommand
records.  Given ``--dump-witness``, a cohomological ``test-equiv`` names the
file it wrote as ``witness_file``, or null when no witness separated the
cycles.  The seed draws a stochastic ``betti``'s and ``persistent-betti``'s
harmonic start, ``betti-track``'s samples, and random trials; stochastic
class verdicts draw nothing.  One record serves both Betti answers: the
exact value, or the estimate, its ``confidence`` and the exact echo, which
``--no-oracle`` drops there and in ``betti-track``.  ``gen`` hands every
flag to ``generate``, which knows what each kind reads.  Diagnostics go to
stderr; exit codes: 0 success, 2 input error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io as _io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import io as files
from .complexes import _check_rips, _squared_distances, generate
from .errors import InputError, InternalError
from .homology import (
    _betti_via_tracking,
    detect_cycle_stochastic,
    sample_cycles,
    test_equivalent,
    test_trivial,
    track_classes,
)
from .cohomology import WITNESSES, test_equivalent_cohomological
from .operators import boundary_matrix, laplacian
from .spectra import (
    _sweep_betti,
    estimate_normalized_betti,
    estimate_normalized_persistent_betti,
    exact_betti,
    exact_persistent_betti,
)

ORACLE_GATE = 500  # largest |S_r| whose stochastic answers are echoed with the exact one


def _resolve_seed(value: int | None) -> int:
    text = os.environ.get("HOMOLOGY_LAB_SEED") if value is None else str(value)
    if text is None:
        return int(np.random.SeedSequence().entropy % (2**31))
    with contextlib.suppress(ValueError):
        if (seed := int(text)) >= 0:
            return seed
    name = "HOMOLOGY_LAB_SEED" if value is None else "--seed"
    raise InputError(f"{name} must be a non-negative integer, not {text!r}")


def _echo_oracle(args, layer_size: int) -> bool:
    """Whether the output also carries the exact answer."""
    return layer_size <= ORACLE_GATE and not args.no_oracle


def _confidence(low: bool) -> str:
    return "low" if low else "high"


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


def _betti_record(args, layer_size: int, key: str, exact, estimate) -> dict:
    """A Betti answer's record; the thunks ``exact`` and ``estimate`` run only on its route."""
    result: dict = {"r": args.r, "layer_size": layer_size}
    if args.mode == "exact":
        if args.no_oracle:
            raise InputError("--no-oracle drops a stochastic answer's exact echo; "
                             "an exact run has none")
        result[key] = exact()
        result["normalized"] = result[key] / layer_size
    else:
        est = estimate()
        result.update(normalized=est.value, confidence=_confidence(est.low_confidence))
        if _echo_oracle(args, layer_size):
            result["exact_" + key] = exact()
    return result


def _cmd_betti(args) -> dict:
    if args.points:
        return _cmd_betti_sweep(args)
    if not args.input:
        raise InputError("betti needs --input (or --points with --thresholds)")
    if args.thresholds or args.plot_data or args.max_dim != 2:
        raise InputError("--thresholds, --plot-data and --max-dim belong to a --points sweep")
    k = files.load_complex(args.input)
    return _betti_record(args, k.size(args.r), "betti", lambda: exact_betti(k, args.r),
                         lambda: estimate_normalized_betti(k, args.r, seed=args.seed))


def _cmd_betti_sweep(args) -> dict:
    if args.input or args.mode != "exact" or args.no_oracle:
        raise InputError("a point-cloud sweep is exact and reads --points only; "
                         "drop --input, --mode and --no-oracle")
    if not args.thresholds:
        raise InputError("a point-cloud sweep needs --thresholds")
    if args.r < 0:
        raise InputError(f"--r must be a non-negative dimension, not {args.r}")
    try:
        thresholds = sorted(float(t) for t in args.thresholds.split(","))
    except ValueError:
        raise InputError("--thresholds must be comma-separated numbers, "
                         f"not {args.thresholds!r}") from None
    for t in thresholds:
        _check_rips(t, args.max_dim)
    if args.r > args.max_dim:
        raise InputError(f"--r {args.r} is above --max-dim {args.max_dim}: "
                         "a sweep builds no simplices of that dimension")
    pts = json.loads(Path(args.points).read_text())
    k = generate("vietoris_rips", points=pts, threshold=thresholds[-1], max_dim=args.max_dim)
    d2 = _squared_distances(np.asarray(pts, dtype=float))
    rows = [(t, args.r, betti, "exact")
            for t, betti in zip(thresholds, _sweep_betti(k, d2, args.r, thresholds))]
    text = emit_plot_data(rows, args.plot_data)
    return {"sweep": [list(row) for row in rows], "csv": text if not args.plot_data else args.plot_data}


def _cmd_persistent_betti(args) -> dict:
    pair = files.load_filtration(args.input)
    return _betti_record(args, pair.k1.size(args.r), "persistent_betti",
                         lambda: exact_persistent_betti(pair, args.r),
                         lambda: estimate_normalized_persistent_betti(pair, args.r, seed=args.seed))


def _verdict(v) -> dict:
    return {"answer": v.answer, "method": v.method, "confidence": _confidence(v.low_confidence)}


def _cmd_test_trivial(args) -> dict:
    k = files.load_complex(args.input)
    c = files.load_chain(args.chain)
    return _verdict(test_trivial(k, c, mode=args.mode))


def _cmd_test_equiv(args) -> dict:
    k = files.load_complex(args.input)
    c1 = files.load_chain(args.chain)
    c2 = files.load_chain(args.chain2)
    if args.method == "cohomology":
        if args.mode != "exact":
            raise InputError("--method cohomology is exact: drop --mode stochastic")
        if args.witnesses is None:
            args.witnesses = WITNESSES
        verdict = test_equivalent_cohomological(k, c1, c2, witnesses=args.witnesses,
                                                seed=args.seed)
        out = {"answer": verdict.equivalent, "method": "cohomology",
               "confidence": "high" if not verdict.equivalent else "probabilistic",
               "witnesses_used": verdict.witnesses_used}
        if args.dump_witness:  # the file, or null when no cocycle separated the pair
            out["witness_file"] = None
            if verdict.witness is not None:
                Path(args.dump_witness).write_text(json.dumps(verdict.witness.values.tolist()))
                out["witness_file"] = args.dump_witness
        return out
    if args.witnesses is not None or args.dump_witness:
        raise InputError("--witnesses and --dump-witness belong to --method cohomology")
    return _verdict(test_equivalent(k, c1, c2, mode=args.mode))


def _cmd_detect_cycle(args) -> dict:
    k = files.load_complex(args.input)
    c = files.load_chain(args.chain)
    verdict = detect_cycle_stochastic(k, c, eta=args.eta, seed=args.seed)
    return {"answer": verdict, "method": "stochastic", "eta": args.eta}


def _cmd_track(args) -> dict:
    stages = [files.load_complex(p) for p in args.stages]
    chains = [files.load_chain(args.chain)]
    if args.chain2:
        chains.append(files.load_chain(args.chain2))
    report = track_classes(stages, chains, mode=args.mode)
    return {"kind": report.kind,
            "stages": [{"stage": i, **_verdict(s)} for i, s in enumerate(report.stages, start=1)]}


def _cmd_betti_track(args) -> dict:
    k = files.load_complex(args.input)
    cycles = sample_cycles(k, args.r, s=args.samples, seed=args.seed)
    value, low = _betti_via_tracking(k, args.r, cycles, args.mode)
    result = {"betti_lower_bound": value, "samples": args.samples, "r": args.r}
    if args.mode == "stochastic":
        result["confidence"] = _confidence(low)
    if _echo_oracle(args, k.size(args.r)):
        result["exact_betti"] = exact_betti(k, args.r)
    return result


def _cmd_gen(args) -> dict:
    points = json.loads(Path(args.points).read_text()) if args.points else None
    k = generate(args.kind, m=args.m, points=points, threshold=args.threshold,
                 max_dim=args.max_dim)
    files.save_complex(k, args.out)
    return {"kind": args.kind, "out": args.out,
            "sizes": {str(r): k.size(r) for r in range(k.dim() + 1)}}


def _cmd_dump_operator(args) -> dict:
    k = files.load_complex(args.input)
    if args.operator == "boundary":
        m = boundary_matrix(k, args.r)
    else:
        m = laplacian(k, args.r)
    files.dump_operator(m, args.dump_operator)
    return {"operator": args.operator, "r": args.r, "path": args.dump_operator,
            "shape": list(m.shape)}


def _build_parser() -> argparse.ArgumentParser:
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int)
    moded = argparse.ArgumentParser(add_help=False, parents=[seeded])
    moded.add_argument("--mode", choices=["exact", "stochastic"], default="exact")

    parser = argparse.ArgumentParser(prog="homology-lab")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, summary, parent=moded):
        return sub.add_parser(name, help=summary, parents=[parent])

    p = add("betti", "Betti number of a complex (exact or estimated)")
    p.add_argument("--input", help="complex file (JSON lines)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--no-oracle", action="store_true")
    p.add_argument("--points", help="JSON point cloud for a threshold sweep")
    p.add_argument("--thresholds", help="comma-separated sweep thresholds")
    p.add_argument("--max-dim", type=int, default=2)
    p.add_argument("--plot-data", help="write sweep CSV here")

    p = add("persistent-betti", "persistent Betti number of a filtration")
    p.add_argument("--input", required=True, help="filtration manifest")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--no-oracle", action="store_true")

    p = add("test-trivial", "is a cycle homologous to zero?")
    p.add_argument("--input", required=True)
    p.add_argument("--chain", required=True)

    p = add("test-equiv", "are two cycles homologous?")
    p.add_argument("--input", required=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--chain2", required=True)
    p.add_argument("--method", choices=["homology", "cohomology"], default="homology")
    p.add_argument("--witnesses", type=int)
    p.add_argument("--dump-witness")

    p = add("detect-cycle", "is a chain a cycle? (one-sided test)", seeded)
    p.add_argument("--input", required=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--eta", type=float, default=0.1)

    p = add("track", "follow cycles through a filtration chain")
    p.add_argument("--stages", nargs="+", required=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--chain2")

    p = add("betti-track", "Betti lower bound from sampled cycles")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--no-oracle", action="store_true")

    p = add("gen", "write a generated complex to a file", seeded)
    p.add_argument("--kind", required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--points")
    p.add_argument("--threshold", type=float)
    p.add_argument("--max-dim", type=int, default=2)
    p.add_argument("--out", required=True)

    p = add("dump-operator", "export an operator as MatrixMarket", seeded)
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--operator", choices=["boundary", "laplacian"], default="boundary")
    p.add_argument("--dump-operator", required=True)

    return parser


PARSER = _build_parser()

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
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.seed = _resolve_seed(args.seed)
        result = _HANDLERS[args.subcommand](args)
    except (InternalError, InputError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 3 if isinstance(exc, InternalError) else 2
    result["config"] = vars(args)
    print(json.dumps(result, sort_keys=True))
    return 0


def main() -> None:
    sys.exit(run())
