#!/usr/bin/env python3
"""Start-up check: time ``import homology_lab.cli`` on two trees in alternating
fresh interpreters.

Usage: python scripts/import_time.py BASE CHANGE [--rounds N]

BASE and CHANGE are two checkouts, such as a ``git archive`` of the parent
commit and the working tree.  Each round starts one interpreter per tree, with
that tree's ``src/`` on the path and BLAS at one thread, as the benchmark's
``setup_s`` probe does; odd rounds start BASE first, even rounds CHANGE.  Each
interpreter times the import alone and lists the ``scipy`` modules it loaded.
Prints, per tree, the median import time, the rounds it won (ties count for
neither) and the scipy modules loaded.  Exits 2 when a tree cannot run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PROBE = ("import sys, time; t = time.perf_counter(); import homology_lab.cli; "
         "t = time.perf_counter() - t; import json; "
         "print(json.dumps([t, homology_lab.cli.__file__, "
         "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHOWN_DEPTH = 2  # scipy modules printed by name: scipy and its direct subpackages


def probe(tree: Path) -> tuple[float, list[str]]:
    """Import time of the CLI in a fresh interpreter on ``tree``, and the scipy
    modules it loaded."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **dict.fromkeys(BLAS_ENV, "1"))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=str(tree),
                          capture_output=True, text=True, check=False, timeout=120)
    if proc.returncode:
        print(f"{tree}: the import did not run:\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    seconds, path, modules = json.loads(proc.stdout.splitlines()[-1])
    if not Path(path).resolve().is_relative_to(tree.resolve()):
        print(f"{tree}: imported {path}, not this tree's", file=sys.stderr)
        sys.exit(2)
    return seconds, modules


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--rounds", type=int, default=8)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    trees = {"base": args.base, "change": args.change}
    times = {side: [] for side in trees}
    loaded = {side: set() for side in trees}
    for i in range(args.rounds):
        for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
            seconds, modules = probe(trees[side])
            times[side].append(seconds)
            loaded[side].update(modules)
    for side, other in (("base", "change"), ("change", "base")):
        won = sum(a < b for a, b in zip(times[side], times[other]))
        shown = sorted(m for m in loaded[side] if m.count(".") < SHOWN_DEPTH)
        names = ", ".join(shown + ["..."] * (len(shown) < len(loaded[side])))
        names = f" ({names})" if names else ""
        print(f"{side}: median {statistics.median(times[side]):.3f} s, "
              f"won {won} of {args.rounds} rounds, {len(loaded[side])} scipy modules{names}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
