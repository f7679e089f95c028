#!/usr/bin/env python3
"""Same-outputs check: run the benchmark's workload operations on two trees and
compare them byte for byte.

Usage: python scripts/compare_outputs.py BASE CHANGE [--workloads class_queries ...] [--seeds 7 11]

BASE and CHANGE are two checkouts, such as a ``git archive`` of the parent
commit and the working tree.  For each tree, workload and seed, one subprocess
builds the workload's inputs with that tree's ``perfbench/workloads.py`` in a
fresh work directory and runs every operation once, in order, in-process
through that tree's ``homology_lab.cli.run``.  Each tree's work directory is
then replaced by one placeholder, and the exit code, stdout, stderr and any
``--out`` file of each operation are compared.  Exits 1 when any operation
differs, 0 when every one is identical, and 2 when a tree cannot run one.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("rips_small", "rips_large", "class_queries")
PLACEHOLDER = "<work>"
WORKER = "import sys, compare_outputs; compare_outputs.worker(*sys.argv[1:])"
SHOWN = 5  # differing operations printed in full per workload and seed


def run_op(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except Exception as exc:  # an escaped exception is an outcome to compare too
            code = f"{type(exc).__name__}: {exc}"
    record = {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if "--out" in argv:
        target = Path(argv[argv.index("--out") + 1])
        record["out"] = target.read_text() if target.is_file() else None
    return record


def worker(tree: str, workload: str, seed: str) -> None:
    """Print the JSON records of every operation of one workload and seed, run
    by the ``homology_lab`` and ``perfbench`` first on the path (``tree``'s)."""
    import workloads
    from homology_lab import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(tree).resolve()):
        raise SystemExit(f"imported {cli.__file__}, not the tree {tree}")
    with tempfile.TemporaryDirectory() as work:
        ops = workloads.WORKLOADS[workload](int(seed), Path(work)).ops
        text = json.dumps([run_op(cli, op.argv) for op in ops])
    print(text.replace(work, PLACEHOLDER))


def records(tree: Path, workload: str, seed: int) -> list[dict]:
    path = os.pathsep.join(map(str, (tree / "src", tree / "perfbench", Path(__file__).parent)))
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", WORKER, str(tree), workload, str(seed)],
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode:
        print(f"{tree}: {workload} seed {seed} did not run:\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[7, 11])
    args = ap.parse_args(argv)
    differing = 0
    for workload in args.workloads:
        for seed in args.seeds:
            base, change = (records(tree, workload, seed) for tree in (args.base, args.change))
            if len(base) != len(change):
                print(f"{workload} seed {seed}: {len(base)} operations against {len(change)}")
                differing += 1
                continue
            diffs = [(a, b) for a, b in zip(base, change) if a != b]
            print(f"{workload} seed {seed}: {len(base) - len(diffs)} of {len(base)} operations identical")
            for a, b in diffs[:SHOWN]:
                print(f"  differs: {' '.join(a['argv'])}")
                for key in sorted(a.keys() | b.keys()):
                    if a.get(key) != b.get(key):
                        print(f"    {key}: {a.get(key)!r}\n    {' ' * len(key)}  {b.get(key)!r}")
            differing += len(diffs)
    print("identical" if not differing else f"{differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
