"""Spans around homology_lab's public functions, installed from outside.

Every public function defined in one of the layer modules is replaced, in
every layer module that binds it (including names re-bound by
``from .x import y``), by a wrapper that records a span: name, start, end
and parent.  Spans are named after the defining module, so a call through
``homology.exact_rank`` counts as ``spectra.exact_rank``.  Work counters are
read from arguments and results at the same wrappers.  ``restore`` puts
every original binding back.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "homology_lab"
LAYERS = ("cli", "io", "complexes", "operators", "exact", "spectra", "homology", "cohomology")


def _shape(m) -> tuple[int, int]:
    if hasattr(m, "shape"):
        return m.shape
    return (len(m), len(m[0]) if len(m) else 0)


def _count_rank(counts, args, result):
    rows, cols = _shape(args["m"])
    counts["exact.rank.cells"] += rows * cols


def _count_probes(counts, args, result):
    counts["spectra.stochastic_rank.matvec_cols"] += args["n_v"] * args["filt"].degree


def _count_witnesses(counts, args, result):
    counts["cohomology.witnesses_requested"] += args["witnesses"]
    counts["cohomology.witnesses_used"] += result.witnesses_used


def _count_confidence(counts, args, result):
    if args["mode"] == "stochastic":
        counts["homology.stochastic_verdicts"] += 1
        counts["homology.low_confidence_verdicts"] += bool(result.low_confidence)


HOOKS = {
    "exact.rank": _count_rank,
    "spectra.stochastic_rank": _count_probes,
    "cohomology.test_equivalent_cohomological": _count_witnesses,
    "homology.test_trivial": _count_confidence,
}


class Tracer:
    """In-memory span recorder; spans live in flat arrays indexed by span id."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # kept across installs, so names stay unique

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        stack, name_ids, parents = self._stack, self.name_id, self.parent
        starts, ends, counts, clock = self.start, self.end, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(counts, bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        wrappers = self._wrappers
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if obj.__module__ != f"{PACKAGE}.{home}" or home not in self.modules:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, f"{home}.{obj.__name__}")
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        leftover = [f"{m.__name__}.{a}" for m, a, _ in self._patches
                    if getattr(getattr(m, a), "__wrapped__", None) is not None]
        self._patches.clear()
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")

    def mark(self) -> int:
        """Id of the next span; ops bracket their spans with two marks."""
        return len(self.start)

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name ids, durations, self times): self time is a span's duration
        minus the durations of its direct children."""
        names = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parents = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = np.frombuffer(self.end).copy() - np.frombuffer(self.start).copy()
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        return names, dur, dur - child
