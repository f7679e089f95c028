"""Seeded inputs and operation lists for the three workloads.

Point clouds, complex files (the benchmark's own Vietoris-Rips construction),
filtration manifests and chain files are all written here; the program only
ever reads them through its CLI.  Each operation is the argv of one
``homology_lab.cli.run`` call plus the reference check that judges it.

Thresholds are placed between two consecutive squared pair distances and
chosen for an exact edge count (or, in rips_small, an exact triangle count,
with clouds redrawn until the edge count is near its typical value too), so
the size of every complex is nearly the same for every seed and the cost of
an operation depends on the seed mostly through the shape of the cloud.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import ChainSpec, Complex

ORACLE_GATE = 500  # the CLI echoes the exact answer at or below this total size


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: tuple
    estimator: bool = False  # runs the stochastic estimator

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    ops: list[Op] = field(default_factory=list)
    complexes: dict[str, Complex] = field(default_factory=dict)
    chains: dict[str, ChainSpec] = field(default_factory=dict)


def squared_distances(pts: np.ndarray) -> np.ndarray:
    # Same formula as the program's Rips builder, so comparisons round alike.
    return ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)


def edge_threshold(d2: np.ndarray, m: int) -> float:
    """A threshold admitting exactly the m shortest pairs."""
    u = np.sort(d2[np.triu_indices(d2.shape[0], 1)])
    while u[m] - u[m - 1] <= 1e-9 * u[m]:
        m += 1
    return float(np.sqrt(0.5 * (u[m - 1] + u[m])))


def rips_layers(d2: np.ndarray, threshold: float) -> dict[int, list[tuple]]:
    """Flag complex up to dimension 2, each layer in lexicographic order."""
    n = d2.shape[0]
    close = d2 < threshold ** 2
    np.fill_diagonal(close, False)
    nbrs = [set(np.flatnonzero(close[i]).tolist()) for i in range(n)]
    edges = [(i, j) for i in range(n) for j in sorted(nbrs[i]) if j > i]
    tris = [(i, j, k) for i, j in edges for k in sorted(nbrs[i] & nbrs[j]) if k > j]
    layers = {0: [(i,) for i in range(n)], 1: edges, 2: tris}
    return {r: v for r, v in layers.items() if v}


def write_complex(path: Path, layers: dict[int, list[tuple]]) -> Complex:
    lines = [json.dumps({"n": len(layers[0])})]
    lines += [json.dumps({"s": list(s)}) for r in sorted(layers) for s in layers[r]]
    path.write_text("\n".join(lines) + "\n")
    return Complex(layers=layers, path=str(path))


def write_chain(path: Path, k: Complex, coeffs: dict[tuple, int], cid: str) -> ChainSpec:
    index = {e: i for i, e in enumerate(k.layers[1], start=1)}
    rows = sorted([index[e], c, 1] for e, c in coeffs.items() if c)
    path.write_text(json.dumps({"r": 1, "coeffs": rows}) + "\n")
    return ChainSpec(complex_id=cid, coeffs={e: c for e, c in coeffs.items() if c},
                     path=str(path))


def _seed_arg(rng) -> str:
    return str(int(rng.integers(2 ** 31)))


# ---------------------------------------------------------------------------
# rips_small: desk-scale Betti numbers, all under the oracle gates
# ---------------------------------------------------------------------------

SMALL_SIZES = (20, 25, 30)  # a pass of about 1.5 s, so each operation repeats in many passes
SMALL_TRIANGLE_RATIOS = (0.5, 1.3, 2.5)  # triangles per point at each threshold of the ladder
SMALL_EDGE_RATIOS = (1.15, 1.8, 2.45)  # typical edges per point at those thresholds
SMALL_EDGE_SLACK = 0.03  # accepted share of deviation from the typical edge count
SMALL_MAX_DRAWS = 1000  # a seed finding no fit would abort the run


def triangle_threshold(d2: np.ndarray, triangles: int) -> float:
    """The smallest edge-count threshold whose flag complex has ``triangles``
    triangles.  Fixing the top layer keeps the cost of exact elimination,
    which grows with the cube of a layer's size, steady across seeds."""
    n = d2.shape[0]
    iu = np.triu_indices(n, 1)
    adj = np.zeros((n, n), dtype=bool)
    count = 0
    for m, p in enumerate(np.argsort(d2[iu], kind="stable"), start=1):
        i, j = int(iu[0][p]), int(iu[1][p])
        count += int(np.count_nonzero(adj[i] & adj[j]))
        adj[i, j] = adj[j, i] = True
        if count >= triangles:
            return edge_threshold(d2, m)
    raise ValueError(f"a {n}-point cloud has fewer than {triangles} triangles")


def small_cloud(rng, n: int) -> tuple[np.ndarray, list[float]]:
    """A uniform cloud and its ladder thresholds, drawn until every rung has
    its fixed triangle count and an edge count within SMALL_EDGE_SLACK (plus
    one edge) of the typical one.

    Exact elimination costs grow with both layers, so fixing both keeps the
    work of an operation steady across seeds.  About one draw in ten fits."""
    for _ in range(SMALL_MAX_DRAWS):
        pts = rng.random((n, 2))
        d2 = squared_distances(pts)
        pairs = d2[np.triu_indices(n, 1)]
        thresholds = []
        for tri, edge in zip(reversed(SMALL_TRIANGLE_RATIOS), reversed(SMALL_EDGE_RATIOS)):
            t = triangle_threshold(d2, round(tri * n))  # largest rung first, the costliest
            if abs(np.count_nonzero(pairs < t * t) - edge * n) > SMALL_EDGE_SLACK * edge * n + 1:
                break
            thresholds.append(t)
        else:
            return pts, thresholds[::-1]
    raise ValueError(f"no {n}-point cloud in {SMALL_MAX_DRAWS} draws fits the ladder")


def rips_small(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    w = Workload()

    def op(args, check, estimator=False):
        w.ops.append(Op(tuple(args) + ("--seed", _seed_arg(rng)), check, estimator))

    for n in SMALL_SIZES:
        pts, thresholds = small_cloud(rng, n)
        d2 = squared_distances(pts)
        pts_path = work / f"small{n}.json"
        pts_path.write_text(json.dumps(pts.tolist()))
        levels = []
        for t in thresholds:
            layers = rips_layers(d2, t)
            if sum(map(len, layers.values())) > ORACLE_GATE:
                raise ValueError(f"a {n}-point complex exceeds the oracle gate")
            cid = f"small{n}_{len(levels)}"
            w.complexes[cid] = write_complex(work / f"{cid}.jsonl", layers)
            levels.append((t, cid))
        levels.sort()
        for _, cid in levels:
            k = w.complexes[cid]
            for r in (0, 1, 2):
                if k.size(r):
                    op(("betti", "--input", k.path, "--r", str(r), "--mode", "exact"),
                       ("betti", cid, r, "exact"))
            op(("betti", "--input", k.path, "--r", "1", "--mode", "stochastic"),
               ("betti", cid, 1, "stochastic"), True)
        for (_, c1), (_, c2) in zip(levels, levels[1:]):
            manifest = work / f"{c1}_{c2}.json"
            manifest.write_text(json.dumps({"k1": f"{c1}.jsonl", "k2": f"{c2}.jsonl"}))
            for mode in ("exact", "stochastic"):
                op(("persistent-betti", "--input", str(manifest), "--r", "1", "--mode", mode),
                   ("pbetti", c1, c2, 1, mode), mode == "stochastic")
        op(("betti", "--r", "1", "--points", str(pts_path),
            "--thresholds", ",".join(repr(t) for t, _ in levels)),
           ("sweep", tuple(cid for _, cid in levels), 1))
    return w


# ---------------------------------------------------------------------------
# rips_large: gen + default stochastic beta_1 above the oracle gates
# ---------------------------------------------------------------------------

LARGE_SIZES = (128, 132, 136, 140)  # |S1| = 4n, so 512 to 560 edges, just above the gates
LARGE_EDGES_PER_POINT = 4
LARGE_BETTI_REPEATS = 3  # estimates per complex, each with its own probe seed; with
# three times as many estimates as gen calls, p50 and the tail fall among the estimates


def rips_large(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    w = Workload()
    for n in LARGE_SIZES:
        pts = rng.random((n, 2))
        d2 = squared_distances(pts)
        t = edge_threshold(d2, LARGE_EDGES_PER_POINT * n)
        cid = f"large{n}"
        k = w.complexes[cid] = write_complex(work / f"{cid}.jsonl", rips_layers(d2, t))
        pts_path = work / f"{cid}.json"
        pts_path.write_text(json.dumps(pts.tolist()))
        out = work / f"{cid}_gen.jsonl"
        w.ops.append(Op(("gen", "--kind", "vietoris_rips", "--points", str(pts_path),
                         "--threshold", repr(t), "--out", str(out), "--seed", _seed_arg(rng)),
                        ("gen", cid, str(out))))
        for _ in range(LARGE_BETTI_REPEATS):
            w.ops.append(Op(("betti", "--input", k.path, "--r", "1", "--mode", "stochastic",
                             "--seed", _seed_arg(rng)), ("betti", cid, 1, "stochastic"), True))
    return w


# ---------------------------------------------------------------------------
# class_queries: many small homology-class questions on each complex
# ---------------------------------------------------------------------------

CLASS_SIZES = (20, 25)  # a pass of about 1.4 s, so each operation repeats in many passes
CLASS_EDGES_PER_POINT = 2.0  # stage 1: nearest and second-nearest ring neighbours
CLASS_STAGE_STEP = 0.4  # later stages add this many edges per point
CLASS_SAMPLES = 4
RINGS = ((1.0, (0.0, 0.0)), (0.7, (2.6, 0.0)))  # (radius, centre); ring A gets 60% of points


def two_rings(rng, n: int) -> np.ndarray:
    """Noisy samples of two disjoint circles, so beta_1 = 2 at ring scale."""
    parts = []
    counts = (round(0.6 * n), n - round(0.6 * n))
    for count, (radius, (cx, cy)) in zip(counts, RINGS):
        angle = (np.arange(count) + rng.uniform(-0.15, 0.15, count)) * 2 * np.pi / count
        rad = radius * (1 + rng.normal(0, 0.02, count))
        parts.append(np.c_[cx + rad * np.cos(angle), cy + rad * np.sin(angle)])
    return np.vstack(parts)


def _spanning_parents(n: int, edges: list[tuple]) -> dict[int, int | None]:
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent: dict[int, int | None] = {}
    for root in range(n):
        if root not in parent:
            parent[root] = None
            queue = [root]
            for v in queue:
                for u in adj[v]:
                    if u not in parent:
                        parent[u] = v
                        queue.append(u)
    return parent


def fundamental_cycles(n: int, edges: list[tuple]) -> list[list[int]]:
    """Closed vertex walks, one per non-tree edge of a BFS spanning forest."""
    parent = _spanning_parents(n, edges)

    def up(v):
        path = [v]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    walks = []
    for a, b in edges:
        if parent[a] == b or parent[b] == a:
            continue
        pa, pb = up(a), up(b)
        lca = next(v for v in pb if v in set(pa))
        walks.append([lca] + pa[:pa.index(lca)][::-1] + pb[:pb.index(lca)])
    return walks


def walk_chain(walk: list[int]) -> dict[tuple, int]:
    coeffs: dict[tuple, int] = {}
    for x, y in zip(walk, walk[1:] + walk[:1]):
        e, sign = ((x, y), 1) if x < y else ((y, x), -1)
        coeffs[e] = coeffs.get(e, 0) + sign
    return coeffs


def winding(pts: np.ndarray, walk: list[int], centre) -> int:
    """Signed number of turns a closed walk makes around ``centre``."""
    angles = np.arctan2(pts[walk, 1] - centre[1], pts[walk, 0] - centre[0])
    steps = np.diff(np.r_[angles, angles[:1]])
    return int(round(float(np.sum((steps + np.pi) % (2 * np.pi) - np.pi)) / (2 * np.pi)))


def _combine(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return out


def class_chains(pts: np.ndarray, edges: list[tuple], rng) -> dict[str, dict[tuple, int]]:
    """Cycles with a fixed mix of classes.

    f0 and f1 wind once around ring A and ring B, oriented positively; f2 and
    f3 wind around neither.  Sums and differences give pairs that are
    equivalent (f0 ~ f0 + f2, f1 ~ f1 - f3) and inequivalent (f0 vs f1,
    f0 + f1 vs f1).  ``path`` is an open two-edge chain, not a cycle.
    """
    walks = fundamental_cycles(len(pts), edges)
    order = rng.permutation(len(walks))
    turns = [[winding(pts, walks[i], c) for _, c in RINGS] for i in order]
    chains = {}
    for ring, name in ((0, "f0"), (1, "f1")):
        j = max(range(len(order)), key=lambda j: abs(turns[j][ring]))
        sign = 1 if turns[j][ring] >= 0 else -1
        chains[name] = {e: sign * c for e, c in walk_chain(walks[order[j]]).items()}
    flat = [walks[order[j]] for j in range(len(order)) if not any(turns[j])]
    chains["f2"], chains["f3"] = walk_chain(flat[0]), walk_chain(flat[1 % len(flat)])
    chains["s02"] = _combine(chains["f0"], chains["f2"], 1)
    chains["d13"] = _combine(chains["f1"], chains["f3"], -1)
    chains["s01"] = _combine(chains["f0"], chains["f1"], 1)
    a = edges[0]
    chains["path"] = {a: 1, next(e for e in edges[1:] if set(e) & set(a)): 1}
    return chains


def class_queries(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    w = Workload()

    def op(args, check, estimator=False):
        w.ops.append(Op(tuple(args) + ("--seed", _seed_arg(rng)), check, estimator))

    for n in CLASS_SIZES:
        pts = two_rings(rng, n)
        d2 = squared_distances(pts)
        m = round(CLASS_EDGES_PER_POINT * n)
        stage_ids = []
        for s in range(3):
            cid = f"class{n}_{s}"
            t = edge_threshold(d2, m + round(s * CLASS_STAGE_STEP * n))
            w.complexes[cid] = write_complex(work / f"{cid}.jsonl", rips_layers(d2, t))
            stage_ids.append(cid)
        base = stage_ids[0]
        k = w.complexes[base]
        ids, path = {}, {}
        for name, coeffs in class_chains(pts, k.layers[1], rng).items():
            ids[name] = f"{base}_{name}"
            w.chains[ids[name]] = write_chain(work / f"{ids[name]}.json", k, coeffs, base)
            path[name] = w.chains[ids[name]].path

        for name in ("f0", "f1", "f2", "s01"):
            op(("test-trivial", "--input", k.path, "--chain", path[name], "--mode", "exact"),
               ("trivial", ids[name], "exact"))
        for name in ("f0", "f2", "s01"):
            op(("test-trivial", "--input", k.path, "--chain", path[name], "--mode", "stochastic"),
               ("trivial", ids[name], "stochastic"), True)
        pairs = [("f0", "f1"), ("f0", "s02"), ("s01", "f1"), ("f1", "d13")]
        for x, y in pairs:
            equiv = ("test-equiv", "--input", k.path, "--chain", path[x], "--chain2", path[y])
            op(equiv + ("--mode", "exact"), ("equiv", ids[x], ids[y], "exact"))
            op(equiv + ("--method", "cohomology"), ("equiv_cohomology", ids[x], ids[y]))
        for x, y in pairs[:2]:
            op(("test-equiv", "--input", k.path, "--chain", path[x], "--chain2", path[y],
                "--mode", "stochastic"), ("equiv", ids[x], ids[y], "stochastic"), True)
        stage_paths = [w.complexes[c].path for c in stage_ids]
        op(("track", "--stages", *stage_paths, "--chain", path["f0"]),
           ("track", (ids["f0"],), tuple(stage_ids)))
        op(("track", "--stages", *stage_paths, "--chain", path["f0"], "--chain2", path["s02"]),
           ("track", (ids["f0"], ids["s02"]), tuple(stage_ids)))
        op(("betti-track", "--input", k.path, "--r", "1", "--samples", str(CLASS_SAMPLES)),
           ("betti_track", base, 1))
        for name in ("f0", "s01", "path"):
            op(("detect-cycle", "--input", k.path, "--chain", path[name]), ("detect", ids[name]))
    return w


WORKLOADS = {
    "rips_small": rips_small,
    "rips_large": rips_large,
    "class_queries": class_queries,
}
