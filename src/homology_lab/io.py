"""File formats: JSON-lines complexes, filtration manifests, chain files,
MatrixMarket operator dumps.

A complex file starts with a header object ``{"n": <int>, "vertex_map":
optional}`` followed by one ``{"s": [v0, ..., vr]}`` object per line, with
integer vertex ids.  Files are declarations of record, so loading never
autocloses; sparse external vertex ids are remapped to dense ids through the
header map.  All simplex lines are parsed as one JSON array, and after the
type checks their lengths and their flat vertex list go as int64 arrays to
the assembly core that :func:`build_complex` uses too, in one pass.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path

from .complexes import Chain, FiltrationPair, SimplicialComplex, _assemble, validate_filtration
from .errors import BadParameter


def save_complex(k: SimplicialComplex, path) -> None:
    parts = [json.dumps({"n": k.n}, sort_keys=True) + "\n"]
    for r, rows in k._rows.items():
        line = '{"s": [' + ", ".join(["%d"] * (r + 1)) + ']}\n'
        parts.append(line * len(rows) % tuple(rows.ravel().tolist()))
    Path(path).write_text("".join(parts))


def load_complex(path) -> SimplicialComplex:
    lines = list(filter(str.strip, Path(path).read_text().splitlines()))
    if not lines:
        raise BadParameter(f"{path}: empty complex file")
    header = json.loads(lines[0])
    try:
        n, vertex_map = header["n"], {int(kk): v for kk, v in (header.get("vertex_map") or {}).items()}
    except (TypeError, KeyError, AttributeError, ValueError):
        n = vertex_map = None
    if vertex_map is None or not set(map(type, [n, *vertex_map.values()])) <= {int}:
        raise BadParameter(f'{path}: header must be {{"n": <int>, "vertex_map": {{"<int>": <int>}}}}')
    body = json.loads("[" + ",".join(lines[1:]) + "]")
    objects = len(body) == len(lines) - 1 and set(map(type, body)) <= {dict}  # one per line
    simplices = list(map(dict.get, body, repeat("s"))) if objects else [None]
    verts = list(chain.from_iterable(simplices)) if set(map(type, simplices)) <= {list} else [None]
    if not set(map(type, verts)) <= {int}:
        raise BadParameter(f'{path}: every simplex line must be {{"s": [<integer vertex ids>]}}')
    if vertex_map:  # vertex_map.get(v, v) for every vertex
        verts = list(map(vertex_map.get, verts, verts))
    if verts and not 0 <= min(verts) <= max(verts) < min(n, 2**63):
        raise BadParameter(f"{path}: vertex ids must lie in 0..{n - 1}")
    return _assemble(list(map(len, simplices)), verts, autoclose=False)


def load_filtration(manifest_path) -> FiltrationPair:
    """Manifest ``{"k1": path, "k2": path}`` with paths relative to the manifest."""
    manifest_path = Path(manifest_path)
    obj = json.loads(manifest_path.read_text())
    if not (isinstance(obj, dict) and isinstance(obj.get("k1"), str) and isinstance(obj.get("k2"), str)):
        raise BadParameter(f'{manifest_path}: manifest must be {{"k1": <path>, "k2": <path>}}')
    base = manifest_path.parent
    k1 = load_complex(base / obj["k1"])
    k2 = load_complex(base / obj["k2"])
    return validate_filtration(k1, k2)


def save_chain(c: Chain, path) -> None:
    coeffs = [[i, c.coeffs[i].numerator, c.coeffs[i].denominator] for i in sorted(c.coeffs)]
    Path(path).write_text(json.dumps({"r": c.r, "coeffs": coeffs}, sort_keys=True) + "\n")


def load_chain(path) -> Chain:
    obj = json.loads(Path(path).read_text())
    try:
        r, rows = obj["r"], obj["coeffs"]
        coeffs = {i: Fraction(num, den) for i, num, den in rows}
    except (TypeError, KeyError, ValueError, ZeroDivisionError):
        r = coeffs = None
    if coeffs is None or not set(map(type, [r, *chain.from_iterable(rows)])) <= {int}:
        raise BadParameter(f'{path}: chain file must be {{"r": <int>, "coeffs": [[<i>, <num>, <den>], ...]}}')
    if len(coeffs) != len(rows):
        raise BadParameter(f"{path}: chain indices must be distinct")
    return Chain._of(r, {i: c for i, c in coeffs.items() if c})


def dump_operator(matrix, path) -> None:
    """MatrixMarket coordinate export of a sparse matrix, for cross-checking with other tools."""
    import scipy.io

    with open(path, "wb") as out:  # mmwrite given a path in a missing directory writes nothing
        scipy.io.mmwrite(out, matrix)
