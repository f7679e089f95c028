import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from homology_lab import Chain, build_complex, coboundary_matrix, generate
from homology_lab.cli import PARSER, emit_plot_data, run
from homology_lab.errors import BadParameter, MissingFace
from homology_lab.io import (
    dump_operator,
    load_chain,
    load_complex,
    load_filtration,
    save_chain,
    save_complex,
)

from conftest import (
    RP2_TRIANGLES,
    complete_graph,
    count_boundary_builds,
    count_reductions,
    klein_grid,
)


def test_complex_round_trip(tmp_path):
    k = generate("tetrahedron_boundary")
    path = tmp_path / "tetra.jsonl"
    save_complex(k, path)
    again = load_complex(path)
    assert again.layers == k.layers
    # canonical re-serialization is byte-identical
    path2 = tmp_path / "tetra2.jsonl"
    save_complex(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_open_complex(tmp_path):
    path = tmp_path / "open.jsonl"
    path.write_text('{"n": 3}\n{"s": [0, 1, 2]}\n')
    with pytest.raises(MissingFace):
        load_complex(path)


def test_load_applies_vertex_map(tmp_path):
    path = tmp_path / "sparse.jsonl"
    path.write_text(
        '{"n": 2, "vertex_map": {"10": 0, "20": 1}}\n{"s": [10]}\n{"s": [20]}\n{"s": [10, 20]}\n'
    )
    k = load_complex(path)
    assert k.layer(1) == ((0, 1),)


def test_save_load_save_is_byte_identical_on_a_rips_file(tmp_path):
    pts = np.random.default_rng(140).random((140, 2)).tolist()
    k = generate("vietoris_rips", points=pts, threshold=0.15, max_dim=2)
    assert k.size(2) > 0
    save_complex(k, tmp_path / "a.jsonl")
    save_complex(load_complex(tmp_path / "a.jsonl"), tmp_path / "b.jsonl")
    written = (tmp_path / "a.jsonl").read_text()
    assert (tmp_path / "b.jsonl").read_text() == written
    # one json.dumps line per simplex, the format's canonical form
    lines = [json.dumps({"n": k.n})] + [json.dumps({"s": list(s)}) for s in k.simplices()]
    assert written == "\n".join(lines) + "\n"


def test_load_parses_the_file_with_two_json_loads(tmp_path, monkeypatch):
    save_complex(generate("torus"), tmp_path / "torus.jsonl")
    calls = []
    real = json.loads

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    assert load_complex(tmp_path / "torus.jsonl").size(2) == 14
    assert len(calls) == 2  # the header, then every simplex line at once


def test_load_rejects_out_of_range_vertex(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n": 2}\n{"s": [5]}\n')
    with pytest.raises(BadParameter):
        load_complex(path)


def test_chain_round_trip(tmp_path):
    c = Chain.make(1, {1: Fraction(2, 3), 3: Fraction(-1, 1)})
    path = tmp_path / "chain.json"
    save_chain(c, path)
    assert load_chain(path) == c


def test_filtration_manifest(tmp_path):
    save_complex(generate("hollow_triangle"), tmp_path / "k1.jsonl")
    save_complex(generate("filled_triangle"), tmp_path / "k2.jsonl")
    manifest = tmp_path / "filt.json"
    manifest.write_text(json.dumps({"k1": "k1.jsonl", "k2": "k2.jsonl"}))
    pair = load_filtration(manifest)
    assert pair.k1.size(1) == 3
    assert pair.k2.size(2) == 1


def test_dump_operator_matrixmarket(tmp_path):
    from homology_lab import boundary_matrix

    k = generate("filled_triangle")
    path = tmp_path / "d2.mtx"
    dump_operator(boundary_matrix(k, 2), path)
    import scipy.io

    m = scipy.io.mmread(path)
    assert m.shape == (3, 1)


# --- CLI ------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_betti_exact(tmp_path, capsys):
    path = tmp_path / "hollow.jsonl"
    save_complex(generate("hollow_triangle"), path)
    code, out, _ = run_cli(capsys, "betti", "--input", str(path), "--r", "1", "--mode", "exact")
    assert code == 0
    result = json.loads(out)
    assert result["betti"] == 1
    assert abs(result["normalized"] - 1 / 3) < 1e-12
    assert result["config"]["subcommand"] == "betti"


def test_cli_gen_then_betti(tmp_path, capsys):
    out_path = tmp_path / "c4.jsonl"
    code, _, _ = run_cli(capsys, "gen", "--kind", "circle", "--m", "4", "--out", str(out_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "betti", "--input", str(out_path), "--r", "1")
    assert code == 0
    assert json.loads(out)["betti"] == 1


def test_cli_empty_layer_is_input_error(tmp_path, capsys):
    path = tmp_path / "hollow.jsonl"
    save_complex(generate("hollow_triangle"), path)
    code, out, err = run_cli(capsys, "betti", "--input", str(path), "--r", "5")
    assert code == 2
    assert "EmptyLayer" in err


def test_cli_stochastic_echoes_oracle(tmp_path, capsys):
    path = tmp_path / "hollow.jsonl"
    save_complex(generate("hollow_triangle"), path)
    code, out, _ = run_cli(
        capsys, "betti", "--input", str(path), "--r", "1",
        "--mode", "stochastic", "--seed", "5",
    )
    assert code == 0
    result = json.loads(out)
    assert result["exact_betti"] == 1
    assert abs(result["normalized"] - 1 / 3) <= 0.05
    assert result["confidence"] == "high"


def test_cli_persistent_betti(tmp_path, capsys):
    save_complex(generate("hollow_triangle"), tmp_path / "k1.jsonl")
    save_complex(generate("filled_triangle"), tmp_path / "k2.jsonl")
    manifest = tmp_path / "filt.json"
    manifest.write_text(json.dumps({"k1": "k1.jsonl", "k2": "k2.jsonl"}))
    code, out, _ = run_cli(capsys, "persistent-betti", "--input", str(manifest), "--r", "1")
    assert code == 0
    assert json.loads(out)["persistent_betti"] == 0


def test_cli_test_trivial_and_equiv(tmp_path, capsys):
    k = generate("filled_triangle")
    save_complex(k, tmp_path / "k.jsonl")
    loop = Chain.from_simplices(k, [([1, 2], 1), ([0, 2], -1), ([0, 1], 1)])
    save_chain(loop, tmp_path / "loop.json")
    code, out, _ = run_cli(
        capsys, "test-trivial", "--input", str(tmp_path / "k.jsonl"),
        "--chain", str(tmp_path / "loop.json"),
    )
    assert code == 0
    assert json.loads(out) == json.loads(out)
    assert json.loads(out)["answer"] is True

    save_chain(loop, tmp_path / "loop2.json")
    code, out, _ = run_cli(
        capsys, "test-equiv", "--input", str(tmp_path / "k.jsonl"),
        "--chain", str(tmp_path / "loop.json"), "--chain2", str(tmp_path / "loop2.json"),
    )
    assert json.loads(out)["answer"] is True

    code, out, _ = run_cli(
        capsys, "test-equiv", "--input", str(tmp_path / "k.jsonl"),
        "--chain", str(tmp_path / "loop.json"), "--chain2", str(tmp_path / "loop2.json"),
        "--method", "cohomology", "--seed", "3",
    )
    assert json.loads(out)["answer"] is True



@pytest.mark.parametrize("exponent", [400, -400])
def test_cli_stochastic_class_queries_take_chains_of_any_scale(tmp_path, capsys, exponent):
    # a sampled Rips cycle times 10^400 made stochastic test-trivial raise an
    # uncaught OverflowError; the filled triangle's loop times 10^-400 was
    # called nontrivial with high confidence, and an edge times 10^-400 a cycle
    from homology_lab import sample_cycles

    rips = generate("vietoris_rips", points=np.random.default_rng(0).random((30, 2)).tolist(),
                    threshold=0.3)
    filled = generate("filled_triangle")
    cases = [(rips, sample_cycles(rips, 1, s=1, seed=1)[0]),
             (filled, Chain.from_simplices(filled, [([1, 2], 1), ([0, 2], -1), ([0, 1], 1)]))]
    scale = Fraction(10) ** exponent
    for k, c in cases:
        save_complex(k, tmp_path / "k.jsonl")
        save_chain(Chain.make(1, {i: x * scale for i, x in c.coeffs.items()}), tmp_path / "c.json")
        argv = ("test-trivial", "--input", str(tmp_path / "k.jsonl"), "--chain", str(tmp_path / "c.json"),
                "--seed", "0")
        exact, stochastic = (run_cli(capsys, *argv, "--mode", mode) for mode in ("exact", "stochastic"))
        assert exact[0] == stochastic[0] == 0
        assert json.loads(stochastic[1])["answer"] == json.loads(exact[1])["answer"]
        assert json.loads(stochastic[1])["confidence"] == "high"
    assert json.loads(exact[1])["answer"] is True
    save_complex(generate("hollow_triangle"), tmp_path / "k.jsonl")
    save_chain(Chain.make(1, {1: scale}), tmp_path / "c.json")
    answers = {json.loads(run_cli(capsys, "detect-cycle", "--input", str(tmp_path / "k.jsonl"), "--chain",
                                  str(tmp_path / "c.json"), "--seed", str(seed))[1])["answer"]
               for seed in range(20)}
    assert "not_cycle" in answers

def test_cli_detect_cycle(tmp_path, capsys):
    k = generate("hollow_triangle")
    save_complex(k, tmp_path / "k.jsonl")
    edge = Chain.make(1, {1: Fraction(1)})
    save_chain(edge, tmp_path / "edge.json")
    code, out, _ = run_cli(
        capsys, "detect-cycle", "--input", str(tmp_path / "k.jsonl"),
        "--chain", str(tmp_path / "edge.json"), "--eta", "0.01", "--seed", "0",
    )
    assert code == 0
    assert json.loads(out)["answer"] == "not_cycle"


def test_cli_track(tmp_path, capsys):
    k1 = generate("hollow_triangle")
    k2 = generate("filled_triangle")
    save_complex(k1, tmp_path / "k1.jsonl")
    save_complex(k2, tmp_path / "k2.jsonl")
    loop = Chain.from_simplices(k1, [([1, 2], 1), ([0, 2], -1), ([0, 1], 1)])
    save_chain(loop, tmp_path / "loop.json")
    code, out, _ = run_cli(
        capsys, "track", "--stages", str(tmp_path / "k1.jsonl"), str(tmp_path / "k2.jsonl"),
        "--chain", str(tmp_path / "loop.json"),
    )
    assert code == 0
    stages = json.loads(out)["stages"]
    assert [s["answer"] for s in stages] == [False, True]


def test_cli_betti_track(tmp_path, capsys):
    save_complex(generate("hollow_triangle"), tmp_path / "k.jsonl")
    code, out, _ = run_cli(
        capsys, "betti-track", "--input", str(tmp_path / "k.jsonl"),
        "--r", "1", "--samples", "5", "--seed", "9",
    )
    assert code == 0
    result = json.loads(out)
    assert result["betti_lower_bound"] == 1
    assert result["exact_betti"] == 1


def test_cli_stochastic_betti_track_reports_confidence(tmp_path, capsys, monkeypatch):
    # a converged solve with no singular value near the cut reads "high"; a
    # solve stopped by its step limit reads "low", and with no step the
    # residuals are the five independent cycles themselves; the exact route
    # reports none
    from homology_lab import spectra

    save_complex(generate("torus"), tmp_path / "k.jsonl")
    argv = ("betti-track", "--input", str(tmp_path / "k.jsonl"), "--r", "1", "--samples", "5",
            "--seed", "9")
    assert "confidence" not in json.loads(run_cli(capsys, *argv)[1])
    code, out, _ = run_cli(capsys, *argv, "--mode", "stochastic")
    assert code == 0 and json.loads(out)["confidence"] == "high"
    assert json.loads(out)["betti_lower_bound"] == json.loads(out)["exact_betti"] == 2
    monkeypatch.setattr(spectra, "RESIDUAL_STEPS", 0)
    code, out, _ = run_cli(capsys, *argv, "--mode", "stochastic")
    assert code == 0 and json.loads(out)["confidence"] == "low"
    assert json.loads(out)["betti_lower_bound"] == 5


def _write_class_inputs(tmp_path):
    """The torus with one sampled cycle (c.json), the hollow and filled
    triangles as a filtration (filt.json) and the hollow loop (loop.json)."""
    from homology_lab import sample_cycles

    torus = generate("torus")
    save_complex(torus, tmp_path / "torus.jsonl")
    save_complex(generate("hollow_triangle"), tmp_path / "k1.jsonl")
    save_complex(generate("filled_triangle"), tmp_path / "k2.jsonl")
    (tmp_path / "filt.json").write_text(json.dumps({"k1": "k1.jsonl", "k2": "k2.jsonl"}))
    save_chain(Chain.make(1, {1: 1, 2: -1, 3: 1}), tmp_path / "loop.json")
    save_chain(sample_cycles(torus, 1, 1, seed=0)[0], tmp_path / "c.json")
    return torus


def _run_fresh(script):
    """``script`` run by a fresh interpreter on this checkout's src/."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_stochastic_class_commands_load_no_dense_scipy_module(tmp_path):
    # the class solver and the harmonic basis need numpy and scipy.sparse
    # only; scipy.sparse.linalg or scipy.linalg would add to the import time
    # and memory of every run
    _write_class_inputs(tmp_path)
    stochastic = ["--mode", "stochastic", "--seed", "0"]
    argvs = [
        ["test-trivial", "--input", str(tmp_path / "torus.jsonl"), "--chain", str(tmp_path / "c.json")],
        ["track", "--stages", str(tmp_path / "k1.jsonl"), str(tmp_path / "k2.jsonl"),
         "--chain", str(tmp_path / "loop.json")],
        ["betti-track", "--input", str(tmp_path / "torus.jsonl"), "--r", "1"],
        ["persistent-betti", "--input", str(tmp_path / "filt.json"), "--r", "1"],
    ]
    script = ("import sys\nfrom homology_lab.cli import run\n"
              f"assert [run(argv + {stochastic!r}) for argv in {argvs!r}] == [0] * {len(argvs)}\n"
              "print(sorted(m for m in ('scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules))")
    stdout = _run_fresh(script)
    *answers, loaded = stdout.splitlines()
    assert len(answers) == len(argvs) and '"confidence": "low"' not in stdout
    assert loaded == "[]"


def test_exact_commands_load_no_scipy_module(tmp_path):
    # scipy.sparse is imported where a float operator is built, so the package,
    # the CLI and every exact answer start without it; a stochastic betti loads it
    from homology_lab import sample_cycles

    torus = _write_class_inputs(tmp_path)
    save_chain(sample_cycles(torus, 1, 1, seed=1)[0], tmp_path / "c2.json")
    angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    (tmp_path / "pts.json").write_text(json.dumps(np.c_[np.cos(angles), np.sin(angles)].tolist()))
    k, z1, z2 = (str(tmp_path / name) for name in ("torus.jsonl", "c.json", "c2.json"))
    exact = [
        ["betti", "--input", k, "--r", "0"],
        ["betti", "--input", k, "--r", "1"],
        ["betti", "--r", "1", "--points", str(tmp_path / "pts.json"), "--thresholds", "0.5,1.0"],
        ["persistent-betti", "--input", str(tmp_path / "filt.json"), "--r", "1"],
        ["test-trivial", "--input", k, "--chain", z1],
        ["test-equiv", "--input", k, "--chain", z1, "--chain2", z2],
        ["test-equiv", "--input", k, "--chain", z1, "--chain2", z2, "--method", "cohomology",
         "--seed", "0"],
        ["track", "--stages", str(tmp_path / "k1.jsonl"), str(tmp_path / "k2.jsonl"),
         "--chain", str(tmp_path / "loop.json")],
        ["betti-track", "--input", k, "--r", "1", "--seed", "0"],
        ["detect-cycle", "--input", k, "--chain", z1, "--seed", "0"],
        ["gen", "--kind", "torus", "--out", str(tmp_path / "gen.jsonl")],
    ]
    stochastic = ["betti", "--input", k, "--r", "1", "--mode", "stochastic", "--seed", "0"]
    script = (
        "import contextlib, io, sys\n"
        "def scipy():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import homology_lab\n"
        "print(scipy())\n"
        "from homology_lab.cli import run\n"
        "print(scipy())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [run(argv) for argv in {exact!r}]\n"
        f"assert codes == [0] * {len(exact)}, codes\n"
        "print(scipy())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert run({stochastic!r}) == 0\n"
        "print('scipy.sparse' in sys.modules)\n")
    assert _run_fresh(script).splitlines() == ["[]", "[]", "[]", "True"]


def test_cli_betti_track_builds_and_reductions(tmp_path, capsys, monkeypatch):
    # sample_cycles builds and reduces d_1, betti_via_tracking builds and
    # reduces d_2, and the exact echo builds and ranks both again
    save_complex(generate("torus"), tmp_path / "k.jsonl")
    builds, reductions = count_boundary_builds(monkeypatch), count_reductions(monkeypatch)
    code, out, _ = run_cli(capsys, "betti-track", "--input", str(tmp_path / "k.jsonl"),
                           "--r", "1", "--samples", "6", "--seed", "3")
    assert code == 0
    assert json.loads(out)["exact_betti"] == 2
    assert sorted(builds) == [1, 1, 2, 2]
    assert len(reductions) == 4


def test_cli_dump_operator(tmp_path, capsys):
    save_complex(generate("filled_triangle"), tmp_path / "k.jsonl")
    target = tmp_path / "op.mtx"
    code, out, _ = run_cli(
        capsys, "dump-operator", "--input", str(tmp_path / "k.jsonl"),
        "--r", "2", "--dump-operator", str(target),
    )
    assert code == 0
    assert target.exists()
    # a path in a missing directory is an input error, with nothing on stdout
    code, out, err = run_cli(capsys, "dump-operator", "--input", str(tmp_path / "k.jsonl"),
                             "--r", "2", "--dump-operator", str(tmp_path / "nodir" / "op.mtx"))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "FileNotFoundError"
    assert not (tmp_path / "nodir").exists()


def test_cli_seed_reproducibility(tmp_path, capsys):
    path = tmp_path / "c8.jsonl"
    save_complex(generate("circle", m=8), path)
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "betti", "--input", str(path), "--r", "1",
            "--mode", "stochastic", "--seed", "42",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_cli_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HOMOLOGY_LAB_SEED", "77")
    path = tmp_path / "k.jsonl"
    save_complex(generate("hollow_triangle"), path)
    code, out, _ = run_cli(capsys, "betti", "--input", str(path), "--r", "1")
    assert json.loads(out)["config"]["seed"] == 77


def test_cli_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    from homology_lab import cli as cli_module
    from homology_lab.errors import StructuralViolation

    def boom(args):
        raise StructuralViolation("induced for the exit-code contract")

    monkeypatch.setitem(cli_module._HANDLERS, "betti", boom)
    path = tmp_path / "k.jsonl"
    save_complex(generate("hollow_triangle"), path)
    code, out, err = run_cli(capsys, "betti", "--input", str(path), "--r", "1")
    assert code == 3
    assert "StructuralViolation" in err


def test_cli_dump_witness(tmp_path, capsys):
    rings = [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]]
    # the second complex glues a filled triangle onto the first loop, so the
    # cocycle condition constrains the witness
    for simplices in (rings, rings + [[0, 1, 6]]):
        k = build_complex(simplices, autoclose=True)
        save_complex(k, tmp_path / "k.jsonl")
        a = Chain.from_simplices(k, [([0, 1], 1), ([0, 2], -1), ([1, 2], 1)])
        b = Chain.from_simplices(k, [([3, 4], 1), ([3, 5], -1), ([4, 5], 1)])
        save_chain(a, tmp_path / "a.json")
        save_chain(b, tmp_path / "b.json")
        witness_path = tmp_path / "witness.json"
        code, out, _ = run_cli(
            capsys, "test-equiv", "--input", str(tmp_path / "k.jsonl"),
            "--chain", str(tmp_path / "a.json"), "--chain2", str(tmp_path / "b.json"),
            "--method", "cohomology", "--seed", "1", "--dump-witness", str(witness_path),
        )
        assert code == 0
        assert json.loads(out)["answer"] is False
        witness = json.loads(witness_path.read_text())
        assert len(witness) == k.size(1)
        # an exact integer cocycle
        assert all(type(x) is int for x in witness)
        if k.size(2):
            assert not (coboundary_matrix(k, 1) @ np.array(witness)).any()


@pytest.mark.parametrize("doubled, written", [(False, True), (True, False)],
                         ids=["inequivalent", "equivalent"])
def test_cli_dump_witness_names_its_file_or_null(tmp_path, capsys, doubled, written):
    # on the filled triangle its boundary loop and twice that loop are
    # equivalent (both bound), so no cocycle separates them; the hollow
    # triangle's loop and twice it are not
    k = generate("filled_triangle" if doubled else "hollow_triangle")
    save_complex(k, tmp_path / "k.jsonl")
    loop = [([0, 1], 1), ([0, 2], -1), ([1, 2], 1)]
    save_chain(Chain.from_simplices(k, loop), tmp_path / "a.json")
    save_chain(Chain.from_simplices(k, [(s, 2 * c) for s, c in loop]), tmp_path / "b.json")
    witness_path = tmp_path / "w.json"
    code, out, _ = run_cli(
        capsys, "test-equiv", "--input", str(tmp_path / "k.jsonl"),
        "--chain", str(tmp_path / "a.json"), "--chain2", str(tmp_path / "b.json"),
        "--method", "cohomology", "--seed", "1", "--dump-witness", str(witness_path),
    )
    result = json.loads(out)
    assert code == 0 and result["answer"] is doubled
    assert result["witness_file"] == (str(witness_path) if written else None)
    assert witness_path.exists() == written


@pytest.mark.parametrize("witnesses", ["0", "-1"])
def test_cli_cohomology_rejects_fewer_than_one_witness(replay_files, capsys, monkeypatch,
                                                       witnesses):
    monkeypatch.chdir(replay_files)
    code, out, err = run_cli(capsys, "test-equiv", "--input", "rings.jsonl", "--chain", "a.json",
                             "--chain2", "b.json", "--method", "cohomology",
                             "--witnesses", witnesses)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "BadParameter"


@pytest.mark.parametrize("line", ['{"t": [0]}', '{"s": 3}', '{"s": ["a"]}', '{"s": [0.5]}',
                                  '{"s": [true]}', '{"s": null}', '{"s": [[0]]}', '[0]',
                                  '{"s": [1]}, {"s": [0, 1]}'])
def test_cli_rejects_malformed_simplex_lines(tmp_path, capsys, line):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n": 2}\n{"s": [0]}\n' + line + "\n")
    code, out, err = run_cli(capsys, "betti", "--input", str(path), "--r", "0")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "BadParameter"


@pytest.mark.parametrize("name,text,argv", [
    ("bad.jsonl", '{"n": "abc"}\n{"s": [0]}\n', ("betti", "--input", "bad.jsonl", "--r", "0")),
    ("bad.jsonl", '{"n": 1, "vertex_map": {"x": 0}}\n{"s": [0]}\n',
     ("betti", "--input", "bad.jsonl", "--r", "0")),
    ("bad.jsonl", '5\n{"s": [0]}\n', ("betti", "--input", "bad.jsonl", "--r", "0")),
    ("bad.json", '{"r": 1, "coeffs": [[1, 1]]}',
     ("test-trivial", "--input", "hollow.jsonl", "--chain", "bad.json")),
    ("bad.json", '{"r": 1, "coeffs": [[1, 1, 0]]}',
     ("test-trivial", "--input", "hollow.jsonl", "--chain", "bad.json")),
    ("bad.json", '{"r": 1, "coeffs": 3}',
     ("test-trivial", "--input", "hollow.jsonl", "--chain", "bad.json")),
    ("bad.json", '{"r": "x", "coeffs": [[1, 1, 1]]}',
     ("test-trivial", "--input", "hollow.jsonl", "--chain", "bad.json")),
    ("bad.json", '{"r": 1, "coeffs": [[1, 5, 1], [1, 1, 1], [2, -1, 1], [3, 1, 1]]}',
     ("test-trivial", "--input", "hollow.jsonl", "--chain", "bad.json")),
    ("bad.json", "5", ("persistent-betti", "--input", "bad.json", "--r", "1")),
], ids=["n-not-int", "vertex-map-key", "header-not-object", "coeff-pair", "zero-denominator",
        "coeffs-not-list", "r-not-int", "repeated-index", "manifest-not-object"])
def test_cli_rejects_malformed_headers_chains_and_manifests(replay_files, capsys, monkeypatch,
                                                            name, text, argv):
    monkeypatch.chdir(replay_files)
    (replay_files / name).write_text(text)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "BadParameter"


@pytest.mark.parametrize("method,extra", [
    ("homology", ("--witnesses", "0", "--dump-witness", "w.json")),
    ("homology", ("--dump-witness", "w.json")),
    ("cohomology", ("--mode", "stochastic")),
    ("homology", ("--witnesses", "8")),  # the cohomology default, given explicitly
])
def test_cli_test_equiv_rejects_flags_its_method_ignores(replay_files, capsys, monkeypatch,
                                                         method, extra):
    monkeypatch.chdir(replay_files)
    code, out, err = run_cli(capsys, "test-equiv", "--input", "rings.jsonl", "--chain", "a.json",
                             "--chain2", "b.json", "--method", method, *extra)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "InputError"
    assert not (replay_files / "w.json").exists()


# --- plot data -----------------------------------------------------------------------

def test_emit_plot_data_two_points():
    rows = [(0.5, 0, 2, "exact"), (1.5, 0, 1, "exact")]
    text = emit_plot_data(rows, out=None)
    lines = text.strip().splitlines()
    assert lines[0] == "threshold,r,betti,method"
    assert lines[1] == "0.5,0,2,exact"
    assert lines[2] == "1.5,0,1,exact"


def test_emit_plot_data_empty():
    text = emit_plot_data([], out=None)
    assert text.strip() == "threshold,r,betti,method"


def test_cli_betti_sweep_circle_cloud(tmp_path, capsys):
    angles = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    pts = [[float(np.cos(a)), float(np.sin(a))] for a in angles]
    pts_path = tmp_path / "pts.json"
    pts_path.write_text(json.dumps(pts))
    csv_path = tmp_path / "profile.csv"
    code, out, _ = run_cli(
        capsys, "betti", "--r", "1", "--points", str(pts_path),
        "--thresholds", "0.3,1.0,2.5", "--plot-data", str(csv_path),
    )
    assert code == 0
    rows = csv_path.read_text().strip().splitlines()[1:]
    betti_by_threshold = [int(row.split(",")[2]) for row in rows]
    assert betti_by_threshold == [0, 1, 0]  # loop appears, then fills in


def replay(capsys, out):
    """Run again from nothing but the config embedded in an output."""
    config = dict(json.loads(out)["config"])
    argv = [config.pop("subcommand")]
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, *map(str, value)]
        elif value is not None and value is not False:
            argv += [flag, str(value)]
    return run_cli(capsys, *argv)


@pytest.fixture
def replay_files(tmp_path):
    """Complexes, chains and a point cloud for one run of every subcommand."""
    hollow = generate("hollow_triangle")
    save_complex(hollow, tmp_path / "hollow.jsonl")
    save_complex(generate("filled_triangle"), tmp_path / "filled.jsonl")
    (tmp_path / "filt.json").write_text(json.dumps({"k1": "hollow.jsonl", "k2": "filled.jsonl"}))
    loop = Chain.from_simplices(hollow, [([1, 2], 1), ([0, 2], -1), ([0, 1], 1)])
    save_chain(loop, tmp_path / "loop.json")
    save_chain(Chain.make(1, {i: 2 * c for i, c in loop.coeffs.items()}), tmp_path / "twice.json")
    save_chain(Chain.make(1, {1: Fraction(1)}), tmp_path / "edge.json")
    save_complex(build_complex([[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]], autoclose=True),
                 tmp_path / "rings.jsonl")
    save_chain(Chain.make(1, {1: 1, 2: -1, 3: 1}), tmp_path / "a.json")
    save_chain(Chain.make(1, {4: 1, 5: -1, 6: 1}), tmp_path / "b.json")
    angles = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    (tmp_path / "pts.json").write_text(
        json.dumps([[float(np.cos(a)), float(np.sin(a))] for a in angles]))
    return tmp_path


REPLAY_CASES = {
    "betti": (("betti", "--input", "hollow.jsonl", "--r", "1", "--mode", "stochastic",
               "--no-oracle"), {}),
    "sweep": (("betti", "--r", "1", "--points", "pts.json", "--thresholds", "0.3,1.0,2.5",
               "--max-dim", "1", "--plot-data", "profile.csv"),
              {"sweep": [[0.3, 1, 0, "exact"], [1.0, 1, 1, "exact"],
                         [2.5, 1, 21, "exact"]]}),  # no 2-simplices
    "persistent-betti": (("persistent-betti", "--input", "filt.json", "--r", "1",
                          "--mode", "stochastic"), {"exact_persistent_betti": 0}),
    "test-trivial": (("test-trivial", "--input", "filled.jsonl", "--chain", "loop.json",
                      "--mode", "stochastic"), {"answer": True}),
    "test-equiv": (("test-equiv", "--input", "rings.jsonl", "--chain", "a.json",
                    "--chain2", "b.json", "--method", "cohomology", "--witnesses", "4",
                    "--seed", "1", "--dump-witness", "witness.json"), {"answer": False}),
    "detect-cycle": (("detect-cycle", "--input", "hollow.jsonl", "--chain", "edge.json",
                      "--eta", "0.01", "--seed", "0"), {"answer": "not_cycle"}),
    "track": (("track", "--stages", "hollow.jsonl", "filled.jsonl", "--chain", "loop.json",
               "--chain2", "twice.json", "--mode", "stochastic", "--seed", "3"), {}),
    "betti-track": (("betti-track", "--input", "hollow.jsonl", "--r", "1", "--samples", "5"),
                    {"betti_lower_bound": 1, "exact_betti": 1}),
    "gen": (("gen", "--kind", "circle", "--m", "6", "--out", "c6.jsonl"),
            {"sizes": {"0": 6, "1": 6}}),
    "dump-operator": (("dump-operator", "--input", "filled.jsonl", "--r", "1",
                       "--operator", "laplacian", "--dump-operator", "op.mtx"),
                      {"shape": [3, 3]}),
}


@pytest.mark.parametrize("case", REPLAY_CASES)
def test_cli_replays_from_its_config(replay_files, capsys, monkeypatch, case):
    monkeypatch.chdir(replay_files)
    argv, expected = REPLAY_CASES[case]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    result = json.loads(out)
    assert {key: result[key] for key in expected} == expected
    given = {arg[2:].replace("-", "_") for arg in argv[1:] if arg.startswith("--")}
    assert given <= set(result["config"])  # every flag given is on the record
    assert replay(capsys, out) == (0, out, "")


DIRECTORY_TARGETS = {  # case: the flag that names a file to write
    "gen": "--out",
    "dump-operator": "--dump-operator",
    "sweep": "--plot-data",
    "test-equiv": "--dump-witness",
}


@pytest.mark.parametrize("case", DIRECTORY_TARGETS)
def test_cli_output_path_that_is_a_directory_exits_2(replay_files, capsys, monkeypatch, case):
    monkeypatch.chdir(replay_files)
    (replay_files / "adir").mkdir()
    argv = list(REPLAY_CASES[case][0])
    argv[argv.index(DIRECTORY_TARGETS[case]) + 1] = "adir"
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "IsADirectoryError"


def test_cli_sweep_rejects_flags_it_would_ignore(replay_files, capsys, monkeypatch):
    monkeypatch.chdir(replay_files)
    sweep = ("betti", "--r", "1", "--points", "pts.json", "--thresholds", "0.3,1.0")
    for extra in (("--mode", "stochastic"), ("--input", "hollow.jsonl")):
        code, out, err = run_cli(capsys, *sweep, *extra)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "InputError"


def test_cli_bad_thresholds_is_input_error(replay_files, capsys, monkeypatch):
    monkeypatch.chdir(replay_files)
    code, out, err = run_cli(capsys, "betti", "--r", "1", "--points", "pts.json",
                             "--thresholds", "0.5,abc")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "InputError"


def test_cli_sweep_above_max_dim_is_input_error(replay_files, capsys, monkeypatch):
    # Rips cliques stop at --max-dim, so that layer is never built and 0 is no answer;
    # --r at --max-dim is answered (its (r+1)-boundary is a zero map)
    monkeypatch.chdir(replay_files)
    sweep = ("betti", "--points", "pts.json", "--thresholds", "0.5,1.2")
    code, out, err = run_cli(capsys, *sweep, "--r", "3", "--max-dim", "1", "--plot-data", "never.csv")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "InputError"
    assert not (replay_files / "never.csv").exists()
    code, out, err = run_cli(capsys, *sweep, "--r", "1", "--max-dim", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["sweep"] == [[0.5, 1, 0, "exact"], [1.2, 1, 1, "exact"]]


def sweep_clouds():
    """name -> (points, thresholds, max_dim).  The lattice's thresholds 1, 2 and 3 tie
    exactly with pair distances, the others are pair distances as floats; each cloud
    also has a threshold below its first edge."""
    rng = np.random.default_rng(26)
    lattice = [[float(c // 9), float(c % 9)] for c in rng.choice(81, size=45, replace=False)]
    uniform = rng.random((150, 2))
    spatial = rng.random((30, 3))
    clouds = {"lattice": (lattice, [0.5, 1.0, 2 ** 0.5, 2.0, 3.0], 2)}
    for name, pts, ranks, max_dim in (("uniform", uniform, (0, 150, 300, 450), 2),
                                      ("3-d", spatial, (0, 30, 60, 90, 120), 3)):
        d2 = np.sort(((pts[:, None] - pts[None]) ** 2).sum(axis=2)[np.triu_indices(len(pts), 1)])
        pairs = [float(np.sqrt(d2[i])) for i in ranks]
        clouds[name] = (pts.tolist(), [pairs[0] / 2, *pairs], max_dim)
    return clouds


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("cloud", ["lattice", "uniform", "3-d"])
def test_cli_sweep_matches_exact_betti_per_threshold(tmp_path, capsys, monkeypatch, cloud, r):
    # one Rips build at the largest threshold and one reduction per boundary, in
    # diameter order, answer every threshold as exact_betti on its own complex does
    from homology_lab import cli, complexes, exact_betti

    pts, thresholds, max_dim = sweep_clouds()[cloud]
    ks = [generate("vietoris_rips", points=pts, threshold=t, max_dim=max_dim) for t in thresholds]
    want = [exact_betti(k, r) if k.size(r) else 0 for k in ks]
    assert ks[0].size(1) == 0 and ks[-1].size(2)  # below the first edge, and up to triangles
    if cloud == "lattice":  # pairs at distance exactly 1, 2 and 3 are left out
        d2 = [(a - c) ** 2 + (b - d) ** 2 for (a, b) in pts for (c, d) in pts]
        assert {1.0, 4.0, 9.0} <= set(d2)
    (tmp_path / "pts.json").write_text(json.dumps(pts))
    calls, real = [], complexes.vietoris_rips
    monkeypatch.setattr(complexes, "vietoris_rips", lambda *a: calls.append(a[1]) or real(*a))
    monkeypatch.setattr(cli, "exact_betti", lambda *a: pytest.fail("a sweep runs no exact_betti"))
    builds, reductions = count_boundary_builds(monkeypatch), count_reductions(monkeypatch)
    code, out, err = run_cli(capsys, "betti", "--r", str(r), "--points", str(tmp_path / "pts.json"),
                             "--thresholds", ",".join(map(repr, thresholds[::-1])),
                             "--max-dim", str(max_dim))
    assert (code, err) == (0, "")
    assert json.loads(out)["sweep"] == [[t, r, b, "exact"] for t, b in zip(thresholds, want)]
    assert calls == [max(thresholds)]
    assert sorted(builds) == [q for q in (r, r + 1) if q >= 1 and ks[-1].size(q)]
    assert reductions == [False, False]


@pytest.mark.slow
def test_cli_sweep_on_a_300_point_noisy_circle(tmp_path, capsys):
    # the cloud of scripts/rips_persistence_profile.py: one loop, born and then filled
    from homology_lab import exact_betti

    rng = np.random.default_rng(0)
    angles = 2 * np.pi * (np.arange(300) + rng.normal(0, 0.15, 300)) / 300
    radii = 1.0 + rng.normal(0, 0.05, 300)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)]).tolist()
    thresholds = [0.35 * i / 5 for i in range(1, 6)]
    want = [exact_betti(k, 1) if k.size(1) else 0 for k in
            (generate("vietoris_rips", points=pts, threshold=t, max_dim=2) for t in thresholds)]
    (tmp_path / "pts.json").write_text(json.dumps(pts))
    code, out, err = run_cli(capsys, "betti", "--r", "1", "--points", str(tmp_path / "pts.json"),
                             "--thresholds", ",".join(map(repr, thresholds)))
    assert (code, err) == (0, "")
    assert [row[2] for row in json.loads(out)["sweep"]] == want
    assert 1 in want


def test_cli_sweep_at_a_negative_dimension_is_input_error(replay_files, capsys, monkeypatch):
    # as with --input, a dimension that does not exist is an error, not beta = 0 at
    # every threshold; an empty layer at a small threshold still reads 0 (the sweep case)
    monkeypatch.chdir(replay_files)
    for source, error in ((("--input", "hollow.jsonl"), "EmptyLayer"),
                          (("--points", "pts.json", "--thresholds", "0.5,1.2,2",
                            "--plot-data", "never.csv"), "InputError")):
        code, out, err = run_cli(capsys, "betti", "--r", "-1", *source)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == error
    assert not (replay_files / "never.csv").exists()


@pytest.mark.parametrize("argv", [
    ("gen", "--kind", "vietoris_rips", "--points", "pts.json", "--threshold", "nan", "--out", "o.jsonl"),
    ("gen", "--kind", "vietoris_rips", "--points", "pts.json", "--threshold", "inf", "--out", "o.jsonl"),
    ("gen", "--kind", "vietoris_rips", "--points", "nan.json", "--threshold", "0.5", "--out", "o.jsonl"),
    ("betti", "--r", "1", "--points", "pts.json", "--thresholds", "0.5,nan,1.2"),
    ("betti", "--r", "1", "--points", "pts.json", "--thresholds", "0.5,inf"),
    ("betti", "--r", "1", "--points", "nan.json", "--thresholds", "0.5"),
    ("gen", "--kind", "vietoris_rips", "--points", "object.json", "--threshold", "0.5", "--out", "o.jsonl"),
    ("gen", "--kind", "vietoris_rips", "--points", "ragged.json", "--threshold", "0.5", "--out", "o.jsonl"),
    ("gen", "--kind", "vietoris_rips", "--points", "text.json", "--threshold", "0.5", "--out", "o.jsonl"),
    ("betti", "--r", "1", "--points", "object.json", "--thresholds", "0.5"),
    ("betti", "--r", "1", "--points", "ragged.json", "--thresholds", "0.5"),
    ("betti", "--r", "1", "--points", "text.json", "--thresholds", "0.5"),
], ids=["gen-nan", "gen-inf", "gen-nan-point", "sweep-nan", "sweep-inf", "sweep-nan-point",
        "gen-object", "gen-ragged", "gen-text", "sweep-object", "sweep-ragged", "sweep-text"])
def test_cli_rips_rejects_nonfinite_input(replay_files, capsys, monkeypatch, argv):
    monkeypatch.chdir(replay_files)
    (replay_files / "nan.json").write_text("[[0.0, 0.0], [NaN, 1.0], [1.0, 0.0]]")  # json reads NaN
    (replay_files / "object.json").write_text('{"a": 1}')
    (replay_files / "ragged.json").write_text("[[0, 0], [1]]")
    (replay_files / "text.json").write_text('[["a", "b"]]')
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "BadParameter"
    assert not (replay_files / "o.jsonl").exists()


@pytest.mark.parametrize("env,argv", [
    ("abc", ("betti", "--input", "hollow.jsonl", "--r", "1")),
    ("-4", ("betti", "--input", "hollow.jsonl", "--r", "1", "--mode", "stochastic")),
    (None, ("betti", "--input", "hollow.jsonl", "--r", "1", "--mode", "stochastic", "--seed", "-1")),
    (None, ("betti-track", "--input", "hollow.jsonl", "--r", "1", "--seed", "-3")),
    (None, ("gen", "--kind", "circle", "--m", "5", "--out", "o.jsonl", "--seed", "-2")),
], ids=["env-text", "env-negative", "betti-negative", "betti-track-negative", "gen-negative"])
def test_cli_bad_seed_env_is_input_error(replay_files, capsys, monkeypatch, env, argv):
    # numpy's default_rng refuses a negative seed with a ValueError traceback
    monkeypatch.chdir(replay_files)
    if env is not None:
        monkeypatch.setenv("HOMOLOGY_LAB_SEED", env)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "InputError"
    assert not (replay_files / "o.jsonl").exists()


@pytest.mark.parametrize("subcommand", ["gen", "detect-cycle", "dump-operator", "test-trivial",
                                        "test-equiv", "track", "betti-track", "betti",
                                        "persistent-betti"])
def test_cli_estimator_flags_only_where_used(replay_files, capsys, monkeypatch, subcommand):
    # every stochastic answer reads only --seed, so no subcommand takes a
    # filter or probe flag
    monkeypatch.chdir(replay_files)
    argv = next(argv for argv, _ in REPLAY_CASES.values() if argv[0] == subcommand)
    assert run_cli(capsys, *argv)[0] == 0
    for flag in (("--degree", "9"), ("--delta", "0.1"), ("--probes", "7"),
                 ("--probe-kind", "rademacher")):
        assert run_cli(capsys, *argv, *flag)[0] == 2


def test_cli_betti_rejects_sweep_flags_without_points(replay_files, capsys, monkeypatch):
    monkeypatch.chdir(replay_files)
    betti = ("betti", "--input", "hollow.jsonl", "--r", "1")
    for extra in (("--thresholds", "0.5,abc"), ("--plot-data", "never.csv")):
        code, out, err = run_cli(capsys, *betti, *extra)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "InputError"
    assert not (replay_files / "never.csv").exists()


UNREAD_FLAG_RUNS = {  # case: (a run given a flag it would not read, the error it exits 2 with)
    "file-betti-max-dim": (("betti", "--input", "hollow.jsonl", "--r", "1", "--max-dim", "3"),
                           "InputError"),
    "sweep-no-oracle": (("betti", "--r", "1", "--points", "pts.json", "--thresholds", "0.3,1.0",
                         "--plot-data", "never.csv", "--no-oracle"), "InputError"),
    "exact-betti-no-oracle": (("betti", "--input", "hollow.jsonl", "--r", "1", "--no-oracle"),
                              "InputError"),
    "exact-persistent-betti-no-oracle": (("persistent-betti", "--input", "filt.json", "--r", "1",
                                          "--no-oracle"), "InputError"),
    "gen-circle-points-threshold": (("gen", "--kind", "circle", "--m", "5", "--points", "pts.json",
                                     "--threshold", "0.5", "--out", "never.jsonl"), "BadParameter"),
    "gen-torus-max-dim": (("gen", "--kind", "torus", "--max-dim", "3", "--out", "never.jsonl"),
                          "BadParameter"),
    "gen-rips-m": (("gen", "--kind", "vietoris_rips", "--points", "pts.json", "--threshold", "1.5",
                    "--m", "5", "--out", "never.jsonl"), "BadParameter"),
}


@pytest.mark.parametrize("case", UNREAD_FLAG_RUNS)
def test_cli_rejects_a_flag_the_run_would_not_read(replay_files, capsys, monkeypatch, case):
    # each of these once exited 0 and dropped the flag
    monkeypatch.chdir(replay_files)
    argv, error = UNREAD_FLAG_RUNS[case]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == error
    assert not list(replay_files.glob("never.*"))


@pytest.mark.parametrize("mode", ["exact", "stochastic"])
def test_cli_betti_track_drops_its_echo_in_both_modes(replay_files, capsys, monkeypatch, mode):
    # its lower bound is echoed in both modes, so --no-oracle is read in both
    monkeypatch.chdir(replay_files)
    argv = ("betti-track", "--input", "hollow.jsonl", "--r", "1", "--mode", mode, "--seed", "0")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["exact_betti"] == 1
    code, out, _ = run_cli(capsys, *argv, "--no-oracle")
    assert code == 0 and "exact_betti" not in json.loads(out)


def test_cli_cohomology_records_the_library_default_witness_count(replay_files, capsys,
                                                                  monkeypatch):
    import inspect

    from homology_lab.cohomology import WITNESSES, test_equivalent_cohomological

    default = inspect.signature(test_equivalent_cohomological).parameters["witnesses"].default
    assert default == WITNESSES == 8
    monkeypatch.chdir(replay_files)
    code, out, _ = run_cli(capsys, "test-equiv", "--input", "filled.jsonl", "--chain", "loop.json",
                           "--chain2", "twice.json", "--method", "cohomology", "--seed", "0")
    result = json.loads(out)  # equivalent cycles: every witness is drawn
    assert code == 0 and result["config"]["witnesses"] == result["witnesses_used"] == 8


GUARD_BASES = {  # case: a run that succeeds; the guard adds each option it does not give
    "betti-exact": ("betti", "--input", "hollow.jsonl", "--r", "1"),
    "betti-stochastic": ("betti", "--input", "hollow.jsonl", "--r", "1", "--mode", "stochastic"),
    "sweep": ("betti", "--r", "1", "--points", "pts.json", "--thresholds", "0.3,1.0,2.5"),
    "persistent-betti-exact": ("persistent-betti", "--input", "filt.json", "--r", "1"),
    "persistent-betti-stochastic": ("persistent-betti", "--input", "filt.json", "--r", "1",
                                    "--mode", "stochastic"),
    "test-trivial": ("test-trivial", "--input", "filled.jsonl", "--chain", "loop.json"),
    "test-equiv-homology": ("test-equiv", "--input", "rings.jsonl", "--chain", "a.json",
                            "--chain2", "b.json"),
    "test-equiv-cohomology": ("test-equiv", "--input", "filled.jsonl", "--chain", "loop.json",
                              "--chain2", "twice.json", "--method", "cohomology",
                              "--dump-witness", "w.json"),
    "detect-cycle": ("detect-cycle", "--input", "hollow.jsonl", "--chain", "edge.json"),
    "track": ("track", "--stages", "hollow.jsonl", "filled.jsonl", "--chain", "loop.json"),
    "betti-track-exact": ("betti-track", "--input", "hollow.jsonl", "--r", "1"),
    "betti-track-stochastic": ("betti-track", "--input", "hollow.jsonl", "--r", "1",
                               "--mode", "stochastic"),
    "gen-circle": ("gen", "--kind", "circle", "--m", "6", "--out", "g.jsonl"),
    "gen-rips": ("gen", "--kind", "vietoris_rips", "--points", "pts.json", "--threshold", "1.5",
                 "--out", "g.jsonl"),
    "gen-torus": ("gen", "--kind", "torus", "--out", "g.jsonl"),
    "dump-operator": ("dump-operator", "--input", "filled.jsonl", "--r", "1",
                      "--dump-operator", "op.mtx"),
}
GUARD_VALUES = {  # option: the value added with it (None: a bare flag)
    "--input": "hollow.jsonl", "--no-oracle": None, "--points": "pts.json",
    "--thresholds": "0.3,1.0", "--max-dim": "1", "--plot-data": "extra.csv",
    "--mode": "stochastic", "--chain2": "twice.json", "--method": "cohomology",
    "--witnesses": "3", "--dump-witness": "extra.json", "--eta": "0.3", "--samples": "4",
    "--m": "5", "--threshold": "1.5", "--operator": "laplacian",
}


def _options(subcommand: str) -> list[str]:
    sub = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction))
    return [o for a in sub.choices[subcommand]._actions if not isinstance(a, argparse._HelpAction)
            for o in a.option_strings]


GUARD_CASES = [(base, option) for base, argv in GUARD_BASES.items()
               for option in _options(argv[0]) if option != "--seed" and option not in argv]


@pytest.mark.parametrize("base,option", GUARD_CASES, ids=[f"{b}{o}" for b, o in GUARD_CASES])
def test_cli_reads_every_flag_it_accepts(replay_files, capsys, monkeypatch, base, option):
    # a run given an option must either reject it or answer differently;
    # --seed is exempt, since every run records it by design
    monkeypatch.chdir(replay_files)
    argv = GUARD_BASES[base] + ("--seed", "5")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    value = GUARD_VALUES[option]
    code, extra, _ = run_cli(capsys, *argv, option, *([] if value is None else [value]))
    if code != 2:
        assert code == 0
        answer, base_answer = json.loads(extra), json.loads(out)
        del answer["config"], base_answer["config"]
        assert answer != base_answer


ORACLE_ONCE = {  # case: (counted oracle, echoed key and value)
    "persistent-betti": ("exact_persistent_betti", {"exact_persistent_betti": 0}),
    "betti": ("exact_rank", {"exact_betti": 1}),  # hollow triangle: only rank d_1
}


@pytest.mark.parametrize("case", ORACLE_ONCE)
def test_cli_stochastic_echo_runs_the_oracle_once(replay_files, capsys, monkeypatch, case):
    # the echo is the only exact computation of a stochastic estimate
    from homology_lab import cli, spectra

    monkeypatch.chdir(replay_files)
    oracle, echo = ORACLE_ONCE[case]
    calls = []
    real = getattr(spectra, oracle)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectra, oracle, counted)
    if hasattr(cli, oracle):
        monkeypatch.setattr(cli, oracle, counted)
    argv = [a for a in REPLAY_CASES[case][0] if a != "--no-oracle"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    result = json.loads(out)
    assert {key: result[key] for key in echo} == echo
    assert len(calls) == 1


def test_cli_stochastic_persistent_betti_echo_builds_no_persistent_laplacian(replay_files, capsys,
                                                                             monkeypatch):
    # the echo ranks boundary matrices exactly: d_1 of k1, and d_2 of k2 once
    # for the block check and both routes; the estimate tracks harmonic bases
    from homology_lab import cli, operators

    monkeypatch.chdir(replay_files)
    laplacians = []
    real_laplacian = operators.persistent_laplacian

    def counted(*args, **kwargs):
        laplacians.append(args)
        return real_laplacian(*args, **kwargs)

    monkeypatch.setattr(operators, "persistent_laplacian", counted)
    builds, echo_builds = count_boundary_builds(monkeypatch), []
    real_echo = cli.exact_persistent_betti

    def echo(*args):
        builds.clear()
        value = real_echo(*args)
        echo_builds.extend(builds)
        return value

    monkeypatch.setattr(cli, "exact_persistent_betti", echo)
    code, out, _ = run_cli(capsys, *REPLAY_CASES["persistent-betti"][0])
    assert code == 0
    assert json.loads(out)["exact_persistent_betti"] == 0
    assert laplacians == []
    assert sorted(echo_builds) == [1, 2]


@pytest.mark.parametrize("case,echo", [("betti", "exact_betti"),
                                       ("persistent-betti", "exact_persistent_betti")])
def test_cli_no_oracle_skips_the_oracle(replay_files, capsys, monkeypatch, case, echo):
    # the estimate is the same with and without the echo, and without it
    # nothing is reduced exactly
    from homology_lab import exact

    monkeypatch.chdir(replay_files)
    argv = [a for a in REPLAY_CASES[case][0] if a != "--no-oracle"] + ["--seed", "4"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and echo in json.loads(out)
    calls = []
    real = exact.reduce_columns
    monkeypatch.setattr(exact, "reduce_columns", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    code, quiet, _ = run_cli(capsys, *argv, "--no-oracle")
    assert code == 0 and calls == []
    assert echo not in json.loads(quiet)
    assert json.loads(quiet)["normalized"] == json.loads(out)["normalized"]


def _record_harmonic_seeds(monkeypatch) -> list:
    """Hook the harmonic basis that both estimators call; returns the seeds it receives."""
    from homology_lab import spectra

    seeds = []
    real = spectra.hodge_basis
    monkeypatch.setattr(spectra, "hodge_basis",
                        lambda k, r, seed: seeds.append(seed) or real(k, r, seed))
    return seeds


@pytest.mark.parametrize("case", ["betti", "persistent-betti"])
def test_cli_seed_reaches_the_harmonic_basis(replay_files, capsys, monkeypatch, case):
    # the replay promise: the seed on the record is the one that drew the Gaussian start
    monkeypatch.chdir(replay_files)
    seeds = _record_harmonic_seeds(monkeypatch)
    code, out, _ = run_cli(capsys, *REPLAY_CASES[case][0], "--seed", "123")
    assert code == 0 and json.loads(out)["config"]["seed"] == 123
    assert seeds == [123]


def test_estimator_seed_reaches_the_harmonic_basis(replay_files, monkeypatch):
    from homology_lab import estimate_normalized_betti, estimate_normalized_persistent_betti

    seeds = _record_harmonic_seeds(monkeypatch)
    estimate_normalized_betti(load_complex(replay_files / "hollow.jsonl"), 1, seed=5)
    estimate_normalized_persistent_betti(load_filtration(replay_files / "filt.json"), 1, seed=6)
    estimate_normalized_betti(load_complex(replay_files / "hollow.jsonl"), 1)
    assert seeds == [5, 6, None]


def test_cli_stochastic_betti_is_low_confidence_past_the_block_cap(tmp_path, capsys):
    # K_22 plus one filled triangle: beta_1 = 209 outgrows the 192-column basis
    save_complex(build_complex(complete_graph(22) + [[0, 1, 2]]), tmp_path / "k.jsonl")
    (tmp_path / "filt.json").write_text(json.dumps({"k1": "k.jsonl", "k2": "k.jsonl"}))
    for argv in (("betti", "--input", str(tmp_path / "k.jsonl")),
                 ("persistent-betti", "--input", str(tmp_path / "filt.json"))):
        code, out, _ = run_cli(capsys, *argv, "--r", "1", "--mode", "stochastic", "--seed", "0",
                               "--no-oracle")
        result = json.loads(out)
        assert code == 0 and result["confidence"] == "low"
        assert result["normalized"] * 231 <= 209


def test_cli_exact_betti_of_the_klein_bottle_and_projective_plane(tmp_path, capsys):
    # the rational answers, not the GF(2) ones: (1, 1, 0) and (1, 0, 0)
    for name, k, want in (("klein", klein_grid(8), (1, 1, 0)),
                          ("rp2", build_complex(RP2_TRIANGLES), (1, 0, 0))):
        save_complex(k, tmp_path / f"{name}.jsonl")
        for r, beta in enumerate(want):
            code, out, _ = run_cli(capsys, "betti", "--input", str(tmp_path / f"{name}.jsonl"),
                                   "--r", str(r), "--mode", "exact")
            assert code == 0 and json.loads(out)["betti"] == beta, (name, r)
