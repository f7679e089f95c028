"""Tests of the benchmark's own checker and tracer.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
A wrong answer injected on purpose must be counted as failed, and a reference
that disagrees with the independent Fraction check must abort the run.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import workloads
from reference import ChainSpec, Complex, ReferenceMismatch, References, judge

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
TRIANGLE = {0: [(0,), (1,), (2,)], 1: [(0, 1), (0, 2), (1, 2)]}  # beta_1 = 1


def _refs(tmp_path: Path) -> References:
    k = workloads.write_complex(tmp_path / "tri.jsonl", TRIANGLE)
    loop = workloads.write_chain(tmp_path / "loop.json", k, {(0, 1): 1, (1, 2): 1, (0, 2): -1}, "tri")
    path = workloads.write_chain(tmp_path / "path.json", k, {(0, 1): 1, (1, 2): 1}, "tri")
    return References({"tri": k}, {"loop": loop, "path": path})


def test_exact_wrong_answer_is_a_hard_failure(tmp_path):
    refs = _refs(tmp_path)
    assert not judge(("betti", "tri", 1, "exact"), 0, {"betti": 1}, refs).failed
    outcome = judge(("betti", "tri", 1, "exact"), 0, {"betti": 0}, refs)
    assert outcome.failed and outcome.hard


def test_wrong_oracle_echo_is_a_hard_failure(tmp_path):
    refs = _refs(tmp_path)
    out = {"normalized": 1 / 3, "exact_betti": 2}
    outcome = judge(("betti", "tri", 1, "stochastic"), 0, out, refs)
    assert outcome.failed and outcome.hard


def test_estimate_beyond_tolerance_fails(tmp_path):
    refs = _refs(tmp_path)
    close = judge(("betti", "tri", 1, "stochastic"), 0, {"normalized": 1 / 3 + 0.01}, refs)
    assert not close.failed and close.est_err == pytest.approx(0.01)
    far = judge(("betti", "tri", 1, "stochastic"), 0, {"normalized": 1 / 3 + 0.06}, refs)
    assert far.failed and not far.hard


def test_one_sided_guarantees(tmp_path):
    refs = _refs(tmp_path)
    assert judge(("detect", "loop"), 0, {"answer": "not_cycle"}, refs).hard
    assert not judge(("detect", "path"), 0, {"answer": "not_cycle"}, refs).failed
    assert judge(("betti_track", "tri", 1), 0, {"betti_lower_bound": 2}, refs).hard
    assert not judge(("betti_track", "tri", 1), 0, {"betti_lower_bound": 1}, refs).failed
    assert judge(("equiv_cohomology", "loop", "loop"), 0, {"answer": False}, refs).hard


def test_stochastic_verdict_counts_only_when_confident(tmp_path):
    refs = _refs(tmp_path)
    check = ("trivial", "loop", "stochastic")
    assert judge(check, 0, {"answer": True, "confidence": "high"}, refs).failed
    assert not judge(check, 0, {"answer": True, "confidence": "low"}, refs).failed
    assert not judge(check, 0, {"answer": False, "confidence": "high"}, refs).failed


def test_nonzero_exit_is_a_hard_failure(tmp_path):
    outcome = judge(("betti", "tri", 1, "exact"), 3, None, _refs(tmp_path))
    assert outcome.failed and outcome.hard


def test_persistent_reference_matches_definition():
    # A hollow triangle whose loop is filled in the larger complex.
    big = {**TRIANGLE, 2: [(0, 1, 2)]}
    refs = References({"a": Complex(TRIANGLE, ""), "b": Complex(big, "")}, {})
    assert refs.persistent_betti("a", "a", 1) == 1
    assert refs.persistent_betti("a", "b", 1) == 0
    assert refs.betti("b", 1) == 0


def test_reference_disagreeing_with_fraction_check_aborts(tmp_path, monkeypatch):
    refs = _refs(tmp_path)
    real = reference.float_rank
    monkeypatch.setattr(reference, "float_rank", lambda m: real(m) + 1)
    with pytest.raises(ReferenceMismatch):
        refs.betti("tri", 1)


def test_rank_without_spectral_gap_aborts():
    with pytest.raises(ReferenceMismatch):
        reference.float_rank(np.diag([1.0, 1e-3]))


def test_latency_pools_each_operations_fastest_quarter_in_yardsticks():
    from types import SimpleNamespace

    # 12 operations, 8 passes: each keeps its two fastest repetitions, i+1 and i+2.
    loop = SimpleNamespace(
        latencies=[[i + 1.0, i + 2.0] + [100.0] * 6 for i in range(12)],
        yardstick_times=[2.0] * 4 + [50.0] * 12,
        pass_times=[1.0] * 8)
    lat = run.latency_metrics(loop)
    assert lat["tail_samples"] == 24 and lat["yardstick_s"] == 2.0
    assert lat["seconds"]["ops_per_s"] == pytest.approx(24 / 168)
    assert lat["op_latency_p50_yardsticks"] == 7.0 / 2
    assert lat["op_latency_tail_yardsticks"] == 8.0 / 2  # ten samples beyond it
    assert lat["ops_per_yardstick"] == pytest.approx(2 * 24 / 168)


def _tiny_workload(seed, work):
    w = workloads.Workload()
    k = w.complexes["tri"] = workloads.write_complex(work / "tri.jsonl", TRIANGLE)
    w.ops.append(workloads.Op(("betti", "--input", k.path, "--r", "1", "--mode", "exact",
                               "--seed", "1"), ("betti", "tri", 1, "exact")))
    return w


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _tiny_workload)
    monkeypatch.setattr(run, "time_import", lambda: 0.0)


def _main(capsys, trace=0):
    code = run.main(["--workload", "tiny", "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)])
    return code, capsys.readouterr().out.strip().splitlines()


def test_main_reports_a_clean_run(tiny, capsys):
    code, lines = _main(capsys)
    result = json.loads(lines[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1  # one distinct operation, however many passes


def test_metrics_match_benchmark_json(tiny, capsys):
    spec = json.loads(BENCHMARK.read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        _, lines = _main(capsys, trace)
        got = {name: m["unit"] for name, m in json.loads(lines[-1])["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in spec[key]}


def test_main_counts_an_injected_wrong_answer(tiny, capsys, monkeypatch):
    from homology_lab import cli

    monkeypatch.setattr(cli, "exact_betti", lambda k, r: 7)
    code, lines = _main(capsys)
    result = json.loads(lines[-1])
    assert code == 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1


def test_outputs_that_differ_between_repetitions_fail(tiny, capsys, monkeypatch):
    from itertools import count

    from homology_lab import cli

    calls = count()
    real = cli.exact_betti
    monkeypatch.setattr(cli, "exact_betti", lambda k, r: real(k, r) + (next(calls) == 1))
    code, lines = _main(capsys)
    result = json.loads(lines[-1])
    assert code == 0
    assert result["failed"] == result["attempted"] == 1


def test_main_aborts_when_the_reference_is_unsound(tiny, capsys, monkeypatch):
    real = reference.float_rank
    monkeypatch.setattr(reference, "float_rank", lambda m: real(m) + 1)
    code, lines = _main(capsys)
    assert code != 0
    assert not any(line.startswith('{"correct"') for line in lines)


def test_traced_run_restores_every_binding(tiny, capsys):
    from homology_lab import cli, homology, spectra

    before = (cli.exact_betti, homology.exact_rank, spectra.exact_rank)
    code, lines = _main(capsys, trace=1)
    metrics = json.loads(lines[-1])["metrics"]
    assert code == 0
    assert (cli.exact_betti, homology.exact_rank, spectra.exact_rank) == before
    assert metrics["cli.run.calls"]["value"] == 1
    assert metrics["spectra.exact_betti.calls"]["value"] == 1
    assert metrics["exact.rank.calls"]["value"] == 1
    assert metrics["exact.rank.cells"]["value"] == 9
    assert metrics["cli.run.self_s"]["value"] >= 0


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        a, b = tmp_path / f"{name}a", tmp_path / f"{name}b"
        a.mkdir()
        b.mkdir()
        wa, wb = build(5, a), build(5, b)
        assert [op.argv for op in wa.ops] == [
            tuple(x.replace(str(b), str(a)) for x in op.argv) for op in wb.ops]
        for f in a.iterdir():
            assert f.read_text() == (b / f.name).read_text().replace(str(b), str(a))


def test_class_queries_complexes_have_cycles(tmp_path):
    w = workloads.class_queries(3, tmp_path)
    refs = References(w.complexes, w.chains)
    bases = {spec.complex_id for spec in w.chains.values()}
    assert bases and all(refs.betti(cid, 1) >= 1 for cid in bases)
    assert all(refs.is_cycle(c) for c in w.chains if not c.endswith("path"))


def test_chain_files_use_the_complex_file_order(tmp_path):
    k = workloads.write_complex(tmp_path / "tri.jsonl", TRIANGLE)
    spec = workloads.write_chain(tmp_path / "c.json", k, {(1, 2): 1, (0, 1): -1}, "tri")
    assert isinstance(spec, ChainSpec)
    assert json.loads(Path(spec.path).read_text())["coeffs"] == [[1, -1, 1], [3, 1, 1]]
