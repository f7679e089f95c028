"""Smoke tests: the example scripts run end to end on small inputs."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_estimator_calibration_prints_its_table():
    proc = run_script("estimator_calibration.py", "--size", "16", "--runs", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "matrix size 16, spectral gap 0.1, 1 runs per cell"
    rows = [line.split() for line in lines[2:-1]]
    assert [row[0] for row in rows] == ["16", "32", "64", "128"]
    for row in rows:
        assert len(row) == 5
        for cell in row[1:]:
            mean, worst = map(float, cell.split("/"))
            assert 0.0 <= mean <= 1.0 and 0.0 <= worst <= 1.0
    assert lines[-1] == "cells are mean/max absolute error of rank(A)/N over seeds"


def test_rips_persistence_profile_writes_its_csv(tmp_path):
    out = tmp_path / "profile.csv"
    proc = run_script("rips_persistence_profile.py", "--points", "10", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    table = [line.split() for line in proc.stdout.splitlines()[1:12]]
    assert len(table) == 11  # one row per threshold
    assert all(int(b0) >= 1 and int(b1) >= 0 for _, b0, b1, _ in table)
    assert proc.stdout.rstrip().endswith(f"wrote {out}")
    csv = out.read_text().splitlines()
    assert csv[0] == "threshold,r,betti,method"
    assert len(csv) == 1 + 22  # beta_0 and beta_1 at 11 thresholds


def test_import_time_runs_a_tree_against_itself():
    # the CLI imports no scipy module; each round has one winner or a tie
    proc = run_script("import_time.py", str(ROOT), str(ROOT), "--rounds", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["base", "change"]
    won = []
    for line in lines:
        median, rounds, modules = line.split(": ", 1)[1].split(", ")
        assert median.startswith("median ") and median.endswith(" s") and float(median[7:-2]) > 0
        assert rounds.startswith("won ") and rounds.endswith(" of 2 rounds")
        won.append(int(rounds.split()[1]))
        assert modules == "0 scipy modules"
    assert sum(won) <= 2


def test_compare_outputs_finds_a_checkout_identical_to_itself():
    proc = run_script("compare_outputs.py", str(ROOT), str(ROOT),
                      "--workloads", "class_queries", "--seeds", "7")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["class_queries seed 7: 46 of 46 operations identical",
                                        "identical"]


def test_compare_outputs_fails_on_a_changed_answer(tmp_path):
    # a CGLS cut short after one step flags every stochastic verdict low
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    spectra = tmp_path / "src" / "homology_lab" / "spectra.py"
    text = spectra.read_text()
    assert "\nRESIDUAL_STEPS = 1000 " in text
    spectra.write_text(text.replace("\nRESIDUAL_STEPS = 1000 ", "\nRESIDUAL_STEPS = 1 "))
    proc = run_script("compare_outputs.py", str(ROOT), str(tmp_path),
                      "--workloads", "class_queries", "--seeds", "7")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "class_queries seed 7: 36 of 46 operations identical" in proc.stdout
    assert '"confidence": "low"' in proc.stdout and proc.stdout.endswith("10 differing\n")
