"""Smoke tests: the example scripts run end to end on small inputs."""

import os
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
