"""The scripts under ``scripts/``: their argument checks and the budget
scan's frequency grid and output bytes."""

import csv
import hashlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
# size and sha256 of budget_scan.csv at the scan's default flags
BUDGET_SCAN_CSV = (10661,
                   "de99b1001d3c31185ff2a24423835df84a3cbe2ae6d034c27b3628406402926f")


def _run(script, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
        env=ENV, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script, args", [
    ("make_demo_inputs.py", ["--seed", -3]),
    ("make_demo_inputs.py", ["--seed", 2**64]),
    ("t1_budget_scan.py", ["--points", 0]),
    ("t1_budget_scan.py", ["--f-min-ghz", 5, "--f-max-ghz", 4]),
    ("t1_budget_scan.py", ["--f-min-ghz", 0]),
], ids=["negative-seed", "seed-past-64-bits", "no-points", "reversed-band",
        "zero-frequency"])
def test_bad_arguments_fail_with_one_usage_error(script, args, tmp_path):
    out = tmp_path / "out"
    target = [out] if script == "make_demo_inputs.py" else ["--out", out]
    done = _run(script, *target, *args)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines()[-1].startswith(f"{script}: error: ")
    assert not out.exists()


def test_budget_scan_with_one_point_writes_f_min(tmp_path):
    done = _run("t1_budget_scan.py", "--out", tmp_path, "--points", 1,
                "--f-min-ghz", 4.25)
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "budget_scan.csv", newline="",
              encoding="ascii") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["f_q_ghz"] for row in rows] == ["4.25"] * 3


def test_budget_scan_through_the_cavity_writes_finite_numbers(tmp_path):
    # 5.5 to 6.5 GHz in 7 points puts one on the 6 GHz cavity
    done = _run("t1_budget_scan.py", "--out", tmp_path, "--f-min-ghz", 5.5,
                "--f-max-ghz", 6.5, "--points", 7)
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "budget_scan.csv", newline="",
              encoding="ascii") as handle:
        rows = list(csv.DictReader(handle))
    assert "6" in {row["f_q_ghz"] for row in rows}
    assert all(math.isfinite(float(value)) for row in rows
               for value in row.values())


def test_budget_scan_csv_at_default_flags_is_pinned(tmp_path):
    done = _run("t1_budget_scan.py", "--out", tmp_path)
    assert done.returncode == 0, done.stderr
    data = (tmp_path / "budget_scan.csv").read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == BUDGET_SCAN_CSV


def test_readout_tradeoff_reports_the_exact_ratio(tmp_path):
    # no seed: the ratio is the exact transient SNR over the closed form,
    # and the 0.95 crossing a root of it between two grid points
    done = _run("readout_tradeoff.py", "--out", tmp_path)
    assert done.returncode == 0, done.stderr
    spec = importlib.util.spec_from_file_location(
        "readout_tradeoff", ROOT / "scripts" / "readout_tradeoff.py")
    readout_tradeoff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(readout_tradeoff)
    with open(tmp_path / "tradeoff.csv", newline="",
              encoding="ascii") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        closed, exact = readout_tradeoff.snr_pair(float(row["kappa_tau"]))
        assert float(row["snr_exact"]) == pytest.approx(exact, rel=1e-8)
        assert float(row["ratio"]) == pytest.approx(exact / closed, rel=1e-8)
    root = float(done.stdout.split("ratio reaches 0.95 at kappa*tau ")[1])
    assert 16.0 < root < 24.0
    below, above = (readout_tradeoff.snr_pair(root + step) for step in (-0.01, 0.01))
    assert below[1] < 0.95 * below[0] and above[1] >= 0.95 * above[0]
