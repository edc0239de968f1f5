"""The scripts under ``scripts/``: their argument checks and the budget
scan's frequency grid and output bytes."""

import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
# size and sha256 of budget_scan.csv at the scan's default flags
BUDGET_SCAN_CSV = (10674,
                   "c2be1359aa86533e4f77567c42dd8108c6d93e5d941a416758610240f5c66065")


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
    # 5.5 to 6.5 GHz in 7 points puts one on the 6 GHz cavity
    ("t1_budget_scan.py", ["--f-min-ghz", 5.5, "--f-max-ghz", 6.5,
                           "--points", 7]),
    ("readout_tradeoff.py", ["--shots", 50]),
    ("readout_tradeoff.py", ["--seed", -1]),
], ids=["negative-seed", "seed-past-64-bits", "no-points", "reversed-band",
        "zero-frequency", "grid-on-cavity", "too-few-shots",
        "negative-tradeoff-seed"])
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


def test_budget_scan_csv_at_default_flags_is_pinned(tmp_path):
    done = _run("t1_budget_scan.py", "--out", tmp_path)
    assert done.returncode == 0, done.stderr
    data = (tmp_path / "budget_scan.csv").read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == BUDGET_SCAN_CSV
