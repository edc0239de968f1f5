"""The scripts under ``scripts/``: the demo generator's seed check and the
readout trade-off's exact ratio."""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _run(script, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
        env=ENV, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("seed", [-3, 2**64],
                         ids=["negative-seed", "seed-past-64-bits"])
def test_bad_arguments_fail_with_one_usage_error(seed, tmp_path):
    out = tmp_path / "out"
    done = _run("make_demo_inputs.py", out, "--seed", seed)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines()[-1].startswith("make_demo_inputs.py: error: ")
    assert not out.exists()


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
