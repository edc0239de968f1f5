"""Golden-output hashes: CLI artifacts must stay byte-identical.

``tests/golden/cli.json`` pins the sha256 and size of every CSV and SVG
of all eight commands run with ``--plots`` at a fixed seed: the five
demo commands on ``configs/demo.cfg`` and the three fit commands on the
``fits.cfg`` that ``scripts/make_demo_inputs.py`` writes, plus the
``# results`` and ``# artifacts`` sections of each ``report.txt``; the
two fit commands and the two readout commands are also run as ``python
-m cqedkit`` subprocesses, where the fits and snr-sweep run without numpy
loaded at all and simulate-readout loads OpenBLAS as the CLI sets it up,
and checked against the same hashes. No run may write to stderr. ``check_golden.py`` is the one
reader of ``cli.json``, and it pins the bits that the 6 to 9 printed
digits of the corpus cannot show: ``FIT_BITS`` (the two iterative fits),
``SNR_MC_BITS`` (snr-sweep's Monte-Carlo SNR) and ``NORMAL_BITS`` (the
stdlib normal sampler); CI also runs it without pytest or numpy. The
corpus records the numpy version its hashes were taken with. A mismatch
means the Monte-Carlo stream, a kernel or the CSV/SVG formatting drifted;
re-bless only deliberately and log the reason in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from check_golden import (CLI_GOLDEN, FIT_BITS, NORMAL_BITS, SNR_MC_BITS,
                          cli_argv, fit_bits, mismatches, normal_bits,
                          snr_mc_bits)

from cqedkit.cli import main

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def golden_configs(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("inputs")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_demo_inputs.py"),
                    str(inputs), "--seed", str(CLI_GOLDEN["inputs_seed"])],
                   env=env, check=True, capture_output=True)
    return {"demo": ROOT / "configs" / "demo.cfg",
            "fits": inputs / "fits.cfg"}


def _check_cli_golden(command, outdir):
    found = mismatches(command, outdir)
    assert not found, "\n".join([
        *found, f"(pinned with numpy {CLI_GOLDEN['numpy']}, running numpy "
                f"{np.__version__})"])


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN["commands"]))
def test_cli_artifacts_and_report_match_golden(command, golden_configs,
                                               tmp_path, capsys):
    assert main(cli_argv(command, golden_configs, tmp_path)) == 0
    assert capsys.readouterr().err == ""
    _check_cli_golden(command, tmp_path)


# A fresh process is the one where the fits and snr-sweep run with numpy
# never loaded and where the CLI loads OpenBLAS single-threaded for
# simulate-readout, which an in-process run under pytest never is.
@pytest.mark.parametrize("command", ["fit-kappa", "fit-qdiel",
                                     "simulate-readout", "snr-sweep"])
def test_cli_subprocess_matches_golden(command, golden_configs, tmp_path):
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run([sys.executable, "-m", "cqedkit",
                           *cli_argv(command, golden_configs, tmp_path)],
                          env=env, check=True, capture_output=True, timeout=120)
    assert done.stderr == b""
    _check_cli_golden(command, tmp_path)


@pytest.mark.parametrize("seed", sorted(FIT_BITS))
def test_fit_bits_match_pins(seed, tmp_path):
    assert fit_bits(seed, tmp_path) == FIT_BITS[seed]


def test_snr_mc_bits_match_pins():
    assert snr_mc_bits() == SNR_MC_BITS


def test_normal_draws_match_pin():
    assert normal_bits() == NORMAL_BITS
