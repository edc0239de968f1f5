"""Golden-output hashes: CLI artifacts must stay byte-identical.

``tests/golden/readout.json`` pins the sha256 and size of every CSV that
``simulate-readout`` and ``snr-sweep`` write for ``configs/demo.cfg`` at a
fixed seed. ``tests/golden/cli.json`` pins every CSV and SVG of all eight
commands run with ``--plots``: the five demo commands on
``configs/demo.cfg`` and the three fit commands on the ``fits.cfg`` that
``scripts/make_demo_inputs.py`` writes, plus the ``# results`` and
``# artifacts`` sections of each ``report.txt``; the two fit commands and
the two readout commands are also run as ``python -m cqedkit``
subprocesses, where the fits and snr-sweep run without numpy loaded at
all and simulate-readout loads OpenBLAS as the CLI sets it up, and
checked against the same hashes; ``check_golden.py`` holds the one
reader of ``cli.json``, which CI also runs without pytest or numpy. Both
files record the numpy version the hashes were taken with. A mismatch means the
Monte-Carlo stream, a kernel or the CSV/SVG formatting drifted; re-bless
only deliberately and log the reason in CHANGES.md. ``FIT_BITS`` pins every
bit of the two iterative fits on five demo seeds of the generator's
stdlib stream, which the 6 to 9 printed digits of the corpus cannot show.
"""

import json
import os
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from check_golden import CLI_GOLDEN, cli_argv, digest, mismatches

from cqedkit import fit_kappa_ringdown, fit_qdiel
from cqedkit.cli import main
from cqedkit.dataio import load_coherence_csv, load_ringdown_csv
from cqedkit.floats import normal

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "readout.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(GOLDEN["commands"]))
def test_readout_artifacts_match_golden_hashes(command, tmp_path):
    status = main([command, "--config", str(ROOT / GOLDEN["config"]),
                   "--seed", str(GOLDEN["seed"]), "--out", str(tmp_path)])
    assert status == 0
    for name, expected in GOLDEN["commands"][command].items():
        actual = digest(tmp_path / name)
        assert actual == expected, (
            f"{command}: {name} drifted from the golden hash (pinned with "
            f"numpy {GOLDEN['numpy']}, running numpy {np.__version__})")


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
    subprocess.run([sys.executable, "-m", "cqedkit",
                    *cli_argv(command, golden_configs, tmp_path)],
                   env=env, check=True, capture_output=True, timeout=120)
    _check_cli_golden(command, tmp_path)


# Every bit of both iterative fits on the demo generator's noise models:
# .hex() of params, std_errors and residual_norm, then iterations; the
# ring-down fit first, then the Q_diel fit with the generator's Purcell
# channel. The golden corpus prints 6 to 9 digits of one seed.
FIT_BITS = {
    1: ("0x1.fe998e05248bep-1 0x1.3e69453802af8p+2 0x1.8d3d8d5d85ce4p-5 "
        "0x1.86c1f1d0bf085p-9 0x1.09177c1611ad2p-5 0x1.5c666887f2ebap-10 "
        "0x1.6132ce44f0f5ep-3 8",
        "0x1.662e3dc2c2e87p+19 0x1.66b216430f54dp+13 0x1.ab466e8d53db7p+1 7"),
    2: ("0x1.00ff43603511dp+0 0x1.41966cc15753ep+2 0x1.9b5c5612330b4p-5 "
        "0x1.5526aac2d75b1p-9 0x1.cd78b6bf9bc88p-6 0x1.2bee9fded9754p-10 "
        "0x1.32f9a697e3d0ap-3 8",
        "0x1.6b2018727dc05p+19 0x1.7f7232652a333p+13 0x1.c206207c60233p+1 7"),
    3: ("0x1.012c7c88e5b9cp+0 0x1.40a2a4a5d2932p+2 0x1.925d32c42acc8p-5 "
        "0x1.783a8efc70977p-9 0x1.fc05ce125c8c4p-6 0x1.4c285ff1eba53p-10 "
        "0x1.52febfe70fd66p-3 8",
        "0x1.6fec9c0edfb17p+19 0x1.9cf4f2f8875f8p+13 0x1.dd94fd3d5078cp+1 7"),
    4: ("0x1.003500cfd790cp+0 0x1.429c3be9d9e48p+2 0x1.ae584d46bb2c4p-5 "
        "0x1.79315a6b4f898p-9 0x1.0032690f1367ep-5 0x1.4a242475624e1p-10 "
        "0x1.52eaac26da099p-3 8",
        "0x1.6b5b2f337e108p+19 0x1.c62ee56c62b95p+12 0x1.0a99139ae03f4p+1 7"),
    5: ("0x1.01ebe2afe9113p+0 0x1.4272925fffe16p+2 0x1.9a0d96e308dd0p-5 "
        "0x1.799e445838baap-9 0x1.fd77b789a9757p-6 0x1.4abf7ee413921p-10 "
        "0x1.536079f5deb8ap-3 8",
        "0x1.6eec44cd61279p+19 0x1.f9f918654e667p+12 0x1.25c7fc730ac61p+1 7"),
}


def _bits(fit) -> str:
    return " ".join([*(value.hex() for value in (*fit.params, *fit.std_errors,
                                                  fit.residual_norm)),
                     str(fit.iterations)])


@pytest.mark.parametrize("seed", sorted(FIT_BITS))
def test_fit_bits_match_pins(seed, demo_inputs, tmp_path):
    # the writers in make_demo_inputs.py's order, drawing from its stream
    draw = partial(normal, random.Random(seed))
    demo_inputs.write_spiral_survey(tmp_path, draw)
    ringdown = demo_inputs.write_ringdown(tmp_path, draw)
    demo_inputs.write_kappa_offset(tmp_path, draw)
    coherence = demo_inputs.write_coherence(tmp_path, draw)
    fits = (fit_kappa_ringdown(*load_ringdown_csv(ringdown)).fit,
            fit_qdiel(load_coherence_csv(coherence), purcell=demo_inputs.PURCELL))
    assert tuple(map(_bits, fits)) == FIT_BITS[seed]
