"""Golden-output hashes: CLI artifacts must stay byte-identical.

``tests/golden/readout.json`` pins the sha256 and size of every CSV that
``simulate-readout`` and ``snr-sweep`` write for ``configs/demo.cfg`` at a
fixed seed. ``tests/golden/cli.json`` pins every CSV and SVG of all eight
commands run with ``--plots``: the five demo commands on
``configs/demo.cfg`` and the three fit commands on the ``fits.cfg`` that
``scripts/make_demo_inputs.py`` writes, plus the ``# results`` and
``# artifacts`` sections of each ``report.txt``; the two fit commands and
the two readout commands are also run as ``python -m cqedkit``
subprocesses, where the fits run without numpy loaded at all and the
readout commands load OpenBLAS as the CLI sets it up, and checked
against the same hashes. Both files
record the numpy version the hashes were taken with. A mismatch means the
Monte-Carlo stream, a kernel or the CSV/SVG formatting drifted; re-bless
only deliberately and log the reason in CHANGES.md. ``FIT_BITS`` pins every
bit of the two iterative fits on five demo seeds, which the 6 to 9 printed
digits of the corpus cannot show.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqedkit import fit_kappa_ringdown, fit_qdiel
from cqedkit.cli import main
from cqedkit.dataio import load_coherence_csv, load_ringdown_csv

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "readout.json")
                    .read_text(encoding="utf-8"))
CLI_GOLDEN = json.loads((ROOT / "tests" / "golden" / "cli.json")
                        .read_text(encoding="utf-8"))


def _digest(path: Path) -> dict:
    data = path.read_bytes()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _section(lines: list[str], heading: str) -> list[str]:
    start = lines.index(heading) + 1
    end = lines.index("", start) if "" in lines[start:] else len(lines)
    return lines[start:end]


@pytest.mark.parametrize("command", sorted(GOLDEN["commands"]))
def test_readout_artifacts_match_golden_hashes(command, tmp_path):
    status = main([command, "--config", str(ROOT / GOLDEN["config"]),
                   "--seed", str(GOLDEN["seed"]), "--out", str(tmp_path)])
    assert status == 0
    for name, expected in GOLDEN["commands"][command].items():
        actual = _digest(tmp_path / name)
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
    golden = CLI_GOLDEN["commands"][command]
    written = sorted(p.name for p in outdir.iterdir()
                     if p.suffix in (".csv", ".svg"))
    assert written == sorted(golden["artifacts"])
    for name, expected in golden["artifacts"].items():
        assert _digest(outdir / name) == expected, (
            f"{command}: {name} drifted from the golden hash (pinned with "
            f"numpy {CLI_GOLDEN['numpy']}, running numpy {np.__version__})")
    report = (outdir / "report.txt").read_text(encoding="utf-8").split("\n")
    assert _section(report, "# results") == golden["results"]
    assert _section(report, "# artifacts") == golden["artifact_list"]


def _cli_argv(command, configs, outdir):
    config = configs[CLI_GOLDEN["commands"][command]["config"]]
    return [command, "--config", str(config), "--plots",
            "--seed", str(CLI_GOLDEN["seed"]), "--out", str(outdir)]


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN["commands"]))
def test_cli_artifacts_and_report_match_golden(command, golden_configs,
                                               tmp_path, capsys):
    assert main(_cli_argv(command, golden_configs, tmp_path)) == 0
    _check_cli_golden(command, tmp_path)


# A fresh process is the one where the fits run with numpy never loaded
# and where the CLI loads OpenBLAS single-threaded for the readout
# commands, which an in-process run under pytest never is.
@pytest.mark.parametrize("command", ["fit-kappa", "fit-qdiel",
                                     "simulate-readout", "snr-sweep"])
def test_cli_subprocess_matches_golden(command, golden_configs, tmp_path):
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    subprocess.run([sys.executable, "-m", "cqedkit",
                    *_cli_argv(command, golden_configs, tmp_path)],
                   env=env, check=True, capture_output=True, timeout=120)
    _check_cli_golden(command, tmp_path)


# Every bit of both iterative fits on the demo generator's noise models:
# .hex() of params, std_errors and residual_norm, then iterations; the
# ring-down fit first, then the Q_diel fit with the generator's Purcell
# channel. The golden corpus prints 6 to 9 digits of one seed.
FIT_BITS = {
    1: ("0x1.001111ceef43fp+0 0x1.3efc86d8a7107p+2 0x1.8a54c9ad63c38p-5 "
        "0x1.4ae762264bb0ep-9 0x1.bfeb15f42f820p-6 0x1.2647bd49a7ccbp-10 "
        "0x1.2ada8026f5dc5p-3 8",
        "0x1.68876468bf3e5p+19 0x1.f4c9d34c70fd9p+13 0x1.27c36f3b87fd2p+2 7"),
    2: ("0x1.002ceda9b13d3p+0 0x1.3ed3b9e93a950p+2 0x1.9015efb9e3478p-5 "
        "0x1.6862e5058a3dcp-9 0x1.e7882331bf335p-6 0x1.40ba0bc93c17ep-10 "
        "0x1.458dd6f09dba4p-3 8",
        "0x1.71ff93767f011p+19 0x1.41ba0b7d007ffp+13 0x1.72212fcc02c7fp+1 7"),
    3: ("0x1.006a1adfcb51cp+0 0x1.41dbb7515d696p+2 0x1.a365e4f23daf8p-5 "
        "0x1.6ab04c69727ffp-9 0x1.ebdf09a8106e9p-6 0x1.3e7d6fd05db38p-10 "
        "0x1.463aff73c2339p-3 8",
        "0x1.70b7067a7de09p+19 0x1.69835a515a3f6p+13 0x1.a11f8acbcc3d2p+1 7"),
    4: ("0x1.fefe317297a9cp-1 0x1.4180bcc339fbdp+2 0x1.abca86a881adcp-5 "
        "0x1.6611e03af7bd0p-9 0x1.e727c9a61dc68p-6 0x1.3aec7073ed04ep-10 "
        "0x1.423cd7ba9c59ap-3 8",
        "0x1.70ecb29e17386p+19 0x1.53c57aef6f094p+13 0x1.88375e0e72f2ap+1 7"),
    5: ("0x1.fdf1b3f56c866p-1 0x1.41a2dd5fc2d18p+2 0x1.a5c73de7e2058p-5 "
        "0x1.5df442bb78005p-9 0x1.dd2a5863d724bp-6 0x1.339b2c15791a8p-10 "
        "0x1.3adff2f1ef4f6p-3 8",
        "0x1.6d14fdf945e9cp+19 0x1.441def0bd175ap+13 0x1.7a33e2957e6e2p+1 7"),
}


def _bits(fit) -> str:
    return " ".join([*(value.hex() for value in (*fit.params, *fit.std_errors,
                                                  fit.residual_norm)),
                     str(fit.iterations)])


@pytest.mark.parametrize("seed", sorted(FIT_BITS))
def test_fit_bits_match_pins(seed, demo_inputs, tmp_path):
    # the writers in make_demo_inputs.py's order, drawing from one stream
    rng = np.random.default_rng(seed)
    demo_inputs.write_spiral_survey(tmp_path, rng)
    ringdown = demo_inputs.write_ringdown(tmp_path, rng)
    demo_inputs.write_kappa_offset(tmp_path, rng)
    coherence = demo_inputs.write_coherence(tmp_path, rng)
    fits = (fit_kappa_ringdown(*load_ringdown_csv(ringdown)).fit,
            fit_qdiel(load_coherence_csv(coherence), purcell=demo_inputs.PURCELL))
    assert tuple(map(_bits, fits)) == FIT_BITS[seed]
