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
only deliberately and log the reason in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqedkit.cli import main

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
