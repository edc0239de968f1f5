"""The golden corpus of the eight commands, checked with the stdlib alone.

``tests/golden/cli.json`` pins the sha256 and size of every CSV and SVG
that each command writes with ``--plots``, and the ``# results`` and
``# artifacts`` sections of its ``report.txt``. ``mismatches`` lists every
way one command's output directory differs from it; ``tests/test_golden.py``
checks all eight commands through it. Run as a script, it needs neither
pytest nor numpy:

    PYTHONPATH=src python tests/check_golden.py

It writes the demo inputs with ``scripts/make_demo_inputs.py`` into a
temporary directory, runs the seven commands that do not load numpy as
``python -m cqedkit`` subprocesses on this interpreter, checks each one,
and exits 1 after naming every mismatch.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI_GOLDEN = json.loads((ROOT / "tests" / "golden" / "cli.json")
                        .read_text(encoding="utf-8"))
# The one command that loads numpy
NUMPY_COMMANDS = ("simulate-readout",)


def digest(path: Path) -> dict:
    data = path.read_bytes()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _section(lines: list[str], heading: str) -> list[str]:
    start = lines.index(heading) + 1
    end = lines.index("", start) if "" in lines[start:] else len(lines)
    return lines[start:end]


def cli_argv(command: str, configs: dict, outdir: Path) -> list[str]:
    """The corpus's arguments for ``command``; ``configs`` maps "demo" and
    "fits" to the config files."""
    config = configs[CLI_GOLDEN["commands"][command]["config"]]
    return [command, "--config", str(config), "--plots",
            "--seed", str(CLI_GOLDEN["seed"]), "--out", str(outdir)]


def mismatches(command: str, outdir: Path) -> list[str]:
    """Each way the artifacts and report in ``outdir`` differ from the
    corpus's for ``command``, one line each; empty when they match."""
    golden = CLI_GOLDEN["commands"][command]
    found = []
    written = sorted(path.name for path in outdir.iterdir()
                     if path.suffix in (".csv", ".svg"))
    if written != sorted(golden["artifacts"]):
        found.append(f"{command}: wrote {written}, "
                     f"expected {sorted(golden['artifacts'])}")
    for name, expected in golden["artifacts"].items():
        if name in written and digest(outdir / name) != expected:
            found.append(f"{command}: {name} drifted from the golden hash")
    report = (outdir / "report.txt").read_text(encoding="utf-8").split("\n")
    for heading, key in (("# results", "results"),
                         ("# artifacts", "artifact_list")):
        if _section(report, heading) != golden[key]:
            found.append(f"{command}: the {heading} section of report.txt "
                         f"differs from the golden one")
    return found


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        inputs = work / "inputs"
        subprocess.run([sys.executable, str(ROOT / "scripts" / "make_demo_inputs.py"),
                        str(inputs), "--seed", str(CLI_GOLDEN["inputs_seed"])],
                       env=env, check=True, capture_output=True)
        configs = {"demo": ROOT / "configs" / "demo.cfg",
                   "fits": inputs / "fits.cfg"}
        commands = [command for command in sorted(CLI_GOLDEN["commands"])
                    if command not in NUMPY_COMMANDS]
        found = []
        for command in commands:
            outdir = work / command
            done = subprocess.run(
                [sys.executable, "-m", "cqedkit",
                 *cli_argv(command, configs, outdir)],
                env=env, capture_output=True, text=True)
            if done.returncode != 0:
                found.append(f"{command}: exit {done.returncode}: "
                             f"{done.stderr.strip()}")
            else:
                found += mismatches(command, outdir)
    for line in found:
        print(line, file=sys.stderr)
    print(f"python {sys.version.split()[0]}: {len(commands)} commands, "
          f"{len(found)} mismatches with tests/golden/cli.json")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
