"""The golden corpus of the eight commands, checked with the stdlib alone.

``tests/golden/cli.json`` pins the sha256 and size of every CSV and SVG
that each command writes with ``--plots``, and the ``# results`` and
``# artifacts`` sections of its ``report.txt``. ``mismatches`` lists every
way one command's output directory differs from it; ``tests/test_golden.py``
checks all eight commands through it. The corpus prints 6 to 9 digits,
so ``FIT_BITS`` and ``SNR_MC_BITS`` pin every bit of the two iterative
fits and of ``snr-sweep``'s Monte-Carlo SNR, which a one-ulp drift in the
stdlib sampler or libm moves. Run as a script, it needs neither pytest
nor numpy:

    PYTHONPATH=src python tests/check_golden.py

It writes the demo inputs with ``scripts/make_demo_inputs.py`` into a
temporary directory, runs the seven commands that do not load numpy as
``python -m cqedkit`` subprocesses on this interpreter, checks each one
and the pinned bits, and exits 1 after naming every mismatch.
"""

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

from cqedkit import fit_kappa_ringdown, fit_qdiel
from cqedkit.cli import cmd_snr_sweep
from cqedkit.config import parse_config
from cqedkit.dataio import load_coherence_csv, load_ringdown_csv
from cqedkit.floats import normal

ROOT = Path(__file__).resolve().parent.parent
CLI_GOLDEN = json.loads((ROOT / "tests" / "golden" / "cli.json")
                        .read_text(encoding="utf-8"))
# The one command that loads numpy
NUMPY_COMMANDS = ("simulate-readout",)

# Every bit of both iterative fits on the demo generator's noise models:
# .hex() of params, std_errors and residual_norm, then iterations; the
# ring-down fit first, then the Q_diel fit with the generator's Purcell
# channel, on the inputs that make_demo_inputs.py writes for each seed.
FIT_BITS = {
    1: ("0x1.fe998e05248bep-1 0x1.3e69453802af8p+2 0x1.8d3d8d5d85ce4p-5 "
        "0x1.86c1f1d0bf085p-9 0x1.09177c1611ad2p-5 0x1.5c666887f2ebap-10 "
        "0x1.6132ce44f0f5ep-3 8",
        "0x1.662ebd8e3e6f4p+19 0x1.66a163757a826p+13 0x1.ab47e26a87cd8p+1 7"),
    2: ("0x1.00ff43603511dp+0 0x1.41966cc15753ep+2 0x1.9b5c5612330b4p-5 "
        "0x1.5526aac2d75b1p-9 0x1.cd78b6bf9bc88p-6 0x1.2bee9fded9754p-10 "
        "0x1.32f9a697e3d0ap-3 8",
        "0x1.6b2058879f545p+19 0x1.7f5eb50fd347dp+13 0x1.c20660171dd75p+1 7"),
    3: ("0x1.012c7c88e5b9cp+0 0x1.40a2a4a5d2932p+2 0x1.925d32c42acc8p-5 "
        "0x1.783a8efc70977p-9 0x1.fc05ce125c8c4p-6 0x1.4c285ff1eba53p-10 "
        "0x1.52febfe70fd66p-3 8",
        "0x1.6fec5b432f904p+19 0x1.9cded0505c7dbp+13 0x1.dd95342f93611p+1 7"),
    4: ("0x1.003500cfd790cp+0 0x1.429c3be9d9e48p+2 0x1.ae584d46bb2c4p-5 "
        "0x1.79315a6b4f898p-9 0x1.0032690f1367ep-5 0x1.4a242475624e1p-10 "
        "0x1.52eaac26da099p-3 8",
        "0x1.6b5b858443eeap+19 0x1.c618a59594cdbp+12 0x1.0a99957fbee85p+1 7"),
    5: ("0x1.01ebe2afe9113p+0 0x1.4272925fffe16p+2 0x1.9a0d96e308dd0p-5 "
        "0x1.799e445838baap-9 0x1.fd77b789a9757p-6 0x1.4abf7ee413921p-10 "
        "0x1.536079f5deb8ap-3 8",
        "0x1.6eec2941a5cc0p+19 0x1.f9dde5fe8316cp+12 0x1.25c7d5d278c3bp+1 7"),
}

# sha256 of the space-joined .hex() of the first 4096 draws of
# floats.normal from random.Random(corpus seed): the fits read their inputs
# from 9-digit CSVs and snr_mc adds each draw to a larger term, so neither
# sees a one-ulp change in a draw
NORMAL_BITS = "e20bba05abd319a7efcba430de52489df027c31d8398469a993f6ae89f4aa542"

# .hex() of snr-sweep's snr_mc column on configs/demo.cfg at the corpus seed
SNR_MC_BITS = ["0x1.3ebdcdb3fb7bdp+1", "0x1.c2816d307c3efp+1",
               "0x1.3f3b5109bb781p+2", "0x1.c2db394019128p+2",
               "0x1.434c481d923b9p+3"]


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


def _bits(fit) -> str:
    return " ".join([*(value.hex() for value in (*fit.params, *fit.std_errors,
                                                  fit.residual_norm)),
                     str(fit.iterations)])


def fit_bits(seed: int, outdir: Path) -> tuple[str, str]:
    """The bits of both fits, as ``FIT_BITS`` holds them, on the inputs
    that ``make_demo_inputs.py --seed seed`` writes, written to ``outdir``."""
    spec = importlib.util.spec_from_file_location(
        "make_demo_inputs", ROOT / "scripts" / "make_demo_inputs.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    # the writers in the script's order, drawing from its stream
    draw = partial(normal, random.Random(seed))
    demo.write_spiral_survey(outdir, draw)
    ringdown = demo.write_ringdown(outdir, draw)
    demo.write_kappa_offset(outdir, draw)
    coherence = demo.write_coherence(outdir, draw)
    fits = (fit_kappa_ringdown(*load_ringdown_csv(ringdown)).fit,
            fit_qdiel(load_coherence_csv(coherence), purcell=demo.PURCELL))
    return tuple(map(_bits, fits))


def snr_mc_bits() -> list[str]:
    """``SNR_MC_BITS`` as this interpreter computes them, in process."""
    config = parse_config(ROOT / "configs" / "demo.cfg")._replace(
        seed=CLI_GOLDEN["seed"])
    _, artifacts = cmd_snr_sweep(config)
    _, rows = artifacts["snr_sweep.csv"]
    return [snr_mc.hex() for _, _, snr_mc, _ in rows]


def normal_bits() -> str:
    """``NORMAL_BITS`` as this interpreter computes it."""
    rng = random.Random(CLI_GOLDEN["seed"])
    draws = " ".join(normal(rng).hex() for _ in range(4096))
    return hashlib.sha256(draws.encode("ascii")).hexdigest()


def bit_mismatches(work: Path) -> list[str]:
    """Each way the pinned bits differ, one line each; ``work`` holds the
    inputs that ``fit_bits`` writes."""
    found = []
    for seed, expected in FIT_BITS.items():
        outdir = work / f"fit-bits-{seed}"
        outdir.mkdir()
        if fit_bits(seed, outdir) != expected:
            found.append(f"fit bits on seed {seed} drifted from FIT_BITS")
    if snr_mc_bits() != SNR_MC_BITS:
        found.append("snr-sweep's snr_mc bits drifted from SNR_MC_BITS")
    if normal_bits() != NORMAL_BITS:
        found.append("floats.normal's draws drifted from NORMAL_BITS")
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
        found += bit_mismatches(work)
    for line in found:
        print(line, file=sys.stderr)
    print(f"python {sys.version.split()[0]}: {len(commands)} commands and "
          f"{len(FIT_BITS) + 2} bit pins, {len(found)} mismatches")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
