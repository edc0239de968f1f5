"""Shared fixtures: the demo-input generator loaded as a module, the demo
configs beside its inputs, a CSV cell scaled by a power of ten, and the
shot blocks that ``write_shots_csv`` takes, cut from in-memory clouds."""

import importlib.util
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from cqedkit.readout import SHOT_BLOCK

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "demo.cfg"


@pytest.fixture(scope="session")
def demo_inputs():
    """``scripts/make_demo_inputs.py``, whose writers give the seeded noise
    models the coverage tests draw from."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "make_demo_inputs.py"
    spec = importlib.util.spec_from_file_location("make_demo_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_demo_configs(outdir: Path) -> None:
    """``demo.cfg`` and ``measured.cfg``, demo.cfg with ``[sweep]
    measured_csv`` naming the spiral survey, written to ``outdir``."""
    text = DEMO_CONFIG.read_text(encoding="utf-8")
    (outdir / "demo.cfg").write_text(text, encoding="utf-8")
    (outdir / "measured.cfg").write_text(text.replace(
        "[sweep]\n", "[sweep]\nmeasured_csv = spiral_measured.csv\n"),
        encoding="utf-8")


def scaled(cell: str, power: int) -> str:
    """A CSV cell times 10^power: exact decimal scaling, then one rounding
    to the nearest float, which may be subnormal, zero or infinite."""
    return repr(float(Decimal(cell).scaleb(power)))


def shot_blocks(shots):
    """A ShotSet's clouds as ``(state, block)`` pairs, ground first: (2,
    count) arrays of I and Q rows of at most ``SHOT_BLOCK`` shots."""
    for state, i, q in (("g", shots.i_ground, shots.q_ground),
                        ("e", shots.i_excited, shots.q_excited)):
        for start in range(0, len(i), SHOT_BLOCK):
            stop = start + SHOT_BLOCK
            yield state, np.stack((i[start:stop], q[start:stop]))
