"""Shared fixtures: the demo-input generator loaded as a module, and the
shot blocks that ``write_shots_csv`` takes, cut from in-memory clouds."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cqedkit.readout import SHOT_BLOCK


@pytest.fixture(scope="session")
def demo_inputs():
    """``scripts/make_demo_inputs.py``, whose writers give the seeded noise
    models the coverage tests draw from."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "make_demo_inputs.py"
    spec = importlib.util.spec_from_file_location("make_demo_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def shot_blocks(shots):
    """A ShotSet's clouds as ``(state, block)`` pairs, ground first: (2,
    count) arrays of I and Q rows of at most ``SHOT_BLOCK`` shots."""
    for state, i, q in (("g", shots.i_ground, shots.q_ground),
                        ("e", shots.i_excited, shots.q_excited)):
        for start in range(0, len(i), SHOT_BLOCK):
            stop = start + SHOT_BLOCK
            yield state, np.stack((i[start:stop], q[start:stop]))
