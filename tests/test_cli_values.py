"""Property: any config value runs cleanly, or fails on one named line.

Hypothesis sets one to three keys of ``configs/demo.cfg``, or of the
``fits.cfg`` that ``scripts/make_demo_inputs.py`` writes, to values of
each key's parse type: floats from 1e-300 to 1e300 with zero and
negatives, small and out-of-range integers, booleans, and file names.
Each edited config runs through ``cli.main`` for all eight commands.
Every run exits 0 with nothing on stderr and no ``nan`` in any artifact,
or exits 1 with a single ``error:`` line that names a config section or
a CSV file, no traceback, and no file in its output directory.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqedkit.cli import COMMANDS, main
from cqedkit.config import SCHEMA

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "demo.cfg"

MAGNITUDES = st.floats(min_value=1e-300, max_value=1e300)
# mostly in the positive bounds that most keys have, so that runs get past
# the parser
FLOATS = st.one_of(MAGNITUDES, MAGNITUDES, MAGNITUDES, st.just(0.0),
                   MAGNITUDES.map(lambda x: -x))
# ints stay small enough that a grid or a shot count costs little
VALUES = {
    "float": FLOATS.map(repr),
    "float_list": st.lists(FLOATS, min_size=1, max_size=3).map(
        lambda items: ", ".join(map(repr, items))),
    "int": st.integers(min_value=-3, max_value=300).map(str),
    "bool": st.booleans().map(lambda flag: str(flag).lower()),
    "str": st.sampled_from(["spiral_measured.csv", "ringdown.csv",
                            "kappa_offset.csv", "coherence.csv", "missing.csv"]),
}
SEEDS = st.sampled_from([-1, 0, 2**64 - 1, 2**64]).map(str)

# an error line names a config section, a file or a row of one
NAMED = re.compile(r"\[[a-z_]+\]|\.(csv|cfg)\b")


@pytest.fixture(scope="module")
def inputs(demo_inputs, tmp_path_factory):
    """A directory of the two base configs and the fit inputs that fits.cfg
    names."""
    outdir = tmp_path_factory.mktemp("inputs")
    demo_inputs.write_inputs(outdir, np.random.default_rng(7).standard_normal)
    (outdir / "demo.cfg").write_text(DEMO_CONFIG.read_text(encoding="utf-8"),
                                     encoding="utf-8")
    return outdir


@st.composite
def edited(draw, base):
    """``base`` with one to three of its sections' keys set to drawn values."""
    sections = re.findall(r"^\[(\w+)\]$", base, flags=re.MULTILINE)
    keys = [(section, key) for section in sections for key in SCHEMA[section]]
    text = base
    for section, key in draw(st.lists(st.sampled_from(keys), min_size=1,
                                      max_size=3, unique=True)):
        spec = SCHEMA[section][key]
        value = draw(SEEDS if key == "seed" else VALUES[spec.parse])
        # a key the section leaves out joins it after its header
        body = re.search(rf"^\[{section}\]\n(?:.+\n)*", text, flags=re.MULTILINE)
        lines = [line for line in body.group().splitlines()[1:]
                 if not line.startswith(f"{key} =")]
        text = text.replace(body.group(), "\n".join(
            [f"[{section}]", f"{key} = {value}", *lines]) + "\n")
    return text


@given(data=st.data(), name=st.sampled_from(["demo.cfg", "fits.cfg"]))
@settings(max_examples=60, deadline=None)
def test_any_value_runs_cleanly_or_fails_on_one_named_line(inputs, data, name):
    text = data.draw(edited((inputs / name).read_text(encoding="utf-8")),
                     label="config")
    # beside the inputs, which the config names by relative path
    config = inputs / "edited.cfg"
    config.write_text(text, encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for command in COMMANDS:
            out = tmp / command
            out.mkdir()
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                status = main([command, "--config", str(config),
                               "--out", str(out), "--plots"])
            err = stderr.getvalue()
            assert status in (0, 1), (command, status, err)
            if status == 0:
                assert err == "", (command, err)
                for path in out.iterdir():
                    assert not re.search(r"\bnan\b", path.read_text(
                        encoding="utf-8"), re.IGNORECASE), (command, path.name)
            else:
                assert err.startswith("error: ") and err.count("\n") == 1, (
                    command, err)
                assert NAMED.search(err), (command, err)
                assert list(out.iterdir()) == [], (command, err)
