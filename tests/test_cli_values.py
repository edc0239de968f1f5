"""Property: any config value or CSV cell runs cleanly, or fails on one
named line.

Hypothesis sets one to three keys of ``configs/demo.cfg``, or of the
``fits.cfg`` that ``scripts/make_demo_inputs.py`` writes, to values of
each key's parse type: floats from 1e-300 to 1e300 with zero and
negatives, small and out-of-range integers, booleans, and file names.
Each edited config runs through ``cli.main`` for all eight commands.
It also edits one or two columns of one of the four demo CSVs: it scales
a column by 10^k (subnormal, zero and infinite results included), makes
a column constant, cuts the file to one or two data rows, or reverses
the rows, and runs the command that reads the file.

Every run exits 0 with nothing on stderr and no ``nan`` or ``inf`` in any
artifact, or exits 1 with a single ``error:`` line that names a config
section or a CSV file, no traceback, and no file in its output directory.
The one ``inf`` a correct run writes is ``t1_budget.csv``'s
``t1_purcell_us`` with no Purcell channel, whose limit is infinite: there
the column is ``inf`` in every row. A ``nan`` anywhere fails the run.
"""

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqedkit.cli import COMMANDS, main
from cqedkit.config import SCHEMA

from conftest import scaled, write_demo_configs

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

# The config that names each demo CSV, and the command that reads it;
# measured.cfg is demo.cfg with [sweep] measured_csv set
READERS = {"spiral_measured.csv": ("measured.cfg", "sweep-spiral"),
           "ringdown.csv": ("fits.cfg", "fit-kappa"),
           "kappa_offset.csv": ("fits.cfg", "fit-kappa"),
           "coherence.csv": ("fits.cfg", "fit-qdiel")}
# the demo CSVs' values span 1e-6 to 1e7, so these reach past both ends
# of the float range
POWERS = st.one_of(st.integers(min_value=-30, max_value=30),
                   st.integers(min_value=-330, max_value=330))

# an error line names a config section, a file or a row of one
NAMED = re.compile(r"\[[a-z_]+\]|\.(csv|cfg)\b")


@pytest.fixture(scope="module")
def inputs(demo_inputs, tmp_path_factory):
    """A directory of the base configs and the demo CSVs they name."""
    outdir = tmp_path_factory.mktemp("inputs")
    demo_inputs.write_inputs(outdir, np.random.default_rng(7).standard_normal)
    write_demo_configs(outdir)
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


@st.composite
def edited_table(draw, base):
    """The CSV text ``base`` after one or two drawn edits of its rows."""
    header, *rows = [line.split(",") for line in base.splitlines()]
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        edit = draw(st.sampled_from(["scale", "constant", "cut", "reverse"]))
        column = draw(st.integers(min_value=0, max_value=len(header) - 1))
        if edit == "scale":
            power = draw(POWERS)
            for row in rows:
                row[column] = scaled(row[column], power)
        elif edit == "constant":
            value = draw(st.sampled_from(rows))[column]
            for row in rows:
                row[column] = value
        elif edit == "cut":
            rows = rows[:draw(st.integers(min_value=1, max_value=2))]
        else:
            rows = rows[::-1]
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _unmeant(path: Path) -> list[str]:
    """The ``nan`` and ``inf`` words in an artifact, but for
    ``t1_budget.csv``'s ``t1_purcell_us`` where it is ``inf`` in every row,
    the infinite limit of no Purcell channel."""
    text = path.read_text(encoding="utf-8")
    if path.name == "t1_budget.csv":
        header, *rows = [line.split(",") for line in text.splitlines()]
        at = header.index("t1_purcell_us")
        if all(row[at] == "inf" for row in rows):
            text = "\n".join(",".join(row[:at] + row[at + 1:])
                             for row in [header, *rows])
    return re.findall(r"\b(?:nan|inf)\b", text, flags=re.IGNORECASE)


def check_run(command: str, config: Path, out: Path) -> None:
    """Run ``command`` on ``config`` into the new directory ``out``: it exits
    0 with clean artifacts, or 1 on one named line, leaving no file."""
    out.mkdir()
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        status = main([command, "--config", str(config), "--out", str(out),
                       "--plots"])
    err = stderr.getvalue()
    assert status in (0, 1), (command, status, err)
    if status == 0:
        assert err == "", (command, err)
        for path in out.iterdir():
            assert not _unmeant(path), (command, path.name, _unmeant(path))
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
        assert NAMED.search(err), (command, err)
        assert list(out.iterdir()) == [], (command, err)


@given(data=st.data(), name=st.sampled_from(["demo.cfg", "fits.cfg"]))
@settings(max_examples=60, deadline=None)
def test_any_value_runs_cleanly_or_fails_on_one_named_line(inputs, data, name):
    text = data.draw(edited((inputs / name).read_text(encoding="utf-8")),
                     label="config")
    # beside the inputs, which the config names by relative path
    config = inputs / "edited.cfg"
    config.write_text(text, encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            check_run(command, config, Path(tmp) / command)


@given(data=st.data(), name=st.sampled_from(sorted(READERS)))
@settings(max_examples=60, deadline=None)
def test_any_csv_edit_runs_cleanly_or_fails_on_one_named_line(inputs, data, name):
    text = data.draw(edited_table((inputs / name).read_text(encoding="utf-8")),
                     label=name)
    config, command = READERS[name]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for path in inputs.glob("*.c*"):
            shutil.copy(path, tmp)
        (tmp / name).write_text(text, encoding="utf-8")
        check_run(command, tmp / config, tmp / "out")


@pytest.mark.parametrize("purcell, flagged", [
    (["inf", "inf"], []),
    (["inf", "nan"], ["inf", "nan"]),
    (["2.5", "inf"], ["inf"]),
], ids=["no-channel", "nan", "partly-inf"])
def test_unmeant_spares_only_a_purcell_column_inf_throughout(
        tmp_path, purcell, flagged):
    path = tmp_path / "t1_budget.csv"
    path.write_text("f_q_ghz,t1_dielectric_us,t1_purcell_us,t1_total_us,t2_us\n"
                    + "".join(f"4,30,{cell},30,40\n" for cell in purcell),
                    encoding="utf-8")
    assert _unmeant(path) == flagged
