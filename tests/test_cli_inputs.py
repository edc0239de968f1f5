"""Property: damaged fit inputs fail cleanly, or not at all.

``scripts/make_demo_inputs.py`` writes the inputs of the three fit
commands: ``ringdown.csv``, ``kappa_offset.csv``, ``coherence.csv`` and
``fits.cfg``, which names them. Hypothesis damages one of these files the
way editors, spreadsheets and transfers do, and each damaged set runs
through ``cli.main`` for fit-lk, fit-kappa and fit-qdiel. Every run exits
0, or exits 1 with a single ``error: `` line on stderr, no traceback, and
no file in its output directory.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqedkit.cli import main

FILES = ("ringdown.csv", "kappa_offset.csv", "coherence.csv", "fits.cfg")
COMMANDS = ("fit-lk", "fit-kappa", "fit-qdiel")


def _edit_line(data: bytes, k: int, edit) -> bytes:
    lines = data.split(b"\n")
    lines[k % len(lines)] = edit(lines[k % len(lines)])
    return b"\n".join(lines)


def _quote_cell(line: bytes, k: int) -> bytes:
    cells = line.split(b",")
    cells[k % len(cells)] = b'"' + cells[k % len(cells)] + b'"'
    return b",".join(cells)


# Each takes the file's bytes and a drawn integer that places the damage.
MUTATIONS = {
    "blank line": lambda data, k: _edit_line(data, k, lambda line: b"\n" + line),
    "byte-order mark": lambda data, k: b"\xef\xbb\xbf" + data,
    "CRLF line ends": lambda data, k: data.replace(b"\n", b"\r\n"),
    "space": lambda data, k: data[:k % (len(data) + 1)] + b" "
    + data[k % (len(data) + 1):],
    "quoted cell": lambda data, k: _edit_line(
        data, k, lambda line: _quote_cell(line, k // 7)),
    "added cell": lambda data, k: _edit_line(data, k, lambda line: line + b",1"),
    "dropped cell": lambda data, k: _edit_line(
        data, k, lambda line: line.rpartition(b",")[0]),
    "truncation": lambda data, k: data[:k % (len(data) + 1)],
    "stray byte": lambda data, k: data[:k % (len(data) + 1)]
    + bytes([0x80 + k % 0x80]) + data[k % (len(data) + 1):],
    "non-ASCII text": lambda data, k: data[:k % (len(data) + 1)]
    + "µ".encode() + data[k % (len(data) + 1):],
}


@pytest.fixture(scope="module")
def pristine(demo_inputs, tmp_path_factory):
    """The bytes of the fit inputs, as ``make_demo_inputs.py`` writes them."""
    outdir = tmp_path_factory.mktemp("pristine")
    demo_inputs.write_inputs(outdir, np.random.default_rng(7).standard_normal)
    return {name: (outdir / name).read_bytes() for name in FILES}


@given(target=st.sampled_from(FILES),
       steps=st.lists(st.tuples(st.sampled_from(sorted(MUTATIONS)),
                                st.integers(min_value=0, max_value=2**20)),
                      min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_damaged_inputs_fail_cleanly(pristine, target, steps):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in pristine.items():
            (tmp / name).write_bytes(data)
        data = pristine[target]
        for mutation, k in steps:
            data = MUTATIONS[mutation](data, k)
        (tmp / target).write_bytes(data)
        for command in COMMANDS:
            out = tmp / command
            out.mkdir()
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                status = main([command, "--config", str(tmp / "fits.cfg"),
                               "--out", str(out)])
            err = stderr.getvalue()
            assert status in (0, 1), (command, status, err)
            if status == 1:
                assert err.startswith("error: ") and err.count("\n") == 1, (
                    command, err)
                assert list(out.iterdir()) == [], command
