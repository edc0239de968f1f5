"""CSV schemas shared by the library and the command-line front end.

All numeric fields are written with 9 significant digits and '\n' line
endings so identical inputs produce byte-identical files. Loaders accept
exactly the documented columns (in any order, spaces around a name
ignored) and report unknown, repeated or missing ones by name; a row
with more cells than the header is reported by row, a cell that is not
a finite number (or a kappa that is not positive, or an offset that is
negative) by row and column, and a coherence record out of its domain by
row. Rows are numbered by their
line in the file, blank lines included. Files are read as UTF-8, with or
without the byte-order mark that spreadsheets write.

The writers need no numpy. The loaders that build arrays or records
import numpy or ``coherence`` when called, so writing the closed-form
commands' tables never loads them.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError, DomainError, not_utf8

if TYPE_CHECKING:
    from .coherence import CoherenceRecord

SIGNIFICANT_DIGITS = 9


def format_number(value) -> str:
    return format(float(value), f".{SIGNIFICANT_DIGITS}g")


def write_csv(path, header, rows) -> Path:
    """Write rows of numbers/strings under a fixed header, deterministically."""
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else format_number(cell)
            for cell in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def _read_rows(path, required, optional=()):
    """The data rows as ``(line number, row)`` pairs, after the header checks."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                raise ConfigError(f"{path}: empty file, expected a CSV header")
            # rows are keyed by the stripped names, as the checks see them
            fields = reader.fieldnames = [
                name.strip() for name in reader.fieldnames]
            known = set(required) | set(optional)
            unknown = [name for name in fields if name not in known]
            if unknown:
                raise ConfigError(
                    f"{path}: unknown column(s) {', '.join(unknown)}")
            repeated = sorted({name for name in fields
                               if fields.count(name) > 1})
            if repeated:
                raise ConfigError(
                    f"{path}: repeated column(s) {', '.join(repeated)}")
            missing = [name for name in required if name not in fields]
            if missing:
                raise ConfigError(
                    f"{path}: missing required column(s) {', '.join(missing)}")
            rows = [(reader.line_num, row) for row in reader]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from exc
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    for number, row in rows:
        # DictReader files cells beyond the header under the key None
        if None in row:
            raise ConfigError(
                f"{path}: row {number}: {len(fields) + len(row[None])} "
                f"cells under a {len(fields)}-column header")
    return rows


def _parse_float(path, row_number, column, text):
    text = (text or "").strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(
            f"{path}: row {row_number}, column {column}: "
            f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(
            f"{path}: row {row_number}, column {column}: "
            f"not finite: {text!r}")
    return value


def _load_columns(path, columns, bounds=None):
    """The columns as arrays; ``bounds`` maps a column to its sign rule."""
    import numpy as np

    bounds = bounds or {}
    out = []
    for number, row in _read_rows(path, required=columns):
        values = []
        for column in columns:
            value = _parse_float(path, number, column, row[column])
            if value is None:
                raise ConfigError(
                    f"{path}: row {number}, column {column}: empty value")
            bound = bounds.get(column)
            if (bound == "positive" and value <= 0.0
                    or bound == "nonnegative" and value < 0.0):
                raise ConfigError(f"{path}: row {number}, column {column}: "
                                  f"must be {bound}, got {value}")
            values.append(value)
        out.append(values)
    return tuple(np.array(col) for col in zip(*out))


def load_resonator_csv(path):
    """Measured spiral resonators: spiral_length_um, f_measured_ghz."""
    return _load_columns(path, ("spiral_length_um", "f_measured_ghz"))


def load_kappa_offset_csv(path):
    """Measured coupling versus feed offset: d_um, kappa_per_s."""
    return _load_columns(path, ("d_um", "kappa_per_s"),
                         bounds={"d_um": "nonnegative", "kappa_per_s": "positive"})


def load_ringdown_csv(path):
    """Ring-down trace: t_s, v_amplitude."""
    return _load_columns(path, ("t_s", "v_amplitude"))


def load_coherence_csv(path) -> list[CoherenceRecord]:
    """Coherence records: f_q_ghz, t1_us and optional t1_spread_us, t2e_us."""
    from .coherence import CoherenceRecord

    rows = _read_rows(path, required=("f_q_ghz", "t1_us"),
                      optional=("t1_spread_us", "t2e_us"))
    records = []
    for number, row in rows:
        f_q = _parse_float(path, number, "f_q_ghz", row["f_q_ghz"])
        t1 = _parse_float(path, number, "t1_us", row["t1_us"])
        if f_q is None or t1 is None:
            raise ConfigError(
                f"{path}: row {number}: f_q_ghz and t1_us must be set")
        spread = _parse_float(path, number, "t1_spread_us",
                              row.get("t1_spread_us"))
        t2e = _parse_float(path, number, "t2e_us", row.get("t2e_us"))
        try:
            records.append(CoherenceRecord(
                f_q=f_q * 1e9,
                t1=t1 * 1e-6,
                t1_spread=None if spread is None else spread * 1e-6,
                t2e=None if t2e is None else t2e * 1e-6,
            ))
        except DomainError as exc:
            raise ConfigError(f"{path}: row {number}: {exc}") from None
    return records


def write_shots_csv(path, blocks) -> Path:
    """Write ``(state, block)`` pairs as state,i,q rows, in the order given.

    Each block is a (2, count) array of I and Q rows, as
    ``readout.stream_shots`` yields them. A block is formatted and written
    before the next is taken, so memory does not grow with the number of
    shots. Same bytes as ``write_csv`` on the (state, i, q) rows.
    """
    path = Path(path)
    number = f"%.{SIGNIFICANT_DIGITS}g"
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write("state,i,q\n")
        for state, block in blocks:
            row = f"{state},{number},{number}\n"
            # the transpose interleaves each shot's (i, q) pair
            handle.write((row * block.shape[1])
                         % tuple(block.T.ravel().tolist()))
    return path
