"""CSV schemas shared by the library and the command-line front end.

All numeric fields are written with 9 significant digits and '\n' line
endings so identical inputs produce byte-identical files. A loaded file
is declared as a ``{column: config.Key}`` map. Loaders accept exactly
those columns (in any order, spaces around a name ignored), report
unnamed, unknown, repeated or missing ones, and a row with more cells
than the header, and parse each cell with the config's ``parse_value``:
a cell that is empty, not a finite number or outside its column's bound
fails naming the row and column. Rows are numbered by their line in the
file, blank lines included. Files are read as UTF-8, with or without the
byte-order mark that spreadsheets write.

The writers need no numpy. The loaders that build arrays or records
import numpy or ``coherence`` when called, so writing the closed-form
commands' tables never loads them.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING

from .config import Key, parse_value
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


RESONATOR = {"spiral_length_um": Key("float", bound="positive"),
             "f_measured_ghz": Key("float", bound="positive")}
KAPPA_OFFSET = {"d_um": Key("float", bound="nonnegative"),
                "kappa_per_s": Key("float", bound="positive")}
RINGDOWN = {"t_s": Key("float"), "v_amplitude": Key("float")}
COHERENCE = {"f_q_ghz": Key("float", bound="positive"),
             "t1_us": Key("float", bound="positive"),
             "t1_spread_us": Key("float", default=None, bound="positive"),
             "t2e_us": Key("float", default=None, bound="positive")}


def _read_rows(path, columns):
    """The data rows as ``(line number, {column: value})`` pairs, after the
    header checks, each cell parsed by its entry in ``columns``."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                raise ConfigError(f"{path}: empty file, expected a CSV header")
            # rows are keyed by the stripped names, as the checks see them
            fields = reader.fieldnames = [
                name.strip() for name in reader.fieldnames]
            unnamed = [str(n) for n, name in enumerate(fields, 1) if not name]
            if unnamed:
                raise ConfigError(f"{path}: column {', '.join(unnamed)} "
                                  "of the header has no name")
            unknown = [name for name in fields if name not in columns]
            if unknown:
                raise ConfigError(
                    f"{path}: unknown column(s) {', '.join(unknown)}")
            repeated = sorted({name for name in fields
                               if fields.count(name) > 1})
            if repeated:
                raise ConfigError(
                    f"{path}: repeated column(s) {', '.join(repeated)}")
            missing = [name for name, spec in columns.items()
                       if spec.required and name not in fields]
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
    parsed = []
    for number, row in rows:
        # DictReader files cells beyond the header under the key None
        if None in row:
            raise ConfigError(
                f"{path}: row {number}: {len(fields) + len(row[None])} "
                f"cells under a {len(fields)}-column header")
        values = {}
        for column, spec in columns.items():
            # a short row, or an absent optional column, reads as None
            text = (row.get(column) or "").strip()
            try:
                if not text and spec.required:
                    raise ConfigError(f"{column}: empty value")
                values[column] = parse_value(column, spec, text) if text else spec.default
            except ConfigError as exc:
                # the file and row join the column's label only on an error
                raise ConfigError(f"{path}: row {number}, column {exc}") from None
        parsed.append((number, values))
    return parsed


def _load_columns(path, columns):
    """The columns as arrays, in the order of ``columns``."""
    import numpy as np

    rows = _read_rows(path, columns)
    return tuple(np.array([row[column] for _, row in rows]) for column in columns)


def load_resonator_csv(path):
    """Measured spiral resonators: spiral_length_um, f_measured_ghz."""
    return _load_columns(path, RESONATOR)


def load_kappa_offset_csv(path):
    """Measured coupling versus feed offset: d_um, kappa_per_s."""
    return _load_columns(path, KAPPA_OFFSET)


def load_ringdown_csv(path):
    """Ring-down trace: t_s, v_amplitude."""
    return _load_columns(path, RINGDOWN)


def load_coherence_csv(path) -> list[CoherenceRecord]:
    """Coherence records: f_q_ghz, t1_us and optional t1_spread_us, t2e_us."""
    from .coherence import CoherenceRecord

    records = []
    for number, row in _read_rows(path, COHERENCE):
        spread, t2e = row["t1_spread_us"], row["t2e_us"]
        try:
            # scaling can still leave the domain: 1e-320 us is 0.0 s
            records.append(CoherenceRecord(
                f_q=row["f_q_ghz"] * 1e9,
                t1=row["t1_us"] * 1e-6,
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
