"""Round-trip and validation tests for the CSV schemas."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from cqedkit import ConfigError, ReadoutConfig, ShotSet, simulate_shots
from cqedkit.dataio import (
    format_number,
    load_coherence_csv,
    load_kappa_offset_csv,
    load_resonator_csv,
    load_ringdown_csv,
    write_csv,
    write_shots_csv,
)
from cqedkit.readout import SHOT_BLOCK

from conftest import shot_blocks


def test_format_number_nine_significant_digits():
    assert format_number(math.pi) == "3.14159265"
    assert format_number(1.0) == "1"
    assert format_number(1.23456789012e-7) == "1.23456789e-07"
    assert format_number(-2) == "-2"


def test_write_csv_deterministic(tmp_path):
    header = ("a", "b")
    rows = [(1.0, 2.5), (3.0 / 7.0, 1e-12)]
    first = (tmp_path / "one.csv")
    second = (tmp_path / "two.csv")
    write_csv(first, header, rows)
    write_csv(second, header, rows)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().splitlines()[0] == "a,b"


def test_resonator_csv_round_trip(tmp_path):
    path = tmp_path / "resonators.csv"
    lengths = np.array([900.0, 1100.0, 1300.0])
    freqs = np.array([2.31, 2.09, 1.93])
    write_csv(path, ("spiral_length_um", "f_measured_ghz"),
              list(zip(lengths, freqs)))
    got_lengths, got_freqs = load_resonator_csv(path)
    assert got_lengths == pytest.approx(lengths)
    assert got_freqs == pytest.approx(freqs)
    # serialize-parse-serialize is byte stable
    again = tmp_path / "again.csv"
    write_csv(again, ("spiral_length_um", "f_measured_ghz"),
              list(zip(got_lengths, got_freqs)))
    assert again.read_bytes() == path.read_bytes()


def test_kappa_offset_and_ringdown_round_trips(tmp_path):
    offsets = np.array([2.0, 10.0, 25.0])
    kappas = np.array([4.8e6, 2.1e6, 4.4e5])
    path = tmp_path / "kappa.csv"
    write_csv(path, ("d_um", "kappa_per_s"), list(zip(offsets, kappas)))
    got_d, got_k = load_kappa_offset_csv(path)
    assert got_d == pytest.approx(offsets)
    assert got_k == pytest.approx(kappas)

    t = np.linspace(0.0, 2e-6, 16)
    v = np.exp(-t / 600e-9)
    trace = tmp_path / "trace.csv"
    write_csv(trace, ("t_s", "v_amplitude"), list(zip(t, v)))
    got_t, got_v = load_ringdown_csv(trace)
    assert got_t == pytest.approx(t)
    assert got_v == pytest.approx(v, rel=1e-8)


def test_coherence_csv_optional_columns(tmp_path):
    path = tmp_path / "coherence.csv"
    path.write_text(
        "f_q_ghz,t1_us,t1_spread_us,t2e_us\n"
        "4.45,35.8,1.5,47\n"
        "4.0,29.7,,\n",
        encoding="ascii")
    records = load_coherence_csv(path)
    assert records[0].f_q == pytest.approx(4.45e9)
    assert records[0].t1 == pytest.approx(35.8e-6)
    assert records[0].t1_spread == pytest.approx(1.5e-6)
    assert records[0].t2e == pytest.approx(47e-6)
    assert records[1].t1_spread is None
    assert records[1].t2e is None


def test_coherence_csv_minimal_columns(tmp_path):
    path = tmp_path / "coherence.csv"
    path.write_text("f_q_ghz,t1_us\n4.0,29.7\n4.4,26.0\n", encoding="ascii")
    records = load_coherence_csv(path)
    assert len(records) == 2
    assert records[1].f_q == pytest.approx(4.4e9)


def test_shots_csv_round_trip(tmp_path):
    config = ReadoutConfig(epsilon=4.48e6, kappa=1.0 / 300e-9,
                           chi=math.pi * 930e3, tau_m=700e-9, n_shots=500)
    shots = simulate_shots(config)
    path = tmp_path / "shots.csv"
    write_shots_csv(path, shot_blocks(shots))
    with open(path, newline="", encoding="ascii") as handle:
        header, *rows = csv.reader(handle)
    assert header == ["state", "i", "q"]
    assert [row[0] for row in rows] == ["g"] * 500 + ["e"] * 500
    values = np.array([row[1:] for row in rows], dtype=float)
    loaded = ShotSet(i_ground=values[:500, 0], q_ground=values[:500, 1],
                     i_excited=values[500:, 0], q_excited=values[500:, 1])
    for name in ("i_ground", "q_ground", "i_excited", "q_excited"):
        assert getattr(loaded, name) == pytest.approx(
            getattr(shots, name), rel=1e-8)
    # rewriting the values read back reproduces the file byte for byte
    again = tmp_path / "again.csv"
    write_shots_csv(again, shot_blocks(loaded))
    assert again.read_bytes() == path.read_bytes()


def test_shots_csv_matches_row_writer(tmp_path):
    # Values that stress the 9-significant-digit format: signed zero,
    # extreme exponents, subnormals and ties on the ninth digit.
    awkward = np.array([-0.0, 0.0, 1e-300, 1e300, 123456789.5, 999999999.5,
                        9.999999995, 0.1234567895, 1.0000000005e-5,
                        -2.5e-7, 5e-324, -1.7976931348623157e308])
    shots = ShotSet(i_ground=awkward, q_ground=awkward[::-1].copy(),
                    i_excited=-awkward[::-1], q_excited=awkward / 3.0)
    rows = [("g", i, q) for i, q in zip(shots.i_ground, shots.q_ground)]
    rows += [("e", i, q) for i, q in zip(shots.i_excited, shots.q_excited)]
    reference = write_csv(tmp_path / "rows.csv", ("state", "i", "q"), rows)
    written = write_shots_csv(tmp_path / "shots.csv", shot_blocks(shots))
    assert written.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("n", [1, SHOT_BLOCK - 1, SHOT_BLOCK,
                               SHOT_BLOCK + 1, 2 * SHOT_BLOCK + 1])
def test_shots_csv_block_edges_match_row_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    i_g, q_g, i_e, q_e = rng.standard_normal((4, n)) * 10.0 ** rng.integers(
        -12, 12, size=(4, n))
    shots = ShotSet(i_ground=i_g, q_ground=q_g, i_excited=i_e, q_excited=q_e)
    rows = [("g", i, q) for i, q in zip(i_g, q_g)]
    rows += [("e", i, q) for i, q in zip(i_e, q_e)]
    reference = write_csv(tmp_path / "rows.csv", ("state", "i", "q"), rows)
    written = write_shots_csv(tmp_path / "shots.csv", shot_blocks(shots))
    assert written.read_bytes() == reference.read_bytes()


def test_shots_csv_memory_does_not_grow_with_shots(tmp_path):
    n = 100_000
    i_g, q_g, i_e, q_e = np.random.default_rng(5).standard_normal((4, n))
    shots = ShotSet(i_ground=i_g, q_ground=q_g, i_excited=i_e, q_excited=q_e)
    tracemalloc.start()
    try:
        write_shots_csv(tmp_path / "shots.csv", shot_blocks(shots))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file is about 5 MB; writing it whole would peak far above that
    assert peak < 4e6


def test_unknown_column_named(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("d_um,kappa_per_s,extra\n1,2,3\n", encoding="ascii")
    with pytest.raises(ConfigError, match="unknown column.*extra"):
        load_kappa_offset_csv(path)


def test_missing_column_named(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("d_um\n1\n", encoding="ascii")
    with pytest.raises(ConfigError, match="missing required column.*kappa_per_s"):
        load_kappa_offset_csv(path)


SPACED_HEADERS = [
    (load_resonator_csv, "spiral_length_um, f_measured_ghz", "800,5.1"),
    (load_kappa_offset_csv, " d_um , kappa_per_s", "2,4e6"),
    (load_ringdown_csv, "t_s,  v_amplitude", "0,1"),
    (load_coherence_csv, "f_q_ghz, t1_us, t2e_us", "4.0,29.7,40"),
]


@pytest.mark.parametrize("loader, header, row", SPACED_HEADERS,
                         ids=[case[0].__name__ for case in SPACED_HEADERS])
def test_header_names_with_spaces_load(tmp_path, loader, header, row):
    path = tmp_path / "spaced.csv"
    path.write_text(f"{header}\n{row}\n", encoding="ascii")
    tight = tmp_path / "tight.csv"
    tight.write_text(f"{header.replace(' ', '')}\n{row}\n", encoding="ascii")
    loaded, expected = loader(path), loader(tight)
    if loader is load_coherence_csv:
        assert loaded == expected
    else:
        assert [col.tolist() for col in loaded] == [
            col.tolist() for col in expected]


@pytest.mark.parametrize("text, error", [
    ("t_s, v_amplitude\n0,1\n1e-7,0.5\n", None),
    ("t_s,t_s,v_amplitude\n0,1,1\n", r"repeated column\(s\) t_s$"),
    ("t_s,v_amplitude\n0,1\n1e-7,0.5,9\n",
     r"trace\.csv: row 3: 3 cells under a 2-column header"),
    # a spreadsheet export's trailing comma
    ("t_s,v_amplitude,\n0,1,\n",
     r"trace\.csv: column 3 of the header has no name$"),
], ids=["spaced-header", "repeated-column", "extra-cell", "unnamed-column"])
def test_malformed_header_or_row(tmp_path, text, error):
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="ascii")
    if error is None:
        t, v = load_ringdown_csv(path)
        assert t.tolist() == [0.0, 1e-7] and v.tolist() == [1.0, 0.5]
    else:
        with pytest.raises(ConfigError, match=error):
            load_ringdown_csv(path)


def test_bad_number_reports_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("d_um,kappa_per_s\n1,2e6\noops,3e6\n", encoding="ascii")
    with pytest.raises(ConfigError, match="row 3, column d_um"):
        load_kappa_offset_csv(path)


NON_FINITE = ["nan", "inf", "-inf", "NaN", "Infinity"]


@pytest.mark.parametrize("text", NON_FINITE)
def test_ringdown_rejects_non_finite_cell(tmp_path, text):
    path = tmp_path / "trace.csv"
    path.write_text(f"t_s,v_amplitude\n0,1\n1e-7,{text}\n",
                    encoding="ascii")
    with pytest.raises(ConfigError, match=(
            rf"row 3, column v_amplitude: must be finite, got {float(text)}$")):
        load_ringdown_csv(path)


@pytest.mark.parametrize("text", NON_FINITE)
def test_kappa_offset_rejects_non_finite_cell(tmp_path, text):
    path = tmp_path / "kappa.csv"
    path.write_text(f"d_um,kappa_per_s\n{text},2e6\n", encoding="ascii")
    with pytest.raises(ConfigError, match=(
            rf"row 2, column d_um: must be finite, got {float(text)}$")):
        load_kappa_offset_csv(path)


@pytest.mark.parametrize("text", NON_FINITE)
def test_coherence_rejects_non_finite_cell(tmp_path, text):
    path = tmp_path / "coherence.csv"
    path.write_text(f"f_q_ghz,t1_us,t1_spread_us\n4.0,29.7,1\n"
                    f"4.4,26.0,{text}\n", encoding="ascii")
    with pytest.raises(ConfigError, match=(
            rf"row 3, column t1_spread_us: must be finite, got {float(text)}$")):
        load_coherence_csv(path)


def test_empty_inputs_rejected(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="ascii")
    with pytest.raises(ConfigError, match="empty file"):
        load_ringdown_csv(empty)
    header_only = tmp_path / "header.csv"
    header_only.write_text("t_s,v_amplitude\n", encoding="ascii")
    with pytest.raises(ConfigError, match="no data rows"):
        load_ringdown_csv(header_only)
    missing = tmp_path / "nothing.csv"
    with pytest.raises(ConfigError, match="cannot read"):
        load_ringdown_csv(missing)


def test_empty_cell_in_required_column(tmp_path):
    path = tmp_path / "bad.csv"
    for loader, text, column in [
            (load_ringdown_csv, "t_s,v_amplitude\n0.0,\n", "v_amplitude"),
            (load_coherence_csv,
             "f_q_ghz,t1_us,t2e_us\n4.0,29.7,40\n4.4, ,40\n", "t1_us")]:
        path.write_text(text, encoding="ascii")
        with pytest.raises(ConfigError,
                           match=rf"row \d, column {column}: empty value$"):
            loader(path)


def test_shot_set_mismatched_arrays_rejected():
    with pytest.raises(Exception):
        ShotSet(i_ground=np.zeros(2), q_ground=np.zeros(2),
                i_excited=np.zeros(2), q_excited=np.zeros(3))


# Blank lines 2 and 5 count: the bad cell on line 6 is reported at line 6,
# not as the third data row.
BLANK_LINE_CASES = [
    (load_resonator_csv, "spiral_length_um,f_measured_ghz", "800,5.1",
     "900,nan", "f_measured_ghz"),
    (load_kappa_offset_csv, "d_um,kappa_per_s", "2,4e6", "nan,3e6", "d_um"),
    (load_ringdown_csv, "t_s,v_amplitude", "0,1", "2e-7,nan", "v_amplitude"),
    (load_coherence_csv, "f_q_ghz,t1_us", "4.0,29.7", "4.4,nan", "t1_us"),
]


@pytest.mark.parametrize("loader, header, good, bad, column", BLANK_LINE_CASES,
                         ids=[case[0].__name__ for case in BLANK_LINE_CASES])
def test_errors_name_the_file_line(tmp_path, loader, header, good, bad, column):
    path = tmp_path / "blank.csv"
    path.write_text("\n".join([header, "", good, good, "", bad]) + "\n",
                    encoding="ascii")
    with pytest.raises(ConfigError, match=rf"row 6, column {column}: "):
        loader(path)
    path.write_text("\n".join([header, "", good, "", good + ",1"]) + "\n",
                    encoding="ascii")
    with pytest.raises(ConfigError, match=r"row 5: \d+ cells under a"):
        loader(path)


def test_byte_order_mark_loads_like_the_plain_file(tmp_path):
    text = "t_s,v_amplitude\n0,1\n1e-7,0.5\n"
    plain = tmp_path / "plain.csv"
    plain.write_text(text, encoding="ascii")
    marked = tmp_path / "marked.csv"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert [col.tolist() for col in load_ringdown_csv(marked)] == [
        col.tolist() for col in load_ringdown_csv(plain)]


def test_undecodable_csv_names_the_file(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"t_s,v_amplitude\n0,1\n1e-7,0.5\xff\n")
    with pytest.raises(ConfigError, match=rf"^{path}: not UTF-8 text"):
        load_ringdown_csv(path)


@pytest.mark.parametrize("bad_line", [3, 2000])
def test_undecodable_csv_names_the_line(tmp_path, bad_line):
    """The line of the first bad byte, also past the reader's 8 KB decode
    chunk (line 2000 starts beyond byte 10000)."""
    rows = [b"%d,0.5" % k for k in range(bad_line - 2)]
    rows.append(b"1e-3,0.5\xff")
    path = tmp_path / "trace.csv"
    path.write_bytes(b"t_s,v_amplitude\n" + b"\n".join(rows) + b"\n0,1\n")
    with pytest.raises(ConfigError, match=rf"^{path}: not UTF-8 text at line "
                                          rf"{bad_line}: invalid start byte$"):
        load_ringdown_csv(path)
