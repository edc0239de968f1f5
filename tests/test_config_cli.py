"""Configuration parsing and command-line behavior tests."""

import math
import os
import random
import re
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqedkit import ConfigError, coherence, readout
from cqedkit.cli import main
from cqedkit.config import SCHEMA, parse_config, render_resolved
from cqedkit.dataio import format_number, load_coherence_csv, write_csv
from cqedkit.floats import linspace, normal

FULL_CONFIG = """
[geometry]
disk_radius_um = 40
line_width_um = 2
gap_um = 2
turns = 20

[film]
lk_nominal_ph_sq = 2.0
lk_low_ph_sq = 2.0
lk_high_ph_sq = 2.2

[resonator]
c_total_ff = 85
q_coupling = 1e4

[readout]
n_shots = 2000

[run]
seed = 3
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text.strip() + "\n", encoding="utf-8")
    return path


def test_parse_minimal_config_fills_defaults(tmp_path):
    path = write_config(tmp_path, FULL_CONFIG)
    config = parse_config(path)
    assert config.require("run") == {"seed": 3, "emit_plots": False}
    geometry = config.require("geometry")
    assert geometry["feed_offset_um"] == 20.0     # documented default
    readout = config.require("readout")
    assert readout["kappa_inv_ns"] == 300.0
    assert readout["two_chi_khz"] == 930.0
    assert readout["tau_m_ns"] == 700.0
    assert readout["target_snr"] == 5.0
    assert readout["n_shots"] == 2000
    assert readout["tau_list_ns"] == (175.0, 350.0, 700.0, 1400.0, 2800.0)


def test_unknown_section_and_key_are_named(tmp_path):
    bad_section = write_config(tmp_path, "[nonsense]\nx = 1\n", "a.cfg")
    with pytest.raises(ConfigError, match=r"unknown config section \[nonsense\]"):
        parse_config(bad_section)
    bad_key = write_config(tmp_path, "[readout]\nshots = 3\n", "b.cfg")
    with pytest.raises(ConfigError, match=r"\[readout\]: unknown key.*shots"):
        parse_config(bad_key)


def test_cpw_termination_is_an_unknown_key(tmp_path, capsys):
    # the CPW test structure is a quarter-wave resonator; nothing sets that
    path = write_config(tmp_path, LK_SECTION + "termination = quarter-wave\n")
    out = tmp_path / "out"
    assert main(["fit-lk", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: config: [lk]: unknown key(s) termination\n")
    assert not out.exists()


@pytest.mark.parametrize("section, key", [
    ("loss", "purcell_two_chi_khz"), ("loss", "purcell_ref_f_q_ghz"),
    ("loss", "anharmonicity_ghz"), ("readout", "epsilon_per_s"),
    ("geometry", "spiral_length_um"), ("resonator", "kappa0_per_s"),
    ("resonator", "d0_um"), ("loss", "purcell_kappa_inv_ns"),
    ("readout", "transient"), ("run", "output_dir"),
])
def test_dropped_route_keys_are_unknown(section, key, tmp_path, capsys):
    # each quantity has one key: purcell_g_mhz, target_snr, turns,
    # q_coupling, and [readout] kappa_inv_ns for the one resonator's
    # linewidth; the CLI's shots are steady-state, and --out alone names
    # the output directory
    path = write_config(tmp_path, DEMO_CONFIG.read_text(encoding="utf-8").replace(
        f"[{section}]\n", f"[{section}]\n{key} = 1\n"))
    out = tmp_path / "out"
    assert main(["design-resonator", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: config: [{section}]: unknown key(s) {key}\n")
    assert not out.exists()


def test_missing_required_key_named(tmp_path):
    path = write_config(tmp_path, "[geometry]\ndisk_radius_um = 40\n")
    with pytest.raises(ConfigError,
                       match=r"\[geometry\]: missing required key line_width_um"):
        parse_config(path)


def test_type_and_sign_errors_name_the_key(tmp_path):
    bad_type = write_config(tmp_path, "[readout]\ntau_m_ns = soon\n", "a.cfg")
    with pytest.raises(ConfigError, match=r"\[readout\] tau_m_ns: cannot parse"):
        parse_config(bad_type)
    bad_sign = write_config(tmp_path, "[readout]\ntau_m_ns = -5\n", "b.cfg")
    with pytest.raises(ConfigError, match=r"\[readout\] tau_m_ns: must be positive"):
        parse_config(bad_sign)


FINITE_KEYS = [(section, key) for section, keys in SCHEMA.items()
               for key, spec in keys.items()
               if spec.parse in ("float", "float_list")]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", FINITE_KEYS)
def test_non_finite_values_name_the_key(tmp_path, section, key, text):
    # Every required key of the section is set validly, so only `key`
    # fails. This includes [loss] q_diel = inf: "no dielectric loss" is
    # written as a large finite Q.
    values = {name: "1" for name, spec in SCHEMA[section].items()
              if spec.required}
    is_list = SCHEMA[section][key].parse == "float_list"
    values[key] = f"175, {text}" if is_list else text
    body = "\n".join(f"{name} = {value}" for name, value in values.items())
    path = write_config(tmp_path, f"[{section}]\n{body}\n")
    with pytest.raises(ConfigError,
                       match=rf"\[{section}\] {key}: must be finite, got"):
        parse_config(path)


CONSTRAINED_KEYS = [(section, key) for section, keys in SCHEMA.items()
                    for key, spec in keys.items()
                    if spec.bound is not None]


@pytest.mark.parametrize("section,key", CONSTRAINED_KEYS)
def test_out_of_domain_values_name_the_key(tmp_path, section, key):
    values = {name: "1" for name, spec in SCHEMA[section].items()
              if spec.required}
    values[key] = "-1"
    body = "\n".join(f"{name} = {value}" for name, value in values.items())
    path = write_config(tmp_path, f"[{section}]\n{body}\n")
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: "
                       r"must be (positive|nonnegative), got -1"):
        parse_config(path)


def test_parse_error_reports_line_number(tmp_path):
    path = write_config(tmp_path, "[readout]\nthis line has no equals sign\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(path)


def test_key_before_any_section_reports_its_line_number(tmp_path):
    path = write_config(tmp_path, "# no header yet\nturns = 5\n[geometry]\n")
    with pytest.raises(ConfigError, match=r": parse error at line 2$"):
        parse_config(path)


def test_film_band_constraint_named(tmp_path, capsys):
    # one check and one text, FilmProperties'; the command names the keys
    path = write_config(tmp_path, FULL_CONFIG.replace(
        "lk_low_ph_sq = 2.0", "lk_low_ph_sq = 2.1"))
    out = tmp_path / "out"
    assert main(["design-resonator", "--config", str(path),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: config: [film] lk_low_ph_sq, lk_nominal_ph_sq, lk_high_ph_sq: "
        "film band must satisfy lk_low <= lk_nominal <= lk_high\n")
    assert list(out.iterdir()) == []


def test_sweep_ordering_constraint(tmp_path):
    path = write_config(
        tmp_path, "[sweep]\nlength_min_um = 900\nlength_max_um = 900\n")
    with pytest.raises(ConfigError, match="length_min_um must be below"):
        parse_config(path)


@pytest.mark.parametrize("text, message", [
    ("[sweep]\nlength_min_um = 2000\nlength_max_um = 6000\npoints = 1\n",
     r"^\[sweep\] points: must be at least 2"),
    ("[loss]\nq_diel = 1e6\npoints = 1\n",
     r"^\[loss\] points: must be at least 2 unless"),
    ("[loss]\nq_diel = 1e6\nf_q_min_ghz = 4.0\nf_q_max_ghz = 4.5\npoints = 1\n",
     r"^\[loss\] points: must be at least 2 unless"),
    ("[loss]\nq_diel = 1e6\nf_q_min_ghz = 4.8\nf_q_max_ghz = 3.5\n",
     r"^\[loss\]: f_q_min_ghz must not exceed f_q_max_ghz$"),
])
def test_grid_over_a_range_needs_ordered_ends_and_two_points(
        tmp_path, capsys, text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(write_config(tmp_path, text))
    command = "sweep-spiral" if text.startswith("[sweep]") else "budget-t1"
    path = write_config(tmp_path, FULL_CONFIG + text, "full.cfg")
    assert _run([command, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: config: ")
    assert not (tmp_path / "out").exists()


def test_loss_purcell_coupling_needs_the_resonator(tmp_path):
    no_resonator = write_config(tmp_path, """
[loss]
q_diel = 1e6
purcell_g_mhz = 50
""", "nores.cfg")
    with pytest.raises(ConfigError, match="purcell_f_r_ghz"):
        parse_config(no_resonator)


def test_kappa_fit_requires_an_input(tmp_path):
    path = write_config(tmp_path, "[kappa_fit]\n")
    with pytest.raises(ConfigError, match="trace_csv and/or offset_csv"):
        parse_config(path)


def test_output_dir_resolution(tmp_path, monkeypatch, capsys):
    # without --out, a run writes cqedkit-out/ under the working directory
    config = write_config(tmp_path, FULL_CONFIG)
    monkeypatch.chdir(tmp_path)
    assert main(["design-resonator", "--config", str(config)]) == 0
    assert sorted(path.name for path in (tmp_path / "cqedkit-out").iterdir()) \
        == ["design.csv", "report.txt"]


@pytest.mark.parametrize("header", ["[DEFAULT]\n", "[DEFAULT]\nturns = 5\n"],
                         ids=["empty", "with-key"])
def test_default_section_is_an_unknown_section(header, tmp_path, capsys):
    # configparser would otherwise take [DEFAULT] as keys for every section
    path = write_config(tmp_path, header + DEMO_CONFIG.read_text(encoding="utf-8"))
    out = tmp_path / "out"
    assert main(["design-resonator", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: config: unknown config section [DEFAULT]\n")
    assert not out.exists()


def test_render_resolved_reparses_identically(tmp_path):
    source = write_config(tmp_path, FULL_CONFIG)
    config = parse_config(source)
    rendered = write_config(tmp_path, render_resolved(config), "resolved.cfg")
    reparsed = parse_config(rendered)
    assert reparsed.sections == config.sections


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# a grid over a range of two distinct ends needs both of them
SPANNING_POINTS = st.integers(min_value=2, max_value=10**9)
PURCELL_KEYS = [key for key in SCHEMA["loss"] if key.startswith("purcell_")]


def _valid_value(spec):
    if spec.parse == "bool":
        return st.booleans()
    if spec.parse == "int":
        return st.integers(min_value=1 if spec.bound == "positive" else 0,
                           max_value=10**9)
    if spec.parse == "str":
        return st.sampled_from(["inputs.csv", "data/trace.csv"])
    if spec.parse == "float_list":
        return st.lists(POSITIVE, min_size=1, max_size=4).map(tuple)
    if spec.bound == "positive":
        return POSITIVE
    return st.floats(min_value=0.0 if spec.bound == "nonnegative" else None,
                     allow_nan=False, allow_infinity=False)


@st.composite
def valid_configs(draw):
    """Sections of a valid config: full-precision values in every key's domain."""
    sections = {}
    for name, keys in SCHEMA.items():
        if name != "run" and not draw(st.booleans()):
            continue
        sections[name] = {key: draw(_valid_value(spec))
                          for key, spec in keys.items()
                          if spec.required or draw(st.booleans())}
    if "film" in sections:
        low, nominal, high = sorted(draw(st.lists(POSITIVE, min_size=3,
                                                  max_size=3)))
        sections["film"].update(lk_low_ph_sq=low, lk_nominal_ph_sq=nominal,
                                lk_high_ph_sq=high)
    if "sweep" in sections:
        low, high = sorted(draw(st.lists(POSITIVE, min_size=2, max_size=2,
                                         unique=True)))
        sections["sweep"].update(length_min_um=low, length_max_um=high)
        if "points" in sections["sweep"]:
            sections["sweep"]["points"] = draw(SPANNING_POINTS)
    if "kappa_fit" in sections:
        sections["kappa_fit"].setdefault("trace_csv", "trace.csv")
    if "loss" in sections:
        low, high = sorted(draw(st.lists(POSITIVE, min_size=2, max_size=2)))
        sections["loss"].update(f_q_min_ghz=low, f_q_max_ghz=high)
        if "points" in sections["loss"] and low != high:
            sections["loss"]["points"] = draw(SPANNING_POINTS)
        # a Purcell channel has both of its keys, or neither
        for key in PURCELL_KEYS:
            sections["loss"].pop(key, None)
        if draw(st.booleans()):
            for key in PURCELL_KEYS:
                sections["loss"][key] = draw(_valid_value(SCHEMA["loss"][key]))
            # which takes its kappa from [readout]
            sections.setdefault("readout", {})
    return sections


def _config_text(sections):
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        for key, value in values.items():
            if isinstance(value, bool):
                text = str(value).lower()
            elif isinstance(value, tuple):
                text = ", ".join(map(repr, value))
            else:
                text = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


@given(sections=valid_configs())
@settings(max_examples=150, deadline=None)
def test_any_valid_config_survives_render_and_reparse(sections):
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "drawn.cfg"
        source.write_text(_config_text(sections), encoding="utf-8")
        config = parse_config(source)
        for name, values in sections.items():
            for key, value in values.items():
                assert config.sections[name][key] == value, (name, key)
        rendered = Path(tmp) / "rendered.cfg"
        rendered.write_text(render_resolved(config), encoding="utf-8")
        reparsed = parse_config(rendered)
    assert reparsed.sections == config.sections


def _run(args):
    return main(args)


def test_cli_unknown_command_exits_with_usage_error(tmp_path, capsys):
    path = write_config(tmp_path, FULL_CONFIG)
    with pytest.raises(SystemExit) as exc:
        _run(["frobnicate", "--config", str(path)])
    assert exc.value.code == 2


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency; the command line must start without it.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-c",
         "import cqedkit.cli, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True, timeout=60)


def test_cli_error_line_is_machine_parsable(tmp_path, capsys):
    path = write_config(tmp_path, "[readout]\nshots = 3\n")
    rc = _run(["simulate-readout", "--config", str(path),
               "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: config: ")


def test_cli_non_finite_config_value_names_the_key(tmp_path, capsys):
    path = write_config(tmp_path, "[readout]\nkappa_inv_ns = nan\n")
    rc = _run(["simulate-readout", "--config", str(path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ")
    assert "[readout] kappa_inv_ns: must be finite, got nan" in err


def test_cli_indented_line_in_a_path_key_fails_on_one_line(tmp_path, capsys):
    # an indented key reads as a second line of the path above it
    path = write_config(tmp_path, "[kappa_fit]\ntrace_csv = trace.csv\n"
                        " offset_csv = offset.csv\n")
    out = tmp_path / "out"
    rc = _run(["fit-kappa", "--config", str(path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: [kappa_fit] trace_csv: must be one line")
    assert err.count("\n") == 1
    assert not out.exists()


# Directory names that configparser would cut short as config values:
# --out is a plain path, which the report does not echo
@pytest.mark.parametrize("name", ["a #b", "a ;b", "a\t#b"],
                         ids=lambda name: f"--out-{name!r}")
def test_cli_output_dir_is_a_plain_path(name, tmp_path, capsys):
    out = tmp_path / name
    assert _run(["design-resonator", "--config",
                 str(write_config(tmp_path, FULL_CONFIG)), "--out", str(out)]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == [name, "run.cfg"]
    assert sorted(path.name for path in out.iterdir()) == ["design.csv", "report.txt"]
    assert capsys.readouterr().out.endswith(f" to {out}\n")


def test_cli_missing_section_reports_error(tmp_path, capsys):
    path = write_config(tmp_path, "[readout]\nn_shots = 500\n")
    rc = _run(["design-resonator", "--config", str(path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error: config:" in capsys.readouterr().err


def test_cli_design_resonator(tmp_path, capsys):
    path = write_config(tmp_path, FULL_CONFIG)
    out = tmp_path / "out"
    rc = _run(["design-resonator", "--config", str(path), "--out", str(out)])
    assert rc == 0
    assert (out / "design.csv").exists()
    report = (out / "report.txt").read_text()
    assert "command: design-resonator" in report
    assert "seed: 3" in report
    assert "[geometry]" in report          # resolved config embedded
    assert "feed_offset_um = 20" in report


def test_cli_report_is_reusable_as_config(tmp_path, capsys):
    # values with more than six significant digits must survive the echo
    config_text = FULL_CONFIG.replace(
        "c_total_ff = 85", "c_total_ff = 85.123456").replace(
        "n_shots = 2000", "n_shots = 2000\ntwo_chi_khz = 930.12345") + """
[loss]
q_diel = 746123.7
"""
    path = write_config(tmp_path, config_text)
    for command in ("design-resonator", "budget-t1", "simulate-readout"):
        out = tmp_path / command
        assert _run([command, "--config", str(path), "--out", str(out),
                     "--plots"]) == 0
        report = (out / "report.txt").read_text()
        assert "emit_plots = true" in report
        start = report.index("[geometry]")
        end = report.index("# results")
        replay = write_config(tmp_path, report[start:end], "replay.cfg")
        written = sorted(p.name for p in out.iterdir() if p.name != "report.txt")
        # the report records --plots, so a replay without it plots as well
        for flags in (["--plots"], []):
            again = tmp_path / f"{command}-again{''.join(flags)}"
            assert _run([command, "--config", str(replay), "--out", str(again),
                         *flags]) == 0
            assert written == sorted(p.name for p in again.iterdir()
                                     if p.name != "report.txt"), flags
            for name in written:
                assert (again / name).read_bytes() == (out / name).read_bytes(), (
                    command, name, flags)


def test_cli_simulate_readout_seed_override(tmp_path, capsys):
    path = write_config(tmp_path, FULL_CONFIG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert _run(["simulate-readout", "--config", str(path), "--out", str(out_a)]) == 0
    assert _run(["simulate-readout", "--config", str(path), "--out", str(out_b)]) == 0
    assert _run(["simulate-readout", "--config", str(path), "--seed", "99",
                 "--out", str(out_c)]) == 0
    same = (out_a / "shots.csv").read_bytes()
    assert same == (out_b / "shots.csv").read_bytes()
    assert same != (out_c / "shots.csv").read_bytes()
    summary = (out_a / "readout_summary.csv").read_text().splitlines()
    assert summary[0].startswith("snr_eq1,snr_mc")


def test_cli_negative_seed_fails_like_the_key(tmp_path, capsys):
    # one rule and one message for the --seed option and the [run] seed key
    out = tmp_path / "out"
    path = write_config(tmp_path, FULL_CONFIG)
    assert _run(["design-resonator", "--config", str(path), "--seed", "-1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: config: --seed: must be nonnegative, got -1\n")
    assert not out.exists() or list(out.iterdir()) == []
    path = write_config(tmp_path, FULL_CONFIG.replace("seed = 3", "seed = -1"))
    assert _run(["design-resonator", "--config", str(path),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: config: [run] seed: must be nonnegative, got -1\n")


def test_cli_seed_fits_64_bits_for_every_command(tmp_path, capsys):
    # numpy's streams take an unsigned 64-bit seed; the key holds that bound,
    # so a command that draws nothing rejects a larger seed as well
    out = tmp_path / "out"
    path = write_config(tmp_path, FULL_CONFIG)
    assert _run(["design-resonator", "--config", str(path),
                 "--seed", str(2**64), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: config: --seed: must be at most 18446744073709551615, "
        "got 18446744073709551616\n")
    assert not out.exists()
    too_big = write_config(tmp_path, FULL_CONFIG.replace(
        "seed = 3", f"seed = {2**64}"), name="big.cfg")
    assert _run(["design-resonator", "--config", str(too_big),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: config: [run] seed: must be at most 18446744073709551615, "
        "got 18446744073709551616\n")
    assert not out.exists()
    assert _run(["design-resonator", "--config", str(path),
                 "--seed", str(2**64 - 1), "--out", str(out)]) == 0


def test_cli_snr_sweep_row_values(tmp_path, capsys):
    path = write_config(tmp_path, FULL_CONFIG)
    out = tmp_path / "out"
    assert _run(["snr-sweep", "--config", str(path), "--out", str(out),
                 "--plots"]) == 0
    assert (out / "snr_sweep.svg").exists()
    lines = (out / "snr_sweep.csv").read_text().splitlines()
    assert lines[0] == "tau_ns,snr_eq1,snr_mc,fidelity"
    by_tau = {row.split(",")[0]: row.split(",") for row in lines[1:]}
    assert float(by_tau["700"][1]) == pytest.approx(5.0, rel=1e-9)
    assert float(by_tau["175"][1]) == pytest.approx(2.5, rel=1e-9)
    assert float(by_tau["2800"][1]) == pytest.approx(10.0, rel=1e-9)


def test_cli_budget_t1(tmp_path, capsys):
    config_text = FULL_CONFIG + """
[loss]
q_diel = 1e6
f_q_min_ghz = 4.45
f_q_max_ghz = 4.45
points = 1
"""
    path = write_config(tmp_path, config_text)
    out = tmp_path / "out"
    assert _run(["budget-t1", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "t1_budget.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["t1_total_us"]) == pytest.approx(35.8, rel=2e-3)


def test_cli_fit_lk(tmp_path, capsys):
    config_text = FULL_CONFIG + """
[lk]
cpw_length_um = 4000
l_per_m_nh = 400
c_per_m_pf = 160
line_width_um = 2
measured_f_ghz = {f_ghz}
"""
    # forward frequency for lk = 2.0 pH/sq on the same structure
    length = 4000e-6
    per_len = 4.0e-7          # 400 nH per metre
    per_cap = 1.6e-10         # 160 pF per metre
    sheet = 2.0e-12 / 2e-6
    f = 1.0 / (4.0 * length * math.sqrt((per_len + sheet) * per_cap))
    path = write_config(tmp_path, config_text.format(f_ghz=f / 1e9))
    out = tmp_path / "out"
    assert _run(["fit-lk", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "lk_extraction.csv").read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["lk_ph_sq"]) == pytest.approx(2.0, rel=1e-6)


def test_cli_fit_kappa_and_qdiel(tmp_path, capsys):
    kappa = 1.0 / 300e-9
    t = np.linspace(0.0, 3e-6, 64)
    write_csv(tmp_path / "trace.csv", ("t_s", "v_amplitude"),
              list(zip(t, np.exp(-0.5 * kappa * t) + 0.05)))
    offsets = np.linspace(2.0, 40.0, 6)
    write_csv(tmp_path / "offsets.csv", ("d_um", "kappa_per_s"),
              list(zip(offsets, 5e6 * np.exp(-offsets / 12.0))))
    freqs = [3.5, 4.0, 4.45, 4.8]
    write_csv(tmp_path / "coherence.csv", ("f_q_ghz", "t1_us"),
              [(f, 1e6 / (2 * math.pi * f * 1e9) * 1e6) for f in freqs])
    config_text = FULL_CONFIG + """
[kappa_fit]
trace_csv = trace.csv
offset_csv = offsets.csv

[loss]
q_diel = 1e6
coherence_csv = coherence.csv
"""
    path = write_config(tmp_path, config_text)
    out = tmp_path / "out"
    assert _run(["fit-kappa", "--config", str(path), "--out", str(out)]) == 0
    ring = (out / "kappa_ringdown.csv").read_text().splitlines()
    row = dict(zip(ring[0].split(","), ring[1].split(",")))
    assert float(row["kappa_per_s"]) == pytest.approx(kappa, rel=1e-3)
    off = (out / "kappa_offset.csv").read_text().splitlines()
    row = dict(zip(off[0].split(","), off[1].split(",")))
    assert float(row["d0_um"]) == pytest.approx(12.0, rel=1e-3)

    assert _run(["fit-qdiel", "--config", str(path), "--out", str(out)]) == 0
    params = (out / "qdiel_params.csv").read_text().splitlines()
    row = dict(zip(params[0].split(","), params[1].split(",")))
    assert float(row["q_diel"]) == pytest.approx(1e6, rel=1e-4)


MEASURED_SWEEP = FULL_CONFIG + """
[sweep]
length_min_um = 800
length_max_um = 1400
points = 7
measured_csv = measured.csv
"""


def test_cli_sweep_spiral_with_measurements(tmp_path, capsys):
    write_csv(tmp_path / "measured.csv", ("spiral_length_um", "f_measured_ghz"),
              [(900.0, 2.4), (1200.0, 2.1)])
    path = write_config(tmp_path, MEASURED_SWEEP)
    out = tmp_path / "out"
    assert _run(["sweep-spiral", "--config", str(path), "--out", str(out),
                 "--plots"]) == 0
    lines = (out / "spiral_sweep.csv").read_text().splitlines()
    assert len(lines) == 8
    svg = (out / "spiral_sweep.svg").read_text()
    assert svg.startswith("<svg") or svg.startswith("<?xml")


def test_cli_sweep_spiral_measurements_must_be_positive(tmp_path, capsys):
    # +-1e308 used to pass the load, overflow the plot's y span and write
    # nan coordinates; positive extremes still plot
    path = write_config(tmp_path, MEASURED_SWEEP)
    out = tmp_path / "out"
    header = ("spiral_length_um", "f_measured_ghz")
    write_csv(tmp_path / "measured.csv", header, [(900.0, 1e308), (1200.0, -1e308)])
    assert _run(["sweep-spiral", "--config", str(path), "--out", str(out),
                 "--plots"]) == 1
    assert capsys.readouterr().err == (
        f"error: config: {tmp_path / 'measured.csv'}: row 3, column "
        "f_measured_ghz: must be positive, got -1e+308\n")
    assert list(out.iterdir()) == []
    write_csv(tmp_path / "measured.csv", header, [(900.0, 1e308), (1200.0, 1e-300)])
    assert _run(["sweep-spiral", "--config", str(path), "--out", str(out),
                 "--plots"]) == 0
    svg = (out / "spiral_sweep.svg").read_text(encoding="utf-8")
    assert svg.count("<circle") == 2
    assert re.findall(r"\bnan\b", svg) == []    # the title says "resonance"


DEMO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "demo.cfg"


@pytest.mark.parametrize("turns", ["0.5", "1e300"])
def test_cli_sweep_spiral_does_not_wind_a_spiral(turns, tmp_path, capsys):
    # the sweep sets each length; [geometry] turns is design-resonator's
    config = write_config(tmp_path, re.sub(
        r"^turns = .*$", f"turns = {turns}",
        DEMO_CONFIG.read_text(encoding="utf-8"), flags=re.MULTILINE))
    demo, edited = tmp_path / "demo", tmp_path / "edited"
    for path, out in ((DEMO_CONFIG, demo), (config, edited)):
        assert _run(["sweep-spiral", "--config", str(path), "--out", str(out),
                     "--plots"]) == 0
    for name in ("spiral_sweep.csv", "spiral_sweep.svg"):
        assert (edited / name).read_bytes() == (demo / name).read_bytes()


def _unreached(*counts):
    raise AssertionError("the library's shot-count check was reached")


@pytest.mark.parametrize("command", ["simulate-readout", "snr-sweep"])
@pytest.mark.parametrize("line, message", [
    ("kappa_inv_ns = 1e-300", "[readout] kappa_inv_ns: kappa must be finite"),
    # the inverse linewidth in s underflows to 0
    ("kappa_inv_ns = 1e-320", "[readout] kappa_inv_ns: kappa must be finite"),
    ("two_chi_khz = 0", "[readout] two_chi_khz, kappa_inv_ns: "
     "zero dispersive phase produces no signal to calibrate"),
    ("n_shots = 5", "[readout] n_shots: need at least 100 shots per state, got 5"),
    ("seed = 18446744073709551616",
     "[run] seed: must be at most 18446744073709551615, got 18446744073709551616"),
], ids=["kappa-overflow", "kappa-underflow", "zero-phase", "few-shots",
        "seed-overflow"])
def test_cli_readout_value_errors_name_the_keys(command, line, message, tmp_path,
                                                capsys, monkeypatch):
    # a value the key's bound lets through but the readout model rejects; the
    # config is checked before the library's own check, and before any draw
    monkeypatch.setattr(readout, "_require_shots", _unreached)
    key = line.split()[0]
    config = write_config(tmp_path, re.sub(
        rf"^{key} = .*$", line, DEMO_CONFIG.read_text(encoding="utf-8"),
        flags=re.MULTILINE))
    out = tmp_path / "out"
    assert _run([command, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: config: {message}\n"
    # a [run] key fails at parse time, before the output directory exists
    assert not out.exists() if key == "seed" else list(out.iterdir()) == []


def _report_artifacts(out):
    lines = (out / "report.txt").read_text(encoding="utf-8").splitlines()
    return lines[lines.index("# artifacts") + 1:]


@pytest.mark.parametrize("command, csv, svg", [
    ("sweep-spiral", "spiral_sweep.csv", "spiral_sweep.svg"),
    ("budget-t1", "t1_budget.csv", "t1_budget.svg"),
    ("snr-sweep", "snr_sweep.csv", "snr_sweep.svg"),
])
def test_cli_plots_are_written_only_when_asked(command, csv, svg, tmp_path,
                                               capsys):
    plain, plotted, emitted = (tmp_path / name
                               for name in ("plain", "plots", "emit"))
    base = [command, "--config", str(DEMO_CONFIG), "--out"]
    assert _run(base + [str(plain)]) == 0
    assert not list(plain.glob("*.svg"))
    assert _report_artifacts(plain) == [csv, "report.txt"]

    assert _run(base + [str(plotted), "--plots"]) == 0
    assert _report_artifacts(plotted) == [csv, svg, "report.txt"]
    assert (plotted / csv).read_bytes() == (plain / csv).read_bytes()

    config = write_config(tmp_path, DEMO_CONFIG.read_text(encoding="utf-8")
                          + "emit_plots = true\n")
    assert _run([command, "--config", str(config), "--out", str(emitted)]) == 0
    assert (emitted / svg).read_bytes() == (plotted / svg).read_bytes()


# Coherence tables for fit-qdiel: a record on the demo's purcell_f_r_ghz,
# records either side of it, whose 101-point curve passes through it, and
# a t1_spread whose square in s^2 underflows to 0 or whose inverse square
# overflows
COHERENCE_CSVS = {"resonant.csv": "f_q_ghz,t1_us\n4.0,100\n6.0,50\n",
                  "straddling.csv": "f_q_ghz,t1_us\n5.9,1.0\n6.1,1.0\n",
                  "underflowing-spread.csv":
                      "f_q_ghz,t1_us,t1_spread_us\n4.0,100,5\n4.5,90,1e-158\n",
                  "overflowing-weight.csv":
                      "f_q_ghz,t1_us,t1_spread_us\n4.0,100,5\n4.5,90,1e-150\n"}


# fit-lk's test structure, from make_demo_inputs.py's fits.cfg
LK_SECTION = """
[lk]
cpw_length_um = 4000
l_per_m_nh = 400
c_per_m_pf = 160
measured_f_ghz = 4.176
line_width_um = 2
"""


def _demo_config(tmp_path, edits):
    """The demo config and LK_SECTION with each edit replacing its key's
    line (None drops the line; a key they leave out joins the first
    section that has it), and the coherence tables written beside it."""
    text = DEMO_CONFIG.read_text(encoding="utf-8") + LK_SECTION
    for key, value in edits.items():
        line = "" if value is None else f"{key} = {value}\n"
        text, found = re.subn(rf"^{key} = .*\n", line, text, flags=re.MULTILINE)
        if not found:
            section = next(name for name in SCHEMA if key in SCHEMA[name])
            text = text.replace(f"[{section}]\n", f"[{section}]\n{line}")
    for name, rows in COHERENCE_CSVS.items():
        (tmp_path / name).write_text(rows, encoding="utf-8")
    return write_config(tmp_path, text)


# The keys that design-resonator's and sweep-spiral's resonance band and
# fit-lk's extraction name
DESIGN_BAND = ("[geometry] disk_radius_um, line_width_um, gap_um, turns, "
               "[film] lk_nominal_ph_sq, lk_low_ph_sq, lk_high_ph_sq, "
               "geometric_l_per_square_ph_sq, [resonator] c_total_ff")
SWEEP_BAND = ("[sweep] length_min_um, length_max_um, [geometry] line_width_um, "
              "[film] lk_nominal_ph_sq, lk_low_ph_sq, lk_high_ph_sq, "
              "geometric_l_per_square_ph_sq, [resonator] c_total_ff")
LK_KEYS = ("[lk] cpw_length_um, l_per_m_nh, c_per_m_pf, measured_f_ghz, "
           "line_width_um, geometric_l_per_square_ph_sq")


@pytest.mark.parametrize("command, edits, message", [
    ("design-resonator", {"turns": "0.5"},
     "[geometry] turns: turns must be at least 1"),
    # L*C underflows to 0 at the band's low-inductance end
    ("design-resonator", {"c_total_ff": "1e-300", "lk_low_ph_sq": "1e-300"},
     f"{DESIGN_BAND}: f_r must be finite"),
    ("sweep-spiral", {"c_total_ff": "1e-300"}, f"{SWEEP_BAND}: f_r must be finite"),
    ("sweep-spiral", {"length_min_um": "1e-300"}, f"{SWEEP_BAND}: f_r must be finite"),
    ("design-resonator", {"lk_high_ph_sq": "1e308"},
     f"{DESIGN_BAND}: inductance must be finite"),
    ("sweep-spiral", {"lk_high_ph_sq": "1e308"},
     f"{SWEEP_BAND}: inductance must be finite"),
    ("design-resonator", {"q_coupling": "1e-300"},
     "[resonator] q_coupling: kappa must be finite"),
    # a band far below 1 Hz over a huge Q_c: kappa underflows to 0
    ("design-resonator", {"c_total_ff": "1e300", "q_coupling": "1e300"},
     "[resonator] q_coupling: kappa must be positive"),
    # kappa is subnormal, so 1e9 / kappa overflows
    ("design-resonator", {"c_total_ff": "1e300", "q_coupling": "2.5e171"},
     "[resonator] q_coupling: kappa_inv_ns must be finite"),
    # (L f)^2 overflows, or underflows to 0
    ("fit-lk", {"cpw_length_um": "1e300"},
     f"{LK_KEYS}: measured frequency implies a negative kinetic inductance"),
    ("fit-lk", {"cpw_length_um": "1e308"},
     f"{LK_KEYS}: measured frequency implies a negative kinetic inductance"),
    ("fit-lk", {"cpw_length_um": "1e-300"}, f"{LK_KEYS}: lk must be finite"),
    ("fit-lk", {"measured_f_ghz": "1e-300"}, f"{LK_KEYS}: lk must be finite"),
    ("fit-lk", {"l_per_m_nh": "1e300"},
     f"{LK_KEYS}: measured frequency implies a negative kinetic inductance"),
    ("fit-lk", {"measured_f_ghz": "1e300"},
     "[lk] measured_f_ghz: measured_f must be finite"),
    # the calibrated drive gives an SNR that rounds past the largest float
    ("simulate-readout", {"target_snr": "1e308", "kappa_inv_ns": "1e250"},
     "[readout] target_snr, kappa_inv_ns, two_chi_khz, tau_m_ns: snr must be finite"),
    ("snr-sweep", {"target_snr": "1e308", "kappa_inv_ns": "1e250"},
     "[readout] target_snr, kappa_inv_ns, two_chi_khz, tau_m_ns: snr must be finite"),
    ("snr-sweep", {"target_snr": "1e300", "tau_list_ns": "175, 1e308"},
     "[readout] tau_list_ns, target_snr, kappa_inv_ns, two_chi_khz, "
     "tau_m_ns: snr must be finite"),
    # the shots' centroids are finite but their separation overflows
    ("simulate-readout", {"target_snr": "6.729016907704121e+210",
                          "tau_m_ns": "4.758133486156517e+210"},
     "[readout] target_snr, kappa_inv_ns, two_chi_khz, tau_m_ns: snr must be finite"),
    # sigma^2 is finite, the shots' covariance is not
    ("simulate-readout", {"kappa_inv_ns": "9.516266972313034e+210",
                          "tau_m_ns": "3.768911102347066e+115"},
     "[readout] target_snr, kappa_inv_ns, two_chi_khz, tau_m_ns: "
     "covariances must be finite"),
    # kappa * tau_m underflows to 0, so no finite drive reaches the SNR
    ("simulate-readout", {"tau_m_ns": "1e-300", "kappa_inv_ns": "1e24"},
     "[readout] target_snr, kappa_inv_ns, two_chi_khz, tau_m_ns: "
     "epsilon must be finite"),
    ("snr-sweep", {"tau_m_ns": "1e-300", "kappa_inv_ns": "1e24"},
     "[readout] target_snr, kappa_inv_ns, two_chi_khz, tau_m_ns: "
     "epsilon must be finite"),
    # 2 pi (f_q - f_r) overflows
    ("budget-t1", {"purcell_f_r_ghz": "1e299"},
     "[loss] purcell_f_r_ghz, f_q_min_ghz, f_q_max_ghz: delta must be finite"),
    ("fit-qdiel", {"purcell_f_r_ghz": "1e299", "coherence_csv": "resonant.csv"},
     "[loss] purcell_f_r_ghz, coherence_csv: delta must be finite"),
    # the Purcell channel takes the readout resonator's linewidth
    ("budget-t1", {"kappa_inv_ns": "1e-300"},
     "[readout] kappa_inv_ns: kappa must be finite"),
    ("fit-qdiel", {"kappa_inv_ns": "1e-300", "coherence_csv": "resonant.csv"},
     "[readout] kappa_inv_ns: kappa must be finite"),
    # the inverse linewidth in s underflows to 0
    ("budget-t1", {"kappa_inv_ns": "1e-320"},
     "[readout] kappa_inv_ns: kappa must be finite"),
    ("fit-qdiel", {"kappa_inv_ns": "1e-320", "coherence_csv": "resonant.csv"},
     "[readout] kappa_inv_ns: kappa must be finite"),
    # the Purcell limit alone is below every record's T1
    ("fit-qdiel", {"purcell_g_mhz": "1e300", "coherence_csv": "resonant.csv"},
     "[loss] purcell_g_mhz, purcell_f_r_ghz, coherence_csv, [readout] kappa_inv_ns: "
     "purcell limit is below T1 at every record, leaving no dielectric loss "
     "to fit"),
    ("budget-t1", {"q_diel": "1e308", "f_q_min_ghz": "1e-300",
                   "purcell_g_mhz": None, "purcell_f_r_ghz": None},
     "[loss] q_diel, f_q_min_ghz, f_q_max_ghz: t1 must be finite"),
    # T1, or T2 = 2 T1, is finite in s but overflows in the table's us
    ("budget-t1", {"q_diel": "1129523909179.0", "f_q_min_ghz": "1e-300"},
     "[loss] q_diel, f_q_min_ghz, f_q_max_ghz: t1 must be finite"),
    ("budget-t1", {"q_diel": "6.3e11", "f_q_min_ghz": "1e-300",
                   "purcell_g_mhz": None, "purcell_f_r_ghz": None},
     "[loss] q_diel, f_q_min_ghz, f_q_max_ghz: t1 must be finite"),
    # the Purcell limit is past the float range at the top of the grid
    ("budget-t1", {"f_q_max_ghz": "1e200"},
     "[loss] purcell_g_mhz, purcell_f_r_ghz, f_q_min_ghz, f_q_max_ghz, "
     "[readout] kappa_inv_ns: t1_purcell must be finite"),
    ("fit-qdiel", {"coherence_csv": "underflowing-spread.csv"},
     "[loss] coherence_csv: t1_spread must give a finite, positive weight "
     "1/t1_spread^2"),
    ("fit-qdiel", {"coherence_csv": "overflowing-weight.csv"},
     "[loss] coherence_csv: t1_spread must give a finite, positive weight "
     "1/t1_spread^2"),
], ids=["turns-below-one", "design-lc-underflow", "sweep-c-underflow",
        "sweep-length-underflow", "design-inductance-overflow",
        "sweep-inductance-overflow", "kappa-overflow", "kappa-underflow",
        "kappa-inverse-overflow", "lk-length-1e300",
        "lk-length-1e308", "lk-length-underflow", "lk-frequency-underflow",
        "lk-per-length-overflow", "lk-frequency-overflow",
        "simulate-snr-overflow", "sweep-snr-overflow", "sweep-long-tau-snr-overflow",
        "simulate-separation-overflow", "simulate-covariance-overflow",
        "simulate-window-underflow", "sweep-window-underflow",
        "budget-detuning-overflow", "fit-detuning-overflow",
        "purcell-kappa-overflow", "fit-purcell-kappa-overflow",
        "purcell-kappa-underflow", "fit-purcell-kappa-underflow",
        "fit-purcell-takes-all", "infinite-t1", "t1-overflows-in-us",
        "t2-overflows-in-us", "purcell-t1-overflows", "underflowing-spread", "overflowing-weight"])
def test_cli_model_value_errors_name_the_keys(command, edits, message, tmp_path,
                                              capsys):
    # a value the key's bound lets through but the model rejects
    config = _demo_config(tmp_path, edits)
    out = tmp_path / "out"
    assert _run([command, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: config: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, edits", [
    ("budget-t1", {"purcell_f_r_ghz": "4.8"}),
    ("fit-qdiel", {"coherence_csv": "resonant.csv"}),
    ("fit-qdiel", {"coherence_csv": "straddling.csv"}),
], ids=["resonant-grid-point", "resonant-record", "resonant-curve-point"])
def test_cli_runs_through_the_resonator(command, edits, tmp_path, capsys):
    # the Purcell rate stays finite with the qubit on the resonator: a grid
    # point, a record or a curve point at purcell_f_r_ghz is a number
    config = _demo_config(tmp_path, edits)
    out = tmp_path / "out"
    assert _run([command, "--config", str(config), "--out", str(out),
                 "--plots"]) == 0
    paths = sorted(out.glob("*.csv"))
    assert paths
    for path in paths:
        _, *rows = path.read_text(encoding="utf-8").splitlines()
        values = [float(cell) for row in rows for cell in row.split(",")]
        assert values and all(map(math.isfinite, values)), path.name


def test_cli_infinite_purcell_limit_writes_no_nan(tmp_path, capsys):
    # g = 0 makes the Purcell limit inf at every point: the CSV says inf,
    # and the plot leaves that series out instead of scaling its axes by it
    config = write_config(tmp_path, DEMO_CONFIG.read_text(encoding="utf-8")
                          .replace("purcell_g_mhz = 50", "purcell_g_mhz = 0"))
    out = tmp_path / "out"
    assert _run(["budget-t1", "--config", str(config), "--out", str(out),
                 "--plots"]) == 0
    for name in ("t1_budget.csv", "t1_budget.svg"):
        assert "nan" not in (out / name).read_text(encoding="utf-8"), name
    assert ",inf," in (out / "t1_budget.csv").read_text(encoding="utf-8")
    assert (out / "t1_budget.svg").read_text(encoding="utf-8").count(
        "<polyline") == 2


def test_cli_plot_of_one_large_value_has_an_axis(tmp_path, capsys):
    # one tau of 2**53 + 4 ns: widening its axis by 1 would round away
    config = _demo_config(tmp_path, {"tau_list_ns": "9007199254740996"})
    out = tmp_path / "out"
    assert _run(["snr-sweep", "--config", str(config), "--out", str(out),
                 "--plots"]) == 0
    assert "nan" not in (out / "snr_sweep.svg").read_text(encoding="utf-8")


def test_cli_plot_spanning_most_of_the_float_range_has_finite_axes(
        tmp_path, capsys):
    # T1 from 174 us to 1.6e308 us: the padded axis would span past the
    # largest float, and every tick would be nan
    config = _demo_config(tmp_path, {"f_q_min_ghz": "1e-300",
                                     "q_diel": "1008503490338.0"})
    out = tmp_path / "out"
    assert _run(["budget-t1", "--config", str(config), "--out", str(out),
                 "--plots"]) == 0
    assert "nan" not in (out / "t1_budget.svg").read_text(encoding="utf-8")


def _column(path, name):
    header, *rows = path.read_text(encoding="ascii").splitlines()
    index = header.split(",").index(name)
    return [row.split(",")[index] for row in rows]


def test_purcell_channel_takes_kappa_from_the_readout_section(
        demo_inputs, tmp_path, capsys):
    # the demo channel (g = 50 MHz, f_r = 6 GHz) with the one resonator's
    # 1/kappa set to 150 ns in [readout]: both commands match the library
    # at kappa = 1/(150 ns) to the CSV's 9 digits
    purcell = coherence.PurcellParams(g=coherence.TWO_PI * 50.0 * 1e6,
                                      f_r=6.0 * 1e9, kappa=1.0 / (150.0 * 1e-9))
    demo_inputs.write_coherence(tmp_path, partial(normal, random.Random(7)))
    config = _demo_config(tmp_path, {"kappa_inv_ns": "150",
                                     "coherence_csv": "coherence.csv"})
    out = tmp_path / "out"
    assert _run(["budget-t1", "--config", str(config), "--out", str(out)]) == 0
    _, t1_purcell, _ = coherence.t1_budget(
        linspace(3.5e9, 4.8e9, 25), coherence.LossModel(746e3, purcell))
    assert _column(out / "t1_budget.csv", "t1_purcell_us") == [
        format_number(t1 * 1e6) for t1 in t1_purcell]

    assert _run(["fit-qdiel", "--config", str(config), "--out", str(out)]) == 0
    records = load_coherence_csv(tmp_path / "coherence.csv")
    q_diel, = coherence.fit_qdiel(records, purcell=purcell).params
    *_, t1_model = coherence.t1_budget([r.f_q for r in records],
                                       coherence.LossModel(q_diel, purcell))
    assert _column(out / "qdiel_fit.csv", "t1_model_us") == [
        format_number(t1 * 1e6) for t1 in t1_model]


@pytest.mark.parametrize("edits, message", [
    ({"purcell_g_mhz": None},
     "[loss]: a Purcell channel needs purcell_g_mhz and purcell_f_r_ghz"),
    ({"purcell_f_r_ghz": None},
     "[loss]: a Purcell channel needs purcell_g_mhz and purcell_f_r_ghz"),
    ({"readout": None}, "[loss]: a Purcell channel needs [readout] kappa_inv_ns"),
], ids=["f-r-alone", "g-alone", "no-readout-section"])
def test_purcell_channel_is_two_keys_and_the_readout_section(
        edits, message, tmp_path, capsys):
    text = DEMO_CONFIG.read_text(encoding="utf-8")
    if edits.pop("readout", 0) is None:
        text = re.sub(r"^\[readout\]\n(.+\n)*\n", "", text, flags=re.MULTILINE)
    for key in edits:
        text = re.sub(rf"^{key} = .*\n", "", text, flags=re.MULTILINE)
    config = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert _run(["budget-t1", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: config: {message}\n"
    assert not out.exists()


def test_cli_failed_command_writes_no_artifacts(tmp_path, capsys):
    # the sweep itself succeeds; the measured file named after it does not load
    config = write_config(tmp_path, FULL_CONFIG + """
[sweep]
length_min_um = 800
length_max_um = 1400
points = 7
measured_csv = missing.csv
""")
    out = tmp_path / "out"
    assert _run(["sweep-spiral", "--config", str(config), "--out", str(out),
                 "--plots"]) == 1
    assert "error: config: cannot read" in capsys.readouterr().err
    assert list(out.iterdir()) == []

    # the ring-down fit succeeds; the offset table has the wrong columns
    kappa = 1.0 / 300e-9
    t = np.linspace(0.0, 3e-6, 64)
    write_csv(tmp_path / "trace.csv", ("t_s", "v_amplitude"),
              list(zip(t, np.exp(-0.5 * kappa * t) + 0.05)))
    config = write_config(tmp_path, FULL_CONFIG + """
[kappa_fit]
trace_csv = trace.csv
offset_csv = trace.csv
""", name="kappa.cfg")
    assert _run(["fit-kappa", "--config", str(config), "--out", str(out)]) == 1
    assert "unknown column(s) t_s, v_amplitude" in capsys.readouterr().err
    assert list(out.iterdir()) == []

    # simulate-readout fits the shot moments before a shot is written
    config = write_config(tmp_path, FULL_CONFIG.replace(
        "n_shots = 2000", "n_shots = 50"), name="shots.cfg")
    assert _run(["simulate-readout", "--config", str(config),
                 "--out", str(out)]) == 1
    assert "at least 100 shots" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("header, error", [
    ("f_q_ghz, t1_us", None),
    ("f_q_ghz,t1_us,t1_us", "repeated column(s) t1_us"),
])
def test_cli_coherence_csv_header_checks(header, error, tmp_path, capsys):
    # a spaced header used to pass the column check, then fail with a
    # bare KeyError and a traceback
    cells = len(header.split(","))
    rows = [",".join([str(f), *["20"] * (cells - 1)])
            for f in (3.5, 4.0, 4.45, 4.8)]
    (tmp_path / "coherence.csv").write_text(
        "\n".join([header, *rows]) + "\n", encoding="ascii")
    config = write_config(tmp_path, FULL_CONFIG + """
[loss]
q_diel = 1e6
coherence_csv = coherence.csv
""")
    status = _run(["fit-qdiel", "--config", str(config),
                   "--out", str(tmp_path / "out")])
    if error is None:
        assert status == 0
    else:
        assert status == 1
        assert f"error: config: {tmp_path / 'coherence.csv'}: {error}" in (
            capsys.readouterr().err)


@pytest.mark.parametrize("command, name, text, section, message", [
    ("fit-qdiel", "coherence.csv", "f_q_ghz,t1_us\n3.5,20\n4.0,20\n4.4,-5\n",
     "[loss]\ncoherence_csv = coherence.csv\n",
     "row 4, column t1_us: must be positive, got -5.0"),
    # in range as read, but 1e-320 us is 0.0 s once scaled to SI
    ("fit-qdiel", "coherence.csv", "f_q_ghz,t1_us\n3.5,20\n4.0,1e-320\n4.4,20\n",
     "[loss]\ncoherence_csv = coherence.csv\n", "row 3: t1 must be positive"),
    ("fit-kappa", "kappa_offset.csv", "d_um,kappa_per_s\n5,2e6\n10,0\n20,1e6\n",
     "[kappa_fit]\noffset_csv = kappa_offset.csv\n",
     "row 3, column kappa_per_s: must be positive, got 0.0"),
    ("fit-kappa", "kappa_offset.csv", "d_um,kappa_per_s\n5,2e6\n-10,1e6\n20,5e5\n",
     "[kappa_fit]\noffset_csv = kappa_offset.csv\n",
     "row 3, column d_um: must be nonnegative, got -10.0"),
], ids=["coherence", "coherence-underflow", "kappa-offset", "kappa-offset-d"])
def test_cli_out_of_domain_csv_value_names_the_file_line(
        command, name, text, section, message, tmp_path, capsys):
    (tmp_path / name).write_text(text, encoding="ascii")
    config = write_config(tmp_path, FULL_CONFIG + section)
    out = tmp_path / "out"
    assert _run([command, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: config: {tmp_path / name}: {message}\n")
    assert list(out.iterdir()) == []


def test_cli_undecodable_csv_or_config_fails_cleanly(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_bytes(b"t_s,v_amplitude\n0,1\n1e-7,0.5\xff\n")
    config = write_config(tmp_path, FULL_CONFIG + """
[kappa_fit]
trace_csv = trace.csv
""")
    out = tmp_path / "out"
    assert _run(["fit-kappa", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: config: {trace}: not UTF-8 text")
    config.write_bytes(FULL_CONFIG.encode("ascii") + b"# caf\xff\n")
    assert _run(["design-resonator", "--config", str(config),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: config: {config}: not UTF-8 text")


def test_undecodable_config_names_the_line(tmp_path):
    config = write_config(tmp_path, FULL_CONFIG)
    lines = config.read_bytes().split(b"\n")
    lines[4] += b"  # caf\xe9"
    config.write_bytes(b"\n".join(lines))
    with pytest.raises(ConfigError, match=rf"^{config}: not UTF-8 text at "
                                          rf"line 5: invalid continuation byte$"):
        parse_config(config)


def test_cli_unwritable_output_directory_fails_cleanly(tmp_path, capsys):
    config = write_config(tmp_path, FULL_CONFIG)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n", encoding="ascii")
    out = blocker / "out"
    assert _run(["design-resonator", "--config", str(config),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: output: cannot create output directory {out}: ")


@pytest.mark.parametrize("command, blocked", [
    ("design-resonator", "design.csv"),
    ("design-resonator", "report.txt"),
    ("sweep-spiral", "spiral_sweep.svg"),
    ("simulate-readout", "readout_summary.csv"),
])
def test_cli_artifact_write_failure_fails_cleanly(tmp_path, capsys, command,
                                                  blocked):
    """A directory where an artifact belongs fails the write: one error
    line naming the path, and no file of this run is left behind."""
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert _run([command, "--config", str(DEMO_CONFIG), "--out", str(out),
                 "--plots"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: output: cannot write {out / blocked}: ")
    assert err.count("\n") == 1
    assert [path.name for path in out.iterdir()] == [blocked]
