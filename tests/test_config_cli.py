"""Configuration parsing and command-line behavior tests."""

import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqedkit import ConfigError, readout
from cqedkit.cli import main
from cqedkit.config import (
    DEFAULT_OUTPUT_DIR,
    ENV_OUTPUT_DIR,
    SCHEMA,
    parse_config,
    render_resolved,
)
from cqedkit.dataio import write_csv

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
    assert config.seed == 3
    geometry = config.require("geometry")
    assert geometry["feed_offset_um"] == 20.0     # documented default
    assert geometry["spiral_length_um"] is None   # derived downstream
    readout = config.require("readout")
    assert readout["kappa_inv_ns"] == 300.0
    assert readout["two_chi_khz"] == 930.0
    assert readout["tau_m_ns"] == 700.0
    assert readout["target_snr"] == 5.0
    assert readout["n_shots"] == 2000
    assert readout["transient"] is False
    assert readout["tau_list_ns"] == (175.0, 350.0, 700.0, 1400.0, 2800.0)


def test_unknown_section_and_key_are_named(tmp_path):
    bad_section = write_config(tmp_path, "[nonsense]\nx = 1\n", "a.cfg")
    with pytest.raises(ConfigError, match=r"unknown config section \[nonsense\]"):
        parse_config(bad_section)
    bad_key = write_config(tmp_path, "[readout]\nshots = 3\n", "b.cfg")
    with pytest.raises(ConfigError, match=r"\[readout\]: unknown key.*shots"):
        parse_config(bad_key)


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


def test_film_band_constraint_named(tmp_path):
    path = write_config(
        tmp_path,
        "[film]\nlk_nominal_ph_sq = 2.0\nlk_low_ph_sq = 2.1\nlk_high_ph_sq = 2.2\n")
    with pytest.raises(ConfigError, match="band constraint"):
        parse_config(path)


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


def test_loss_purcell_route_exclusivity(tmp_path):
    both = write_config(tmp_path, """
[loss]
q_diel = 1e6
purcell_g_mhz = 50
purcell_two_chi_khz = 930
purcell_f_r_ghz = 6
purcell_kappa_inv_ns = 300
purcell_ref_f_q_ghz = 4.2
anharmonicity_ghz = -0.23
""", "both.cfg")
    with pytest.raises(ConfigError, match="not both"):
        parse_config(both)
    incomplete = write_config(tmp_path, """
[loss]
q_diel = 1e6
purcell_two_chi_khz = 930
purcell_f_r_ghz = 6
purcell_kappa_inv_ns = 300
""", "incomplete.cfg")
    with pytest.raises(ConfigError, match="purcell_ref_f_q_ghz"):
        parse_config(incomplete)
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


def test_output_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    plain = parse_config(write_config(tmp_path, FULL_CONFIG, "plain.cfg"))
    assert str(plain.output_dir) == DEFAULT_OUTPUT_DIR

    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "envdir"))
    via_env = parse_config(write_config(tmp_path, FULL_CONFIG, "env.cfg"))
    assert via_env.output_dir == tmp_path / "envdir"

    explicit = parse_config(write_config(
        tmp_path,
        FULL_CONFIG.replace("seed = 3", "seed = 3\noutput_dir = chosen"),
        "explicit.cfg"))
    assert str(explicit.output_dir) == "chosen"


def test_render_resolved_reparses_identically(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    source = write_config(tmp_path, FULL_CONFIG)
    config = parse_config(source)
    rendered = write_config(tmp_path, render_resolved(config), "resolved.cfg")
    reparsed = parse_config(rendered)
    assert "run" not in config.sections     # [run] lives in the fields only
    assert reparsed.sections == config.sections
    # the rendered text pins the resolved output directory explicitly
    assert _run_fields(reparsed) == _run_fields(config)


def _run_fields(config):
    """The [run] values of a RunConfig, as its fields hold them."""
    return {"seed": config.seed, "output_dir": str(config.output_dir),
            "emit_plots": config.emit_plots}


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# a grid over a range of two distinct ends needs both of them
SPANNING_POINTS = st.integers(min_value=2, max_value=10**9)
PURCELL_KEYS = [key for key in SCHEMA["loss"] if key.startswith("purcell_")
                or key == "anharmonicity_ghz"]


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
        # no Purcell channel, or one set by g or by chi, never both
        route = draw(st.sampled_from([
            [],
            ["purcell_f_r_ghz", "purcell_kappa_inv_ns", "purcell_g_mhz"],
            ["purcell_f_r_ghz", "purcell_kappa_inv_ns", "purcell_two_chi_khz",
             "purcell_ref_f_q_ghz", "anharmonicity_ghz"],
        ]))
        for key in PURCELL_KEYS:
            sections["loss"].pop(key, None)
        for key in route:
            sections["loss"][key] = draw(_valid_value(SCHEMA["loss"][key]))
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
        resolved = {**config.sections, "run": _run_fields(config)}
        for name, values in sections.items():
            for key, value in values.items():
                assert resolved[name][key] == value, (name, key)
        rendered = Path(tmp) / "rendered.cfg"
        rendered.write_text(render_resolved(config), encoding="utf-8")
        reparsed = parse_config(rendered)
    assert reparsed.sections == config.sections
    assert _run_fields(reparsed) == _run_fields(config)


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


def _unreached(*counts):
    raise AssertionError("the library's shot-count check was reached")


@pytest.mark.parametrize("command", ["simulate-readout", "snr-sweep"])
@pytest.mark.parametrize("line, message", [
    ("kappa_inv_ns = 1e-300", "[readout] kappa_inv_ns: kappa must be finite"),
    ("two_chi_khz = 0", "[readout] two_chi_khz, kappa_inv_ns: "
     "zero dispersive phase produces no signal to calibrate"),
    ("n_shots = 5", "[readout] n_shots: need at least 100 shots per state, got 5"),
    ("seed = 18446744073709551616",
     "[run] seed: seed must fit an unsigned 64-bit integer"),
], ids=["kappa-overflow", "zero-phase", "few-shots", "seed-overflow"])
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
    assert list(out.iterdir()) == []


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
