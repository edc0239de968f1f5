"""The results each command returns, the one rule that renders them, and
the fit inputs near the ends of the float range that used to end a run in
``inf`` or a traceback."""

import random
import re
from functools import partial
from pathlib import Path

import pytest

from cqedkit.cli import COMMANDS, main, result_line
from cqedkit.config import parse_config
from cqedkit.floats import normal

from conftest import scaled, write_demo_configs


@pytest.fixture
def inputs(demo_inputs, tmp_path):
    """The demo inputs at seed 3, as ``make_demo_inputs.py --seed 3``
    writes them, and the demo configs."""
    demo_inputs.write_inputs(tmp_path, partial(normal, random.Random(3)))
    write_demo_configs(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name, value, line", [
    ("converged", True, "converged: true"),
    ("over_coupled", False, "over_coupled: false"),
    ("points", 25, "points: 25"),
    ("shots_per_state", 10**12, "shots_per_state: 1000000000000"),
    ("q_diel", 746123.456789, "q_diel: 746123"),
    ("kappa_inv_ns", 3.0e-7, "kappa_inv_ns: 3e-07"),
    ("f_nominal_ghz_range", (4.12345678, 7.0), "f_nominal_ghz_range: 4.12346 .. 7"),
    ("fidelity_closed_form", 0.993790334123, "fidelity_closed_form: 0.993790334"),
    ("snr_closed_form", 0.993790334123, "snr_closed_form: 0.99379"),
    ("label", "text", "label: text"),
], ids=["true", "false", "int", "large-int", "float", "small-float", "pair",
        "nine-digits", "six-digits", "str"])
def test_result_line_renders_each_type_by_one_rule(name, value, line):
    assert result_line(name, value) == line


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_results_are_raw_values(command, inputs):
    config = "fits.cfg" if command.startswith("fit-") else "measured.cfg"
    results, _ = COMMANDS[command](parse_config(inputs / config))
    assert results
    for name, value in results.items():
        if isinstance(value, tuple):
            assert len(value) == 2 and all(type(end) is float for end in value), name
        else:
            assert type(value) in (bool, int, float, str), (name, type(value))
        # the renderer adds the name; a value carries no line of its own
        assert not re.match(r"\w+: ", str(value)), (name, value)


def _scale_column(path: Path, column: str, power: int) -> None:
    """Scale one column of a CSV by 10^power."""
    header, *rows = [line.split(",") for line in
                     path.read_text(encoding="utf-8").splitlines()]
    at = header.index(column)
    for row in rows:
        row[at] = scaled(row[at], power)
    path.write_text("".join(",".join(row) + "\n" for row in [header, *rows]),
                    encoding="utf-8")


@pytest.mark.parametrize("command, name, column, power, error", [
    # subnormal times: kappa overflows to inf and its inverse to 0
    ("fit-kappa", "ringdown.csv", "t_s", -310,
     "error: config: [kappa_fit] trace_csv: kappa must be finite\n"),
    # times near the top of the range: 1e9 / kappa overflows
    ("fit-kappa", "ringdown.csv", "t_s", 313,
     "error: config: [kappa_fit] trace_csv: kappa_inv_ns must be finite\n"),
    # the square of the bracket's low end underflows to 0
    ("fit-qdiel", "coherence.csv", "f_q_ghz", -200,
     "error: fit-failure: [loss] coherence_csv: Q_diel fit over 0.1 x the "
     "smallest to 1e3 x the largest omega_q*T1: Q_diel^2 underflows to 0 at "),
    # finite kappas whose extrapolated log kappa0 is past ln(DBL_MAX)
    ("fit-kappa", "kappa_offset.csv", "kappa_per_s", 301,
     "error: config: [kappa_fit] offset_csv: math range error\n"),
], ids=["subnormal-times", "huge-times", "subnormal-frequencies",
        "kappa0-overflow"])
def test_fit_input_at_the_float_range_ends_fails_on_one_named_line(
        command, name, column, power, error, inputs, capsys):
    _scale_column(inputs / name, column, power)
    out = inputs / "out"
    assert main([command, "--config", str(inputs / "fits.cfg"),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(error) and err.count("\n") == 1, err
    assert list(out.iterdir()) == []
