"""Command-line front end.

    cqedkit <command> --config <path> [--seed N] [--out DIR] [--plots]

Commands: design-resonator, sweep-spiral, fit-lk, fit-kappa, fit-qdiel,
budget-t1, simulate-readout, snr-sweep. Results go to ``--out``, a plain
path, or ``cqedkit-out`` by default.

Commands compute; ``main`` writes. Each ``cmd_*`` takes the resolved
config and returns its results, an ordered map from name to raw value
(an int, float, bool or str, or sweep-spiral's ``(low, high)`` pair),
and an ordered map from file name to artifact: a ``(header, rows)``
table, an ``SvgPlot``, or for ``shots.csv`` the ``(state, block)``
iterator of ``readout.stream_shots``, which draws the shots as ``main``
writes them. ``main`` writes the tables and the shots, the plots only
with ``--plots`` (or ``[run] emit_plots``), and last a report that
echoes the resolved configuration, ``--seed`` and ``--plots`` included,
and the tool version, renders the results by one rule, ``result_line``,
and lists the artifacts in map order; the report alone is enough to
repeat the run into any output directory. A command that fails writes no
artifacts, and a failed write removes the files the run wrote. Failures
print a single ``error: <category>: <message>`` line and exit 1.

Each command imports the library modules it uses beyond ``resonator``
and ``dataio`` when it runs. Seven commands, with the parser, the writers
and the report, run on plain Python floats without numpy:
design-resonator, sweep-spiral, fit-lk, fit-kappa, fit-qdiel, budget-t1
and snr-sweep, which samples from the stdlib's random stream. Only
simulate-readout loads numpy, for its PCG64 shot streams, through
``readout``. If that is the first load of numpy, it loads OpenBLAS with
one thread unless ``OPENBLAS_NUM_THREADS`` is set.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from collections.abc import Iterator
from pathlib import Path

from . import __version__, dataio, resonator
from .config import (SCHEMA, RunConfig, check_value, naming_keys, parse_config,
                     render_resolved)
from .errors import ConfigError, OutputError, ToolError, require_finite
from .floats import linspace
from .svgplot import SvgPlot


# ---------------------------------------------------------------- builders

def _build_film(values) -> resonator.FilmProperties:
    with naming_keys({"": "[film] lk_low_ph_sq, lk_nominal_ph_sq, lk_high_ph_sq"}):
        return resonator.FilmProperties(
            lk_nominal=values["lk_nominal_ph_sq"],
            lk_low=values["lk_low_ph_sq"],
            lk_high=values["lk_high_ph_sq"],
            geometric_l_per_square=values["geometric_l_per_square_ph_sq"],
        )


# The keys each geometry value comes from, by the library's name for it;
# the other values derive from several keys
_GEOMETRY_KEYS = {"turns": "[geometry] turns",
                  "": "[geometry] disk_radius_um, line_width_um, gap_um, turns"}
# The keys of a band's frequencies besides the spiral's length and width
_BAND_KEYS = ("[film] lk_nominal_ph_sq, lk_low_ph_sq, lk_high_ph_sq, "
              "geometric_l_per_square_ph_sq, [resonator] c_total_ff")


def _build_geometry(values) -> resonator.SpiralGeometry:
    with naming_keys(_GEOMETRY_KEYS):
        return resonator.build_spiral(
            disk_radius=values["disk_radius_um"] * 1e-6,
            line_width=values["line_width_um"] * 1e-6,
            gap=values["gap_um"] * 1e-6,
            feed_offset=values["feed_offset_um"] * 1e-6,
            turns=values["turns"],
        )


def _kappa(values) -> float:
    """``[readout] kappa_inv_ns`` in 1/s; 1e-320 ns underflows to inf."""
    inverse = values["kappa_inv_ns"] * 1e-9
    return 1.0 / inverse if inverse else math.inf


def _inverse_ns(kappa: float) -> float:
    """1/kappa in ns; one that overflows is a DomainError naming kappa_inv_ns."""
    inverse = 1e9 / kappa
    require_finite(kappa_inv_ns=inverse)
    return inverse


def _build_purcell(config: RunConfig) -> coherence.PurcellParams | None:
    from . import coherence

    values = config.require("loss")
    if values["purcell_g_mhz"] is None:
        return None
    # the keys each value comes from, by the library's name for it
    with naming_keys({"kappa": "[readout] kappa_inv_ns",
                      "f_r": "[loss] purcell_f_r_ghz", "": "[loss] purcell_g_mhz"}):
        return coherence.PurcellParams(
            g=coherence.TWO_PI * values["purcell_g_mhz"] * 1e6,
            f_r=values["purcell_f_r_ghz"] * 1e9,
            kappa=_kappa(config.require("readout")))


# The keys each value comes from (kappa_inv_ns = 1e-300 makes kappa inf);
# a text naming no value is the dispersive phase's
_SNR_KEYS = "[readout] target_snr, kappa_inv_ns, two_chi_khz, tau_m_ns"
_READOUT_KEYS = {"kappa": "[readout] kappa_inv_ns", "chi": "[readout] two_chi_khz",
                 "tau_m": "[readout] tau_m_ns", "epsilon": _SNR_KEYS,
                 "snr": _SNR_KEYS, "": "[readout] two_chi_khz, kappa_inv_ns"}


def _build_readout(config: RunConfig) -> readout.ReadoutConfig:
    if "numpy" not in sys.modules:
        # cqedkit's BLAS products are far too small for OpenBLAS to thread,
        # so an idle BLAS worker only burns CPU. Set before
        # simulate-readout loads numpy; a caller's own value wins.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # coherence is unused here; loading it with readout puts every module
    # whose functions bench/tracing.py wraps in sys.modules after one
    # readout command
    from . import coherence, readout  # noqa: F401

    values = config.require("readout")
    if values["n_shots"] < readout.MIN_SHOTS:
        raise ConfigError(f"[readout] n_shots: need at least {readout.MIN_SHOTS} "
                          f"shots per state, got {values['n_shots']}")
    chi = math.pi * values["two_chi_khz"] * 1e3   # two_chi in kHz -> chi rad/s
    tau_m = values["tau_m_ns"] * 1e-9
    with naming_keys(_READOUT_KEYS):
        kappa = _kappa(values)
        rc = readout.ReadoutConfig(
            epsilon=readout.calibrate_epsilon(values["target_snr"], kappa, chi, tau_m),
            kappa=kappa, chi=chi, tau_m=tau_m, n_shots=values["n_shots"],
            seed=config.require("run")["seed"])
        readout.snr_asymptotic(rc)   # the calibrated SNR can still overflow
        return rc


# ---------------------------------------------------------------- commands

def cmd_design_resonator(config: RunConfig):
    geometry = _build_geometry(config.require("geometry"))
    film = _build_film(config.require("film"))
    res = config.require("resonator")
    c_total = res["c_total_ff"] * 1e-15
    with naming_keys({"": f"{_GEOMETRY_KEYS['']}, {_BAND_KEYS}"}):
        f_low, f_nominal, f_high = resonator.frequency_band(geometry, film, c_total)
    # both finite once the band is: it holds the nominal mode's inductance
    n_squares = resonator.squares(geometry.spiral_length, geometry.line_width)
    inductance = resonator.total_inductance(n_squares, film)
    band = 1.0 - f_low / f_high

    results = {
        "squares": n_squares,
        "inductance_nominal_nh": inductance * 1e9,
        "f_low_ghz": f_low / 1e9,
        "f_nominal_ghz": f_nominal / 1e9,
        "f_high_ghz": f_high / 1e9,
        "fractional_band": band,
    }
    columns = dict(results)
    if res["q_coupling"] is not None:
        mode = resonator.ResonatorMode(f_nominal, res["q_coupling"],
                                       res["q_internal"])
        # a kappa that overflows, underflows to 0 or has no finite inverse
        with naming_keys({"": "[resonator] q_coupling"}):
            kappa = mode.kappa
            inverse = _inverse_ns(kappa)
        results.update(kappa_from_qc_per_s=kappa, kappa_inv_ns=inverse,
                       over_coupled=mode.over_coupled)
        columns.update(kappa_per_s=kappa, kappa_inv_ns=inverse)
    return results, {"design.csv": (list(columns), [list(columns.values())])}


def cmd_sweep_spiral(config: RunConfig):
    values = config.require("geometry")
    line_width = values["line_width_um"] * 1e-6
    feed_offset = values["feed_offset_um"] * 1e-6
    film = _build_film(config.require("film"))
    c_total = config.require("resonator")["c_total_ff"] * 1e-15
    sweep = config.require("sweep")
    lengths_um = linspace(sweep["length_min_um"], sweep["length_max_um"],
                          sweep["points"])
    rows = []
    with naming_keys({"": "[sweep] length_min_um, length_max_um, [geometry] "
                          f"line_width_um, {_BAND_KEYS}"}):
        for length_um in lengths_um:
            geometry = resonator.SpiralGeometry(line_width, length_um * 1e-6,
                                                feed_offset)
            band = resonator.frequency_band(geometry, film, c_total)
            rows.append([length_um, *(f / 1e9 for f in band)])
    _, f_low, f_nominal, f_high = zip(*rows)
    results = {"points": len(rows),
               "f_nominal_ghz_range": (f_nominal[-1], f_nominal[0])}

    plot = SvgPlot("spiral length (um)", "frequency (GHz)",
                   "resonance band vs spiral length")
    plot.add_band(lengths_um, f_low, f_high)
    plot.add_line(lengths_um, f_nominal, color="#30609f")
    if sweep["measured_csv"] is not None:
        measured = dataio.load_resonator_csv(
            config.input_path(sweep["measured_csv"]))
        results["measured_points"] = len(measured[0])
        plot.add_scatter(measured[0], measured[1], color="#b5512d")
    table = (["spiral_length_um", "f_low_ghz", "f_nominal_ghz", "f_high_ghz"],
             rows)
    return results, {"spiral_sweep.csv": table, "spiral_sweep.svg": plot}


def cmd_fit_lk(config: RunConfig):
    values = config.require("lk")
    # every key enters the one relation
    with naming_keys({"measured_f": "[lk] measured_f_ghz",
                      "": f"[lk] {', '.join(values)}"}):
        structure = resonator.CpwTestStructure(
            length=values["cpw_length_um"] * 1e-6,
            l_per_length=values["l_per_m_nh"] * 1e-9,
            c_per_length=values["c_per_m_pf"] * 1e-12,
        )
        lk = resonator.extract_lk_cpw(
            measured_f=values["measured_f_ghz"] * 1e9,
            structure=structure,
            line_width=values["line_width_um"] * 1e-6,
            geometric_l_per_square=values["geometric_l_per_square_ph_sq"],
        )
    table = (["measured_f_ghz", "lk_ph_sq"], [[values["measured_f_ghz"], lk]])
    return {"lk_ph_sq": lk}, {"lk_extraction.csv": table}


def cmd_fit_kappa(config: RunConfig):
    values = config.require("kappa_fit")
    results = {}
    artifacts = {}
    if values["trace_csv"] is not None:
        t, v = dataio.load_ringdown_csv(
            config.input_path(values["trace_csv"]))
        # the fit's failures on the trace name the file
        with naming_keys({"": "[kappa_fit] trace_csv"}):
            ring = resonator.fit_kappa_ringdown(t, v)
            inverse = _inverse_ns(ring.kappa)
        artifacts["kappa_ringdown.csv"] = (
            ["kappa_per_s", "kappa_std_error_per_s", "kappa_inv_ns",
             "amplitude", "offset"],
            [[ring.kappa, ring.kappa_std_error, inverse,
              ring.amplitude, ring.offset]])
        results.update(ringdown_kappa_per_s=ring.kappa,
                       ringdown_kappa_std_error_per_s=ring.kappa_std_error,
                       ringdown_kappa_inv_ns=inverse)
    if values["offset_csv"] is not None:
        d_um, kappas = dataio.load_kappa_offset_csv(
            config.input_path(values["offset_csv"]))
        with naming_keys({"": "[kappa_fit] offset_csv"}):
            fit = resonator.fit_kappa_offset([d * 1e-6 for d in d_um], kappas)
        kappa0, d0 = fit.params
        kappa0_err, d0_err = fit.std_errors
        artifacts["kappa_offset.csv"] = (
            ["kappa0_per_s", "kappa0_std_error_per_s", "d0_um",
             "d0_std_error_um"],
            [[kappa0, kappa0_err, d0 * 1e6, d0_err * 1e6]])
        results.update(offset_kappa0_per_s=kappa0, offset_d0_um=d0 * 1e6)
    return results, artifacts


def cmd_fit_qdiel(config: RunConfig):
    from . import coherence

    values = config.require("loss")
    if values["coherence_csv"] is None:
        raise ConfigError("[loss]: fit-qdiel needs coherence_csv")
    records = dataio.load_coherence_csv(
        config.input_path(values["coherence_csv"]))
    purcell = _build_purcell(config)
    f_q = [r.f_q for r in records]
    t1 = [r.t1 for r in records]
    grid = linspace(min(f_q), max(f_q), 101)
    with naming_keys({"delta": "[loss] purcell_f_r_ghz, coherence_csv",
                      "purcell": "[loss] purcell_g_mhz, purcell_f_r_ghz, "
                                 "coherence_csv, [readout] kappa_inv_ns",
                      "": "[loss] coherence_csv"}):
        fit = coherence.fit_qdiel(records, purcell=purcell)
        q_diel, = fit.params
        model = coherence.LossModel(q_diel=q_diel, purcell=purcell,
                                    gamma_phi=values["gamma_phi_per_s"])
        *_, t1_model = coherence.t1_budget(f_q, model)
        *_, curve = coherence.t1_budget(grid, model)
    q_err, = fit.std_errors
    checked = [check for check in map(coherence.t2_bound_check, records)
               if check.applicable]
    results = {
        "q_diel": q_diel,
        "q_diel_std_error": q_err,
        "converged": fit.converged,
        "t2_bound_checked": len(checked),
        "t2_bound_passed": sum(check.passed for check in checked),
    }

    plot = SvgPlot("qubit frequency (GHz)", "T1 (us)",
                   "relaxation budget fit")
    plot.add_line([f / 1e9 for f in grid], [t * 1e6 for t in curve])
    plot.add_scatter([f / 1e9 for f in f_q], [t * 1e6 for t in t1],
                     color="#b5512d")
    return results, {
        "qdiel_fit.csv": (
            ["f_q_ghz", "t1_us", "t1_model_us", "residual_us"],
            [[f / 1e9, t * 1e6, m * 1e6, (t - m) * 1e6]
             for f, t, m in zip(f_q, t1, t1_model)]),
        "qdiel_params.csv": (
            ["q_diel", "q_diel_std_error", "converged", "iterations",
             "residual_norm"],
            [[q_diel, q_err, float(fit.converged), float(fit.iterations),
              fit.residual_norm]]),
        "t1_budget.svg": plot,
    }


# The keys the budget's frequency grid and its T1 come from, by the
# library's name
_GRID_KEYS = {"t1": "[loss] q_diel, f_q_min_ghz, f_q_max_ghz",
              "delta": "[loss] purcell_f_r_ghz, f_q_min_ghz, f_q_max_ghz",
              "t1_purcell": "[loss] purcell_g_mhz, purcell_f_r_ghz, f_q_min_ghz, "
                            "f_q_max_ghz, [readout] kappa_inv_ns",
              "": "[loss] f_q_min_ghz, f_q_max_ghz"}


def cmd_budget_t1(config: RunConfig):
    from . import coherence

    values = config.require("loss")
    if values["q_diel"] is None:
        raise ConfigError("[loss]: missing required key q_diel")
    model = coherence.LossModel(q_diel=values["q_diel"], purcell=_build_purcell(config),
                                gamma_phi=values["gamma_phi_per_s"])
    f_min = values["f_q_min_ghz"] * 1e9
    f_max = values["f_q_max_ghz"] * 1e9
    grid = ([f_min] if f_min == f_max
            else linspace(f_min, f_max, values["points"]))

    with naming_keys(_GRID_KEYS):
        t1_diel, t1_p, total = coherence.t1_budget(grid, model)
        t2 = [coherence.t2_from_t1(t1, model.gamma_phi) for t1 in total]
        # the table is in us, where a T1 or T2 near the largest float
        # overflows; the Purcell limit is inf only where g = 0
        require_finite(t1=[t * 1e6 for t in (*t1_diel, *t2)])
        if values["purcell_g_mhz"]:
            require_finite(t1_purcell=[t * 1e6 for t in t1_p])
    f_ghz = [f / 1e9 for f in grid]
    results = {"points": len(grid),
               "t1_total_us_at_f_min": total[0] * 1e6,
               "t1_total_us_at_f_max": total[-1] * 1e6}

    plot = SvgPlot("qubit frequency (GHz)", "T1 (us)", "relaxation budget")
    plot.add_line(f_ghz, [t * 1e6 for t in t1_diel])
    if model.purcell is not None:
        plot.add_line(f_ghz, [t * 1e6 for t in t1_p])
    plot.add_line(f_ghz, [t * 1e6 for t in total])
    return results, {
        "t1_budget.csv": (
            ["f_q_ghz", "t1_dielectric_us", "t1_purcell_us", "t1_total_us",
             "t2_us"],
            [[f, *(t * 1e6 for t in row)]
             for f, *row in zip(f_ghz, t1_diel, t1_p, total, t2)]),
        "t1_budget.svg": plot,
    }


def cmd_simulate_readout(config: RunConfig):
    rc = _build_readout(config)
    from . import readout  # loaded by _build_readout, after the BLAS default

    with naming_keys({"": _SNR_KEYS}):   # moments that overflow
        snr, shots = readout.stream_shots(rc)
    closed = readout.snr_asymptotic(rc)
    fidelity = readout.separation_fidelity(closed)
    results = {
        "epsilon_per_s": rc.epsilon,
        "snr_closed_form": closed,
        "snr_monte_carlo": snr,
        "fidelity_closed_form": fidelity,
        "shots_per_state": rc.n_shots,
    }
    summary = (["snr_eq1", "snr_mc", "sigma_raw", "fidelity_eq1"],
               [[closed, snr, readout.noise_sigma(rc), fidelity]])
    return results, {"shots.csv": shots, "readout_summary.csv": summary}


def cmd_snr_sweep(config: RunConfig):
    rc = _build_readout(config)
    from . import readout  # loaded by _build_readout, after the BLAS default

    tau_list_ns = config.require("readout")["tau_list_ns"]
    # an SNR that overflows at a long tau
    with naming_keys({"": "[readout] tau_list_ns, target_snr, kappa_inv_ns, "
                          "two_chi_khz, tau_m_ns"}):
        points = readout.snr_sweep(rc, [tau * 1e-9 for tau in tau_list_ns])
    rows = [[tau_ns, p.snr_closed_form, p.snr_monte_carlo, p.fidelity]
            for tau_ns, p in zip(tau_list_ns, points)]
    results = {"epsilon_per_s": rc.epsilon, "tau_points": len(rows)}
    taus_ns, snr_eq1, snr_mc, _ = zip(*rows)
    plot = SvgPlot("integration time (ns)", "SNR",
                   "readout SNR vs integration time")
    plot.add_line(taus_ns, snr_eq1)
    plot.add_scatter(taus_ns, snr_mc, color="#b5512d")
    return results, {
        "snr_sweep.csv": (["tau_ns", "snr_eq1", "snr_mc", "fidelity"], rows),
        "snr_sweep.svg": plot,
    }


COMMANDS = {
    "design-resonator": cmd_design_resonator,
    "sweep-spiral": cmd_sweep_spiral,
    "fit-lk": cmd_fit_lk,
    "fit-kappa": cmd_fit_kappa,
    "fit-qdiel": cmd_fit_qdiel,
    "budget-t1": cmd_budget_t1,
    "simulate-readout": cmd_simulate_readout,
    "snr-sweep": cmd_snr_sweep,
}


# The results whose report line has more than 6 significant digits
_DIGITS = {"fidelity_closed_form": 9}


def result_line(name: str, value) -> str:
    """``name: value``: a bool as true or false, a float to 6 significant
    digits (or its ``_DIGITS``), a pair as ``low .. high``, else ``str``."""
    if isinstance(value, bool):
        value = str(value).lower()
    elif isinstance(value, float):
        value = f"{value:.{_DIGITS.get(name, 6)}g}"
    elif isinstance(value, tuple):
        value = "{:.6g} .. {:.6g}".format(*value)
    return f"{name}: {value}"


def _write_all(outdir: Path, files: dict) -> None:
    """Write each file under a ``.partial`` name, then move all into place.

    The shots still stream to disk. Any failure removes every file this
    run wrote, so a failed run leaves no artifact behind; an OSError
    becomes an OutputError naming the path.
    """
    written = []
    path = outdir
    try:
        for name, artifact in files.items():
            path = outdir / f"{name}.partial"
            written.append(path)
            if isinstance(artifact, str):
                path.write_text(artifact, encoding="utf-8")
            elif isinstance(artifact, SvgPlot):
                artifact.write(path)
            elif isinstance(artifact, Iterator):
                dataio.write_shots_csv(path, artifact)
            else:
                dataio.write_csv(path, *artifact)
        for name in files:
            path = outdir / name
            os.replace(outdir / f"{name}.partial", path)
            written.append(path)
    except BaseException as exc:
        for done in written:
            with contextlib.suppress(OSError):
                done.unlink()
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cqedkit",
        description="Design and analysis tools for kinetic-inductance "
                    "readout circuits.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the [run] seed")
    parser.add_argument("--out", default="cqedkit-out",
                        help="output directory (default: cqedkit-out)")
    parser.add_argument("--plots", action="store_true",
                        help="emit SVG plots where the command has one")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
        run = config.require("run")
        if args.seed is not None:
            run["seed"] = check_value("--seed", SCHEMA["run"]["seed"], args.seed)
        if args.plots:
            run["emit_plots"] = True
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OutputError(f"cannot create output directory {outdir}: "
                              f"{exc.strerror or exc}") from exc
        results, artifacts = COMMANDS[args.command](config)
        lines = [result_line(*item) for item in results.items()]
        if not run["emit_plots"]:
            artifacts = {name: artifact for name, artifact in artifacts.items()
                         if not isinstance(artifact, SvgPlot)}
        names = [*artifacts, "report.txt"]
        report = [
            f"tool: cqedkit {__version__}",
            f"command: {args.command}",
            f"config: {config.source}",
            f"seed: {run['seed']}",
            "",
            "# resolved configuration (usable as a config file)",
            render_resolved(config).rstrip(),
            "",
            "# results",
            *lines,
            "",
            "# artifacts",
            *names,
        ]
        _write_all(outdir, {**artifacts, "report.txt": "\n".join(report) + "\n"})
    except ToolError as exc:
        print(f"error: {exc.slug}: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(f"wrote {', '.join(names)} to {outdir}")
    return 0
