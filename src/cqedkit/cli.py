"""Command-line front end.

    cqedkit <command> --config <path> [--seed N] [--out DIR] [--plots]

Commands: design-resonator, sweep-spiral, fit-lk, fit-kappa, fit-qdiel,
budget-t1, simulate-readout, snr-sweep.

Commands compute; ``main`` writes. Each ``cmd_*`` takes the resolved
config and returns its report lines plus an ordered map from file name to
artifact: a ``(header, rows)`` table, an ``SvgPlot``, or for
``shots.csv`` the iterator of ``(state, block)`` pairs that
``readout.stream_shots`` returns, which draws the shots only as
``main`` writes them. ``main`` writes the tables and the shots, the plots
only with ``--plots`` (or ``[run] emit_plots``), and last a plain-text
report that echoes the resolved configuration, the seed and the tool
version, then lists the results and the artifacts in map order; the
report alone is enough to repeat the run. A command that fails writes no
artifacts. Failures print a single ``error: <category>: <message>`` line
and exit 1.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Iterator
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, coherence, dataio, readout, resonator, transmon
from .config import RunConfig, parse_config, render_resolved
from .errors import ConfigError, ToolError
from .svgplot import SvgPlot

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------- builders

def _build_film(values) -> resonator.FilmProperties:
    return resonator.FilmProperties(
        lk_nominal=values["lk_nominal_ph_sq"],
        lk_low=values["lk_low_ph_sq"],
        lk_high=values["lk_high_ph_sq"],
        geometric_l_per_square=values["geometric_l_per_square_ph_sq"],
    )


def _build_geometry(values) -> resonator.SpiralGeometry:
    length = values["spiral_length_um"]
    return resonator.build_spiral(
        disk_radius=values["disk_radius_um"] * 1e-6,
        line_width=values["line_width_um"] * 1e-6,
        gap=values["gap_um"] * 1e-6,
        feed_offset=values["feed_offset_um"] * 1e-6,
        turns=values["turns"],
        spiral_length=None if length is None else length * 1e-6,
    )


def _build_readout(config: RunConfig) -> readout.ReadoutConfig:
    values = config.require("readout")
    kappa = 1.0 / (values["kappa_inv_ns"] * 1e-9)
    chi = math.pi * values["two_chi_khz"] * 1e3   # two_chi in kHz -> chi rad/s
    tau_m = values["tau_m_ns"] * 1e-9
    epsilon = values["epsilon_per_s"]
    if epsilon is None:
        epsilon = readout.calibrate_epsilon(
            values["target_snr"], kappa, chi, tau_m)
    return readout.ReadoutConfig(
        epsilon=epsilon,
        kappa=kappa,
        chi=chi,
        tau_m=tau_m,
        n_shots=values["n_shots"],
        seed=config.seed,
        transient=values["transient"],
    )


def _build_purcell(values) -> coherence.PurcellParams | None:
    g_route = values["purcell_g_mhz"] is not None
    chi_route = values["purcell_two_chi_khz"] is not None
    if not g_route and not chi_route:
        return None
    f_r = values["purcell_f_r_ghz"] * 1e9
    kappa = 1.0 / (values["purcell_kappa_inv_ns"] * 1e-9)
    if g_route:
        g = TWO_PI * values["purcell_g_mhz"] * 1e6
    else:
        chi = math.pi * values["purcell_two_chi_khz"] * 1e3
        delta = TWO_PI * (values["purcell_ref_f_q_ghz"] * 1e9 - f_r)
        alpha = TWO_PI * values["anharmonicity_ghz"] * 1e9
        g = transmon.coupling_from_chi(chi, delta, alpha)
    return coherence.PurcellParams(g=g, f_r=f_r, kappa=kappa)


def _loss_model(config: RunConfig) -> coherence.LossModel:
    values = config.require("loss")
    if values["q_diel"] is None:
        raise ConfigError("[loss]: missing required key q_diel")
    return coherence.LossModel(
        q_diel=values["q_diel"],
        purcell=_build_purcell(values),
        gamma_phi=values["gamma_phi_per_s"],
    )


def _resolve_input(config: RunConfig, path_text: str) -> Path:
    path = Path(path_text)
    if not path.is_absolute():
        path = config.source.parent / path
    return path


# ---------------------------------------------------------------- commands

def cmd_design_resonator(config: RunConfig):
    geometry = _build_geometry(config.require("geometry"))
    film = _build_film(config.require("film"))
    res = config.require("resonator")
    c_total = res["c_total_ff"] * 1e-15
    n_squares = resonator.squares(geometry.spiral_length, geometry.line_width)
    inductance = resonator.total_inductance(n_squares, film)
    f_low, f_nominal, f_high = resonator.frequency_band(geometry, film, c_total)
    band = 1.0 - f_low / f_high

    columns = {
        "squares": n_squares,
        "inductance_nominal_nh": inductance * 1e9,
        "f_low_ghz": f_low / 1e9,
        "f_nominal_ghz": f_nominal / 1e9,
        "f_high_ghz": f_high / 1e9,
        "fractional_band": band,
    }
    lines = [f"{name}: {value:.6g}" for name, value in columns.items()]

    kappa = None
    if res["kappa0_per_s"] is not None and res["d0_um"] is not None:
        kappa = resonator.kappa_offset_model(
            geometry.feed_offset, res["kappa0_per_s"], res["d0_um"] * 1e-6)
        lines.append(f"kappa_from_offset_per_s: {kappa:.6g}")
    elif res["q_coupling"] is not None:
        kappa = resonator.kappa_from_qc(f_nominal, res["q_coupling"])
        lines.append(f"kappa_from_qc_per_s: {kappa:.6g}")
    if kappa is not None:
        mode = resonator.ResonatorMode.from_quality_factors(
            f_nominal, resonator.q_c_from_kappa(f_nominal, kappa),
            res["q_internal"])
        lines.append(f"kappa_inv_ns: {1e9 / kappa:.6g}")
        lines.append(f"over_coupled: {str(mode.over_coupled).lower()}")
        columns.update(kappa_per_s=kappa, kappa_inv_ns=1e9 / kappa)
    return lines, {"design.csv": (list(columns), [list(columns.values())])}


def cmd_sweep_spiral(config: RunConfig):
    base_geometry = _build_geometry(config.require("geometry"))
    film = _build_film(config.require("film"))
    c_total = config.require("resonator")["c_total_ff"] * 1e-15
    sweep = config.require("sweep")
    lengths_um = np.linspace(sweep["length_min_um"], sweep["length_max_um"],
                             sweep["points"])
    bands_ghz = np.array([
        resonator.frequency_band(
            replace(base_geometry, spiral_length=length_um * 1e-6),
            film, c_total)
        for length_um in lengths_um]) / 1e9
    f_low, f_nominal, f_high = bands_ghz.T
    lines = [f"points: {len(lengths_um)}",
             f"f_nominal_ghz_range: {f_nominal[-1]:.6g} .. {f_nominal[0]:.6g}"]

    plot = SvgPlot("spiral length (um)", "frequency (GHz)",
                   "resonance band vs spiral length")
    plot.add_band(lengths_um, f_low, f_high)
    plot.add_line(lengths_um, f_nominal, color="#30609f")
    if sweep["measured_csv"] is not None:
        measured = dataio.load_resonator_csv(
            _resolve_input(config, sweep["measured_csv"]))
        lines.append(f"measured_points: {len(measured[0])}")
        plot.add_scatter(measured[0], measured[1], color="#b5512d")
    table = (["spiral_length_um", "f_low_ghz", "f_nominal_ghz", "f_high_ghz"],
             np.column_stack([lengths_um, bands_ghz]))
    return lines, {"spiral_sweep.csv": table, "spiral_sweep.svg": plot}


def cmd_fit_lk(config: RunConfig):
    values = config.require("lk")
    structure = resonator.CpwTestStructure(
        length=values["cpw_length_um"] * 1e-6,
        l_per_length=values["l_per_m_nh"] * 1e-9,
        c_per_length=values["c_per_m_pf"] * 1e-12,
        termination=values["termination"],
    )
    lk = resonator.extract_lk_cpw(
        measured_f=values["measured_f_ghz"] * 1e9,
        structure=structure,
        line_width=values["line_width_um"] * 1e-6,
        geometric_l_per_square=values["geometric_l_per_square_ph_sq"],
    )
    table = (["measured_f_ghz", "lk_ph_sq"], [[values["measured_f_ghz"], lk]])
    return [f"lk_ph_sq: {lk:.6g}"], {"lk_extraction.csv": table}


def cmd_fit_kappa(config: RunConfig):
    values = config.require("kappa_fit")
    lines = []
    artifacts = {}
    if values["trace_csv"] is not None:
        t, v = dataio.load_ringdown_csv(
            _resolve_input(config, values["trace_csv"]))
        ring = resonator.fit_kappa_ringdown(t, v)
        artifacts["kappa_ringdown.csv"] = (
            ["kappa_per_s", "kappa_std_error_per_s", "kappa_inv_ns",
             "amplitude", "offset"],
            [[ring.kappa, ring.kappa_std_error, 1e9 / ring.kappa,
              ring.amplitude, ring.offset]])
        lines += [f"ringdown_kappa_per_s: {ring.kappa:.6g}",
                  f"ringdown_kappa_std_error_per_s: {ring.kappa_std_error:.6g}",
                  f"ringdown_kappa_inv_ns: {1e9 / ring.kappa:.6g}"]
    if values["offset_csv"] is not None:
        d_um, kappas = dataio.load_kappa_offset_csv(
            _resolve_input(config, values["offset_csv"]))
        fit = resonator.fit_kappa_offset(d_um * 1e-6, kappas)
        kappa0, d0 = fit.params
        kappa0_err, d0_err = fit.std_errors
        artifacts["kappa_offset.csv"] = (
            ["kappa0_per_s", "kappa0_std_error_per_s", "d0_um",
             "d0_std_error_um"],
            [[kappa0, kappa0_err, d0 * 1e6, d0_err * 1e6]])
        lines += [f"offset_kappa0_per_s: {kappa0:.6g}",
                  f"offset_d0_um: {d0 * 1e6:.6g}"]
    return lines, artifacts


def cmd_fit_qdiel(config: RunConfig):
    values = config.require("loss")
    if values["coherence_csv"] is None:
        raise ConfigError("[loss]: fit-qdiel needs coherence_csv")
    records = dataio.load_coherence_csv(
        _resolve_input(config, values["coherence_csv"]))
    purcell = _build_purcell(values)
    fit = coherence.fit_qdiel(records, purcell=purcell)
    q_diel = float(fit.params[0])
    q_err = float(fit.std_errors[0])
    model = coherence.LossModel(q_diel=q_diel, purcell=purcell,
                                gamma_phi=values["gamma_phi_per_s"])

    f_q = np.array([r.f_q for r in records])
    t1 = np.array([r.t1 for r in records])
    *_, t1_model = coherence.t1_budget(f_q, model)
    checked = [check for check in map(coherence.t2_bound_check, records)
               if check.applicable]
    lines = [
        f"q_diel: {q_diel:.6g}",
        f"q_diel_std_error: {q_err:.6g}",
        f"converged: {str(fit.converged).lower()}",
        f"t2_bound_checked: {len(checked)}",
        f"t2_bound_passed: {sum(check.passed for check in checked)}",
    ]

    grid = np.linspace(f_q.min(), f_q.max(), 101)
    *_, curve = coherence.t1_budget(grid, model)
    plot = SvgPlot("qubit frequency (GHz)", "T1 (us)",
                   "relaxation budget fit")
    plot.add_line(grid / 1e9, curve * 1e6)
    plot.add_scatter(f_q / 1e9, t1 * 1e6, color="#b5512d")
    return lines, {
        "qdiel_fit.csv": (
            ["f_q_ghz", "t1_us", "t1_model_us", "residual_us"],
            np.column_stack([f_q / 1e9, t1 * 1e6, t1_model * 1e6,
                             (t1 - t1_model) * 1e6])),
        "qdiel_params.csv": (
            ["q_diel", "q_diel_std_error", "converged", "iterations",
             "residual_norm"],
            [[q_diel, q_err, float(fit.converged), float(fit.iterations),
              fit.residual_norm]]),
        "t1_budget.svg": plot,
    }


def cmd_budget_t1(config: RunConfig):
    values = config.require("loss")
    model = _loss_model(config)
    f_min = values["f_q_min_ghz"] * 1e9
    f_max = values["f_q_max_ghz"] * 1e9
    if f_min > f_max:
        raise ConfigError("[loss]: f_q_min_ghz must not exceed f_q_max_ghz")
    grid = (np.array([f_min]) if f_min == f_max
            else np.linspace(f_min, f_max, values["points"]))

    t1_diel, t1_p, total = coherence.t1_budget(grid, model)
    t2 = coherence.t2_from_t1(total, model.gamma_phi)
    f_ghz = grid / 1e9
    lines = [f"points: {len(grid)}",
             f"t1_total_us_at_f_min: {total[0] * 1e6:.6g}",
             f"t1_total_us_at_f_max: {total[-1] * 1e6:.6g}"]

    plot = SvgPlot("qubit frequency (GHz)", "T1 (us)", "relaxation budget")
    plot.add_line(f_ghz, t1_diel * 1e6)
    if model.purcell is not None:
        plot.add_line(f_ghz, t1_p * 1e6)
    plot.add_line(f_ghz, total * 1e6)
    return lines, {
        "t1_budget.csv": (
            ["f_q_ghz", "t1_dielectric_us", "t1_purcell_us", "t1_total_us",
             "t2_us"],
            np.column_stack([f_ghz, t1_diel * 1e6, t1_p * 1e6, total * 1e6,
                             t2 * 1e6])),
        "t1_budget.svg": plot,
    }


def cmd_simulate_readout(config: RunConfig):
    rc = _build_readout(config)
    snr, shots = readout.stream_shots(rc)
    closed = readout.snr_asymptotic(rc)
    fidelity = readout.separation_fidelity(closed)
    lines = [
        f"epsilon_per_s: {rc.epsilon:.6g}",
        f"snr_closed_form: {closed:.6g}",
        f"snr_monte_carlo: {snr:.6g}",
        f"fidelity_closed_form: {fidelity:.9g}",
        f"shots_per_state: {rc.n_shots}",
    ]
    summary = (["snr_eq1", "snr_mc", "sigma_raw", "fidelity_eq1"],
               [[closed, snr, readout.noise_sigma(rc), fidelity]])
    return lines, {"shots.csv": shots,
                   "readout_summary.csv": summary}


def cmd_snr_sweep(config: RunConfig):
    rc = _build_readout(config)
    tau_list_ns = config.require("readout")["tau_list_ns"]
    points = readout.snr_sweep(rc, [tau * 1e-9 for tau in tau_list_ns])
    rows = [[tau_ns, p.snr_closed_form, p.snr_monte_carlo, p.fidelity]
            for tau_ns, p in zip(tau_list_ns, points)]
    lines = [f"epsilon_per_s: {rc.epsilon:.6g}",
             f"tau_points: {len(rows)}"]
    taus_ns, snr_eq1, snr_mc, _ = zip(*rows)
    plot = SvgPlot("integration time (ns)", "SNR",
                   "readout SNR vs integration time")
    plot.add_line(taus_ns, snr_eq1)
    plot.add_scatter(taus_ns, snr_mc, color="#b5512d")
    return lines, {
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cqedkit",
        description="Design and analysis tools for kinetic-inductance "
                    "readout circuits.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the [run] seed")
    parser.add_argument("--out", default=None,
                        help="override the output directory")
    parser.add_argument("--plots", action="store_true",
                        help="emit SVG plots where the command has one")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be nonnegative")
            config.seed = args.seed
        if args.out is not None:
            config.output_dir = Path(args.out)
        outdir = config.output_dir
        outdir.mkdir(parents=True, exist_ok=True)
        lines, artifacts = COMMANDS[args.command](config)
        if not (args.plots or config.emit_plots):
            artifacts = {name: artifact for name, artifact in artifacts.items()
                         if not isinstance(artifact, SvgPlot)}
        for name, artifact in artifacts.items():
            if isinstance(artifact, SvgPlot):
                artifact.write(outdir / name)
            elif isinstance(artifact, Iterator):
                dataio.write_shots_csv(outdir / name, artifact)
            else:
                dataio.write_csv(outdir / name, *artifact)
        names = [*artifacts, "report.txt"]
        report = [
            f"tool: cqedkit {__version__}",
            f"command: {args.command}",
            f"config: {config.source}",
            f"seed: {config.seed}",
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
        (outdir / "report.txt").write_text("\n".join(report) + "\n",
                                           encoding="utf-8")
    except ToolError as exc:
        print(f"error: {exc.slug}: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(f"wrote {', '.join(names)} to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
