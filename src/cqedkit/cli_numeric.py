"""The command line's numeric commands.

fit-kappa, fit-qdiel, budget-t1, simulate-readout and snr-sweep compute
with numpy arrays, the T1 budget of ``coherence`` and the readout
simulator. This module imports all three at the top, so every numeric
command loads numpy, ``coherence``, ``fitting`` and ``readout`` together;
``cli.main`` imports it only when one of these commands runs, and the
closed-form commands start without numpy. Each ``cmd_*`` keeps the
``cli`` contract: it takes the resolved config and returns its report
lines plus an ordered map from file name to artifact.
"""

from __future__ import annotations

import math

import numpy as np

from . import coherence, dataio, readout, resonator, transmon
from .config import RunConfig
from .errors import ConfigError
from .svgplot import SvgPlot


# ---------------------------------------------------------------- builders

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
        g = coherence.TWO_PI * values["purcell_g_mhz"] * 1e6
    else:
        chi = math.pi * values["purcell_two_chi_khz"] * 1e3
        delta = coherence.TWO_PI * (values["purcell_ref_f_q_ghz"] * 1e9 - f_r)
        alpha = coherence.TWO_PI * values["anharmonicity_ghz"] * 1e9
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


# ---------------------------------------------------------------- commands

def cmd_fit_kappa(config: RunConfig):
    values = config.require("kappa_fit")
    lines = []
    artifacts = {}
    if values["trace_csv"] is not None:
        t, v = dataio.load_ringdown_csv(
            config.input_path(values["trace_csv"]))
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
            config.input_path(values["offset_csv"]))
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
        config.input_path(values["coherence_csv"]))
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
    "fit-kappa": cmd_fit_kappa,
    "fit-qdiel": cmd_fit_qdiel,
    "budget-t1": cmd_budget_t1,
    "simulate-readout": cmd_simulate_readout,
    "snr-sweep": cmd_snr_sweep,
}
