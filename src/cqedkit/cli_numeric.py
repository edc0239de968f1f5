"""The command line's two readout commands: simulate-readout and snr-sweep.

They run the readout simulator, whose Monte-Carlo draws need numpy's
PCG64 streams, so they are the only commands that load numpy.
``cli.main`` imports this module only when one of them runs. Each
``cmd_*`` keeps the ``cli`` contract: it takes the resolved config and
returns its report lines plus an ordered map from file name to artifact.
"""

from __future__ import annotations

import math

# coherence is unused here; loading it with readout puts every module whose
# functions bench/tracing.py wraps in sys.modules after one readout command
from . import coherence, readout  # noqa: F401
from .config import RunConfig, key_error
from .errors import ConfigError, DomainError
from .svgplot import SvgPlot


# ---------------------------------------------------------------- builders

# The keys each value comes from (kappa_inv_ns = 1e-300 makes kappa inf);
# a text naming no value is the dispersive phase's
_READOUT_KEYS = {"kappa": "[readout] kappa_inv_ns", "chi": "[readout] two_chi_khz",
                 "tau_m": "[readout] tau_m_ns",
                 "epsilon": "[readout] target_snr, kappa_inv_ns, two_chi_khz, tau_m_ns",
                 "": "[readout] two_chi_khz, kappa_inv_ns"}


def _build_readout(config: RunConfig) -> readout.ReadoutConfig:
    values = config.require("readout")
    if values["n_shots"] < readout.MIN_SHOTS:
        raise ConfigError(f"[readout] n_shots: need at least {readout.MIN_SHOTS} "
                          f"shots per state, got {values['n_shots']}")
    kappa = 1.0 / (values["kappa_inv_ns"] * 1e-9)
    chi = math.pi * values["two_chi_khz"] * 1e3   # two_chi in kHz -> chi rad/s
    tau_m = values["tau_m_ns"] * 1e-9
    epsilon = values["epsilon_per_s"]
    try:
        if epsilon is None:
            epsilon = readout.calibrate_epsilon(
                values["target_snr"], kappa, chi, tau_m)
        return readout.ReadoutConfig(
            epsilon=epsilon, kappa=kappa, chi=chi, tau_m=tau_m,
            n_shots=values["n_shots"], seed=config.seed,
            transient=values["transient"])
    except DomainError as exc:
        raise key_error(_READOUT_KEYS, exc) from None


# ---------------------------------------------------------------- commands

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
    "simulate-readout": cmd_simulate_readout,
    "snr-sweep": cmd_snr_sweep,
}
