"""Design and analysis toolkit for kinetic-inductance readout circuits.

Modules
-------
transmon
    Closed-form qubit and dispersive-coupling relations.
resonator
    Spiral resonator design, sheet-inductance extraction, ring-down fits.
coherence
    T1/T2 budgets from dielectric and Purcell channels, Q_diel fits.
readout
    Closed-form and Monte-Carlo dispersive readout SNR and fidelity.
fitting
    One-parameter bracketed least squares, Gaussian moment fits, erfc.
cli / config / dataio / svgplot
    Command-line front end, config files, CSV schemas, SVG plots.

The names below are imported from their module on first access
(PEP 562), so ``import cqedkit`` loads no submodule and the closed-form
paths never load numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "coherence": (
        "CoherenceRecord",
        "LossModel",
        "PurcellParams",
        "T2BoundCheck",
        "fit_qdiel",
        "t1_budget",
        "t1_dielectric",
        "t1_purcell",
        "t1_total",
        "t2_bound_check",
        "t2_from_t1",
    ),
    "errors": (
        "ConfigError",
        "DegenerateDataError",
        "DomainError",
        "FitFailureError",
        "InsufficientDataError",
        "OutputError",
        "ToolError",
    ),
    "fitting": (
        "FitResult",
        "GaussianEstimate",
        "erfc",
        "fit_gaussian_1d",
        "least_squares",
    ),
    "readout": (
        "HistogramFit",
        "ReadoutConfig",
        "ShotSet",
        "SweepPoint",
        "calibrate_epsilon",
        "cavity_response",
        "derive_seed",
        "histogram_fit",
        "integrated_signal",
        "noise_sigma",
        "separation_fidelity",
        "simulate_shots",
        "snr_asymptotic",
        "snr_monte_carlo",
        "snr_sweep",
        "stream_shots",
    ),
    "resonator": (
        "CpwTestStructure",
        "FilmProperties",
        "ResonatorMode",
        "RingdownFit",
        "SpiralGeometry",
        "archimedean_spiral_length",
        "build_spiral",
        "cpw_mode_frequency",
        "extract_lk_cpw",
        "fit_kappa_offset",
        "fit_kappa_ringdown",
        "frequency_band",
        "kappa_from_qc",
        "kappa_offset_model",
        "q_c_from_kappa",
        "resonance_frequency",
        "squares",
        "total_inductance",
    ),
    "transmon": (
        "DispersiveCoupling",
        "TransmonParams",
        "anharmonicity",
        "charging_energy",
        "coupling_from_chi",
        "dispersive_phase",
        "dispersive_shift",
        "flux_effective_ej",
        "transmon_frequency",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
