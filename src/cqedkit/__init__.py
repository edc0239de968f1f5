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
    Damped least squares, Gaussian moment fits, erfc kernel.
cli / config / dataio / svgplot
    Command-line front end, config files, CSV schemas, SVG plots.
"""

__version__ = "0.1.0"

from .coherence import (
    CoherenceRecord,
    LossModel,
    PurcellParams,
    T2BoundCheck,
    fit_qdiel,
    t1_budget,
    t1_dielectric,
    t1_purcell,
    t1_total,
    t2_bound_check,
    t2_from_t1,
)
from .errors import (
    ConfigError,
    DegenerateDataError,
    DomainError,
    FitFailureError,
    InsufficientDataError,
    ToolError,
)
from .fitting import (
    FitModel,
    FitResult,
    GaussianEstimate,
    erfc,
    fit_gaussian_1d,
    least_squares,
    numeric_jacobian,
)
from .readout import (
    HistogramFit,
    ReadoutConfig,
    ShotSet,
    SweepPoint,
    calibrate_epsilon,
    cavity_response,
    derive_seed,
    histogram_fit,
    integrated_signal,
    noise_sigma,
    separation_fidelity,
    simulate_shots,
    snr_asymptotic,
    snr_monte_carlo,
    snr_sweep,
    stream_shots,
)
from .resonator import (
    CpwTestStructure,
    FilmProperties,
    ResonatorMode,
    RingdownFit,
    SpiralGeometry,
    archimedean_spiral_length,
    build_spiral,
    cpw_mode_frequency,
    extract_lk_cpw,
    fit_kappa_offset,
    fit_kappa_ringdown,
    frequency_band,
    kappa_from_qc,
    kappa_offset_model,
    q_c_from_kappa,
    resonance_frequency,
    squares,
    total_inductance,
)
from .transmon import (
    DispersiveCoupling,
    TransmonParams,
    anharmonicity,
    charging_energy,
    coupling_from_chi,
    dispersive_phase,
    dispersive_shift,
    flux_effective_ej,
    transmon_frequency,
)

__all__ = [name for name in dir() if not name.startswith("_")]
