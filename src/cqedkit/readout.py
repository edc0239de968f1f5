"""Dispersive single-shot readout: closed-form SNR, shot simulation, histograms.

The closed-form signal-to-noise ratio is

    snr(tau) = (2 eps / kappa) * sqrt(2 kappa tau) * |sin(2 phi)|,

valid in the long-measurement limit. The Monte-Carlo path integrates the
cavity pointer states (or jumps straight to their steady-state values),
adds white Gaussian noise per quadrature, and recovers the SNR from
Gaussian fits of the projected clouds, mirroring how measured IQ data is
processed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InsufficientDataError
from .fitting import erfc, fit_gaussian_1d
from .transmon import dispersive_phase

SHOT_BLOCK = 4096
GROUND = "g"
EXCITED = "e"
_STATE_SIGN = {GROUND: -1.0, EXCITED: +1.0}


@dataclass(frozen=True)
class ReadoutConfig:
    """Drive, cavity and acquisition parameters for one readout setting.

    ``epsilon`` is the drive amplitude (rad/s), ``kappa`` the cavity
    linewidth (1/s), ``chi`` the dispersive half-shift (rad/s), ``tau_m``
    the integration time (s). ``transient`` switches the shot means from
    the steady-state product to the full ring-up integral.
    """

    epsilon: float
    kappa: float
    chi: float
    tau_m: float
    n_shots: int = 10_000
    seed: int = 0
    transient: bool = False

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise DomainError("epsilon must be nonnegative")
        if self.kappa <= 0.0:
            raise DomainError("kappa must be positive")
        if self.tau_m <= 0.0:
            raise DomainError("tau_m must be positive")
        if self.n_shots < 2:
            raise DomainError("n_shots must be at least 2")
        if not (0 <= int(self.seed) < 2**64):
            raise DomainError("seed must fit an unsigned 64-bit integer")


@dataclass
class ShotSet:
    """Single-shot IQ clouds for both prepared states.

    ``sigma`` is the per-quadrature Gaussian width associated with the
    arrays: the injected noise width for simulated sets, 1 after
    normalization.
    """

    i_ground: np.ndarray
    q_ground: np.ndarray
    i_excited: np.ndarray
    q_excited: np.ndarray
    sigma: float

    def __post_init__(self):
        lengths = {len(self.i_ground), len(self.q_ground),
                   len(self.i_excited), len(self.q_excited)}
        if len(lengths) != 1:
            raise DomainError("all four shot arrays must share one length")


def _state_sign(state: str) -> float:
    try:
        return _STATE_SIGN[state]
    except KeyError:
        raise DomainError(f"state must be '{GROUND}' or '{EXCITED}', got {state!r}") from None


def dispersive_angle(config: ReadoutConfig) -> float:
    return dispersive_phase(config.chi, config.kappa)


def snr_asymptotic(config: ReadoutConfig) -> float:
    """Closed-form long-time SNR of the configured readout."""
    phi = dispersive_angle(config)
    return (2.0 * config.epsilon / config.kappa) \
        * math.sqrt(2.0 * config.kappa * config.tau_m) \
        * abs(math.sin(2.0 * phi))


def calibrate_epsilon(target_snr: float, kappa: float, chi: float,
                      tau_m: float) -> float:
    """Drive amplitude that yields ``target_snr`` at ``tau_m`` (closed form)."""
    if target_snr < 0.0:
        raise DomainError("target_snr must be nonnegative")
    if tau_m <= 0.0:
        raise DomainError("tau_m must be positive")
    signal = abs(math.sin(2.0 * dispersive_phase(chi, kappa)))
    if signal == 0.0:
        raise DomainError("zero dispersive phase produces no signal to calibrate")
    return target_snr * kappa / (2.0 * math.sqrt(2.0 * kappa * tau_m) * signal)


def cavity_response(state: str, config: ReadoutConfig, t):
    """Pointer-state cavity amplitude alpha(t) from an empty cavity at t=0.

    Scalar or array ``t``; complex result. The two states decay at
    kappa/2 -+ i chi toward steady states of equal magnitude and opposite
    phase -+ arctan(2 chi / kappa).
    """
    sign = _state_sign(state)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise DomainError("t must be nonnegative")
    pole = 0.5 * config.kappa + 1j * sign * config.chi
    steady = config.epsilon / pole
    out = steady * (1.0 - np.exp(-pole * t_arr))
    return complex(out) if np.isscalar(t) else out


def integrated_signal(state: str, config: ReadoutConfig) -> complex:
    """Mean integrated heterodyne signal for one prepared state.

    With ``transient`` enabled this is the exact integral of the ring-up
    trajectory over the measurement window; otherwise the steady-state
    amplitude times the window, which is what the closed-form SNR assumes.
    """
    sign = _state_sign(state)
    pole = 0.5 * config.kappa + 1j * sign * config.chi
    steady = config.epsilon / pole
    if config.transient:
        return steady * (config.tau_m - (1.0 - cmath.exp(-pole * config.tau_m)) / pole)
    return steady * config.tau_m


def noise_sigma(config: ReadoutConfig) -> float:
    """Per-quadrature noise width sqrt(tau_m / (2 kappa)).

    Chosen so that the steady-state separation divided by this width
    reproduces the closed-form SNR at every tau_m.
    """
    return math.sqrt(config.tau_m / (2.0 * config.kappa))


def _shot_blocks(n_shots: int):
    n_blocks = (n_shots + SHOT_BLOCK - 1) // SHOT_BLOCK
    return [(b, min(SHOT_BLOCK, n_shots - b * SHOT_BLOCK)) for b in range(n_blocks)]


def _fill_blocks(config: ReadoutConfig, state_index: int, mean: complex,
                 sigma: float, out: np.ndarray, blocks) -> None:
    """Draw each (index, count) block of shots into its columns of ``out``."""
    for index, count in blocks:
        start = index * SHOT_BLOCK
        view = out[:, start:start + count]
        seq = np.random.SeedSequence([int(config.seed), state_index, index])
        np.random.Generator(np.random.PCG64(seq)).standard_normal(out=view)
        view *= sigma
        view += ((mean.real,), (mean.imag,))


def simulate_shots(config: ReadoutConfig, partitions: int = 1) -> ShotSet:
    """Draw Gaussian IQ shots around the two pointer-state signals.

    Shots are generated in fixed-size blocks, each from a sub-seed derived
    from (seed, state, block index), so the result is byte-identical for
    any ``partitions`` count; partitions only group blocks onto worker
    threads.
    """
    if partitions < 1:
        raise DomainError("partitions must be at least 1")
    sigma = noise_sigma(config)
    blocks = _shot_blocks(config.n_shots)
    size = math.ceil(len(blocks) / partitions)
    chunks = [blocks[k:k + size] for k in range(0, len(blocks), size)]
    per_state = {}
    for state_index, state in enumerate((GROUND, EXCITED)):
        mean = integrated_signal(state, config)
        # Rows are I and Q. Fortran order interleaves each shot's (I, Q)
        # pair in memory, the order in which the sub-seeded streams are
        # drawn, so a block's columns are one contiguous draw.
        out = np.empty((2, config.n_shots), order="F")
        if len(chunks) == 1:
            _fill_blocks(config, state_index, mean, sigma, out, blocks)
        else:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
                futures = [pool.submit(_fill_blocks, config, state_index,
                                       mean, sigma, out, chunk)
                           for chunk in chunks]
            for future in futures:
                future.result()
        per_state[state] = out
    return ShotSet(
        i_ground=per_state[GROUND][0],
        q_ground=per_state[GROUND][1],
        i_excited=per_state[EXCITED][0],
        q_excited=per_state[EXCITED][1],
        sigma=sigma,
    )


@dataclass
class HistogramFit:
    """SNR and Gaussian parameters recovered from IQ clouds."""

    snr: float
    mean_ground: tuple[float, float]
    mean_excited: tuple[float, float]
    sigma: float
    sigma_ground: float
    sigma_excited: float
    normalized: ShotSet


def histogram_fit(shots: ShotSet, min_shots: int = 100) -> HistogramFit:
    """Separation-over-width SNR from Gaussian fits along the centroid axis.

    Both clouds are projected onto the line joining their centroids, each
    projection is fitted as a 1D Gaussian, and the SNR is the centroid
    separation divided by the pooled width. The returned ``normalized``
    set holds the clouds divided by the pooled width.
    """
    n_ground = len(shots.i_ground)
    n_excited = len(shots.i_excited)
    if n_ground < min_shots or n_excited < min_shots:
        raise InsufficientDataError(
            f"need at least {min_shots} shots per state, "
            f"got {n_ground} and {n_excited}")
    centroid_g = np.array([shots.i_ground.mean(), shots.q_ground.mean()])
    centroid_e = np.array([shots.i_excited.mean(), shots.q_excited.mean()])
    axis = centroid_e - centroid_g
    norm = float(np.hypot(*axis))
    if norm == 0.0:
        axis = np.array([1.0, 0.0])  # arbitrary but fixed for identical clouds
    else:
        axis = axis / norm
    proj_g = shots.i_ground * axis[0] + shots.q_ground * axis[1]
    proj_e = shots.i_excited * axis[0] + shots.q_excited * axis[1]
    fit_g = fit_gaussian_1d(proj_g, min_samples=min_shots)
    fit_e = fit_gaussian_1d(proj_e, min_samples=min_shots)
    pooled = math.sqrt(0.5 * (fit_g.sigma**2 + fit_e.sigma**2))
    snr = abs(fit_e.mean - fit_g.mean) / pooled
    normalized = ShotSet(
        i_ground=shots.i_ground / pooled,
        q_ground=shots.q_ground / pooled,
        i_excited=shots.i_excited / pooled,
        q_excited=shots.q_excited / pooled,
        sigma=1.0,
    )
    return HistogramFit(
        snr=snr,
        mean_ground=(float(centroid_g[0]), float(centroid_g[1])),
        mean_excited=(float(centroid_e[0]), float(centroid_e[1])),
        sigma=pooled,
        sigma_ground=fit_g.sigma,
        sigma_excited=fit_e.sigma,
        normalized=normalized,
    )


def separation_fidelity(snr: float) -> float:
    """Two-Gaussian separation fidelity 1 - erfc(snr / 2)."""
    if snr < 0.0:
        raise DomainError("snr must be nonnegative")
    return 1.0 - erfc(0.5 * snr)


@dataclass(frozen=True)
class SweepPoint:
    """One row of an integration-time sweep."""

    tau_m: float
    snr_closed_form: float
    snr_monte_carlo: float
    fidelity: float


def derive_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit sub-seed for sweep point ``index``."""
    seq = np.random.SeedSequence([int(seed), int(index)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def snr_sweep(config: ReadoutConfig, tau_values, partitions: int = 1) -> list[SweepPoint]:
    """Closed-form and Monte-Carlo SNR over a list of integration times.

    Each point simulates afresh under a sub-seed derived from
    (config.seed, point index); the fidelity column applies the
    separation-fidelity map to the closed-form SNR.
    """
    tau_values = list(tau_values)
    if not tau_values:
        raise DomainError("tau_values must not be empty")
    points = []
    for index, tau in enumerate(tau_values):
        if tau <= 0.0:
            raise DomainError("every tau must be positive")
        sub = replace(config, tau_m=float(tau), seed=derive_seed(config.seed, index))
        closed = snr_asymptotic(sub)
        monte = histogram_fit(simulate_shots(sub, partitions=partitions)).snr
        points.append(SweepPoint(
            tau_m=float(tau),
            snr_closed_form=closed,
            snr_monte_carlo=monte,
            fidelity=separation_fidelity(closed),
        ))
    return points
