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
import os
import threading
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DomainError, InsufficientDataError, check_finite
from .fitting import erfc, fit_gaussian_1d
from .transmon import dispersive_phase

SHOT_BLOCK = 4096
# Blocks that make an extra drawing thread worth its start-up and memory
# (about 2.6e5 shots, roughly 10 ms of drawing).
BLOCKS_PER_WORKER = 64
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
        # epsilon last: the CLI derives it from the other three
        check_finite(self, "kappa", "chi", "tau_m", "epsilon")
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


def _shot_jobs(n_shots: int):
    """(state index, block index, shot count) for every block of both states."""
    n_blocks = (n_shots + SHOT_BLOCK - 1) // SHOT_BLOCK
    return [(state_index, b, min(SHOT_BLOCK, n_shots - b * SHOT_BLOCK))
            for state_index in (0, 1) for b in range(n_blocks)]


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _fill_blocks(config: ReadoutConfig, means, sigma: float, outs, jobs) -> None:
    """Draw each (state, index, count) job into its columns of ``outs[state]``."""
    for state_index, index, count in jobs:
        start = index * SHOT_BLOCK
        view = outs[state_index][:, start:start + count]
        seq = np.random.SeedSequence([int(config.seed), state_index, index])
        np.random.Generator(np.random.PCG64(seq)).standard_normal(out=view)
        view *= sigma
        mean = means[state_index]
        view += ((mean.real,), (mean.imag,))


def simulate_shots(config: ReadoutConfig, partitions: int | None = None) -> ShotSet:
    """Draw Gaussian IQ shots around the two pointer-state signals.

    Shots are generated in fixed-size blocks, each from a sub-seed derived
    from (seed, state, block index), so the result is byte-identical for
    any ``partitions`` count; partitions only group blocks onto threads.
    By default one thread per ``BLOCKS_PER_WORKER`` blocks is used, up to
    the number of available cores.
    """
    if partitions is not None and partitions < 1:
        raise DomainError("partitions must be at least 1")
    sigma = noise_sigma(config)
    means = [integrated_signal(state, config) for state in (GROUND, EXCITED)]
    # Rows are I and Q. Fortran order interleaves each shot's (I, Q) pair in
    # memory, the order in which the sub-seeded streams are drawn, so a
    # block's columns are one contiguous draw.
    outs = [np.empty((2, config.n_shots), order="F") for _ in means]
    jobs = _shot_jobs(config.n_shots)
    if partitions is None:
        partitions = min(_available_cores(),
                         max(1, len(jobs) // BLOCKS_PER_WORKER))
    size = math.ceil(len(jobs) / partitions)
    chunks = [jobs[k:k + size] for k in range(0, len(jobs), size)]
    errors = []

    def fill(chunk):
        try:
            _fill_blocks(config, means, sigma, outs, chunk)
        except Exception as exc:  # re-raised below, after every join
            errors.append(exc)

    threads = [threading.Thread(target=fill, args=(chunk,))
               for chunk in chunks[1:]]
    for thread in threads:
        thread.start()
    fill(chunks[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return ShotSet(i_ground=outs[0][0], q_ground=outs[0][1],
                   i_excited=outs[1][0], q_excited=outs[1][1], sigma=sigma)


@dataclass
class HistogramFit:
    """SNR and Gaussian parameters recovered from IQ clouds."""

    snr: float
    mean_ground: tuple[float, float]
    mean_excited: tuple[float, float]
    sigma: float
    sigma_ground: float
    sigma_excited: float
    shots: ShotSet

    @cached_property
    def normalized(self) -> ShotSet:
        """The fitted clouds divided by the pooled width, built on first use."""
        return ShotSet(
            i_ground=self.shots.i_ground / self.sigma,
            q_ground=self.shots.q_ground / self.sigma,
            i_excited=self.shots.i_excited / self.sigma,
            q_excited=self.shots.q_excited / self.sigma,
            sigma=1.0,
        )


def histogram_fit(shots: ShotSet, min_shots: int = 100) -> HistogramFit:
    """Separation-over-width SNR from Gaussian fits along the centroid axis.

    Both clouds are projected onto the line joining their centroids, each
    projection is fitted as a 1D Gaussian, and the SNR is the centroid
    separation divided by the pooled width. The returned fit keeps
    ``shots``; its ``normalized`` set, the clouds divided by the pooled
    width, is computed on first access.
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
    return HistogramFit(
        snr=snr,
        mean_ground=(float(centroid_g[0]), float(centroid_g[1])),
        mean_excited=(float(centroid_e[0]), float(centroid_e[1])),
        sigma=pooled,
        sigma_ground=fit_g.sigma,
        sigma_excited=fit_e.sigma,
        shots=shots,
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


def snr_sweep(config: ReadoutConfig, tau_values,
              partitions: int | None = None) -> list[SweepPoint]:
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
