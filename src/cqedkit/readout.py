"""Dispersive single-shot readout: closed-form SNR, shot simulation, histograms.

The closed-form signal-to-noise ratio is

    snr(tau) = (2 eps / kappa) * sqrt(2 kappa tau) * |sin(2 phi)|,

valid in the long-measurement limit. The Monte-Carlo path integrates the
cavity pointer states (or jumps straight to their steady-state values),
adds white Gaussian noise per quadrature, and recovers the SNR as the
centroid separation over the pooled width along the centroid axis, from
each cloud's centroid and covariance (``_snr_from_moments``), as measured
IQ data is processed. The shot paths draw their sub-seeded blocks through
one loop, ``_normal_blocks``: ``simulate_shots`` draws the clouds as
arrays for ``histogram_fit``, and ``stream_shots`` fits the SNR and the
pooled width from each block's moments, then redraws the same blocks,
divided by the width, for ``shots.csv``; its memory does not grow with
``n_shots``. ``snr_monte_carlo`` (and so ``snr_sweep``) draws no shots:
it samples each state's centroid and covariance from their exact laws,
so its SNR has the distribution of ``histogram_fit``'s on drawn shots.
"""

from __future__ import annotations

import cmath
import math
import numbers
import os
import threading
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DegenerateDataError, DomainError, InsufficientDataError,
                     require_finite, require_nonnegative, require_positive)
from .fitting import erfc
from .transmon import dispersive_phase

SHOT_BLOCK = 4096
# Blocks that make an extra drawing thread worth its start-up and memory
# (about 2.6e5 shots, roughly 10 ms of drawing).
BLOCKS_PER_WORKER = 64
# Fewest shots per state from which an SNR is estimated.
MIN_SHOTS = 100
GROUND = "g"
EXCITED = "e"
STATES = (GROUND, EXCITED)
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
        require_positive(kappa=self.kappa, tau_m=self.tau_m)
        require_finite(chi=self.chi)
        require_nonnegative(epsilon=self.epsilon)
        for name in ("n_shots", "seed"):
            value = getattr(self, name)
            # numbers.Integral covers numpy's integer types; a bool is a flag
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            # a Python int: a narrow numpy type overflows in the block arithmetic
            object.__setattr__(self, name, int(value))
        if self.n_shots < 2:
            raise DomainError("n_shots must be at least 2")
        if not (0 <= self.seed < 2**64):
            raise DomainError("seed must fit an unsigned 64-bit integer")


@dataclass
class ShotSet:
    """Single-shot IQ clouds for both prepared states."""

    i_ground: np.ndarray
    q_ground: np.ndarray
    i_excited: np.ndarray
    q_excited: np.ndarray

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


def snr_asymptotic(config: ReadoutConfig) -> float:
    """Closed-form long-time SNR of the configured readout."""
    phi = dispersive_phase(config.chi, config.kappa)
    return (2.0 * config.epsilon / config.kappa) \
        * math.sqrt(2.0 * config.kappa * config.tau_m) \
        * abs(math.sin(2.0 * phi))


def calibrate_epsilon(target_snr: float, kappa: float, chi: float,
                      tau_m: float) -> float:
    """Drive amplitude that yields ``target_snr`` at ``tau_m`` (closed form)."""
    require_nonnegative(target_snr=target_snr)
    require_positive(tau_m=tau_m)
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
    require_nonnegative(t=t_arr)
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


def _draw_block(config: ReadoutConfig, state_index: int, index: int, out) -> None:
    """Fill ``out`` with the standard normals of one (state, block) sub-stream."""
    seq = np.random.SeedSequence([int(config.seed), state_index, index])
    np.random.Generator(np.random.PCG64(seq)).standard_normal(out=out)


def _run_chunks(jobs, partitions: int | None, work) -> None:
    """Call ``work(chunk)`` on contiguous chunks of ``jobs``, one per thread.

    The first chunk runs on the calling thread. By default one thread per
    ``BLOCKS_PER_WORKER`` jobs is used, up to the number of available
    cores. The first worker exception is re-raised after every join.
    """
    if partitions is None:
        partitions = min(_available_cores(),
                         max(1, len(jobs) // BLOCKS_PER_WORKER))
    elif partitions < 1:
        raise DomainError("partitions must be at least 1")
    size = math.ceil(len(jobs) / partitions)
    chunks = [jobs[k:k + size] for k in range(0, len(jobs), size)]
    errors = []

    def run(chunk):
        try:
            work(chunk)
        except Exception as exc:  # re-raised below, after every join
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(chunk,))
               for chunk in chunks[1:]]
    for thread in threads:
        thread.start()
    run(chunks[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _normal_blocks(config: ReadoutConfig, jobs):
    """Yield ``(state index, block index, z)``: each job's standard normals.

    ``z`` has rows I and Q and lives in one reused (2, ``SHOT_BLOCK``)
    buffer, valid until the next block is taken. Fortran order interleaves
    each shot's (I, Q) pair, the order in which the stream is drawn.
    """
    buffer = np.empty((2, SHOT_BLOCK), order="F")
    for state_index, index, count in jobs:
        z = buffer[:, :count]
        _draw_block(config, state_index, index, z)
        yield state_index, index, z


def _shot_map(config: ReadoutConfig) -> tuple[float, np.ndarray]:
    """``(sigma, signals)``: a state's shots are ``z * sigma + signals[state]``,
    an (I, Q) column, in this order on every path, so they are the same bits."""
    means = [integrated_signal(state, config) for state in STATES]
    return noise_sigma(config), np.array([[[m.real], [m.imag]] for m in means])


def simulate_shots(config: ReadoutConfig, partitions: int | None = None) -> ShotSet:
    """Draw Gaussian IQ shots around the two pointer-state signals.

    Shots are generated in fixed-size blocks, each from a sub-seed derived
    from (seed, state, block index), so the result is byte-identical for
    any ``partitions`` count; partitions only group blocks onto threads
    (see ``_run_chunks`` for the default).
    """
    sigma, signals = _shot_map(config)
    # Fortran order, as the draw buffer: each block's copy is one contiguous run
    outs = [np.empty((2, config.n_shots), order="F") for _ in STATES]

    def fill(chunk):
        for state_index, index, z in _normal_blocks(config, chunk):
            start = index * SHOT_BLOCK
            view = outs[state_index][:, start:start + z.shape[1]]
            np.multiply(z, sigma, out=view)
            view += signals[state_index]

    _run_chunks(_shot_jobs(config.n_shots), partitions, fill)
    return ShotSet(i_ground=outs[0][0], q_ground=outs[0][1],
                   i_excited=outs[1][0], q_excited=outs[1][1])


def _require_shots(*counts: int) -> None:
    if min(counts) < MIN_SHOTS:
        raise InsufficientDataError(
            f"need at least {MIN_SHOTS} shots per state, "
            f"got {' and '.join(map(str, counts))}")


def _snr_from_moments(centroids, covariances) -> tuple[float, float]:
    """SNR and pooled width of two clouds.

    Takes each state's (I, Q) centroid and 2x2 covariance, ground first.
    The pooled width is the root mean square of the two widths along the
    centroid axis, and the SNR the centroid distance over it.
    """
    require_finite(centroids=centroids, covariances=covariances)
    axis = centroids[1] - centroids[0]
    norm = float(np.hypot(*axis))
    # identical centroids: any fixed axis serves, and the SNR is 0
    axis = axis / norm if norm else np.array([1.0, 0.0])
    variances = np.einsum("i,sij,j->s", axis, covariances, axis)
    if np.any(variances <= 0.0):
        raise DegenerateDataError("shots have zero variance along the centroid axis")
    width = math.sqrt(0.5 * float(variances.sum()))
    return norm / width, width


def _moment_fit(config: ReadoutConfig,
                partitions: int | None = None) -> tuple[float, float]:
    """``histogram_fit(simulate_shots(config))``'s SNR and pooled width to
    rounding, from block moments summed in a fixed order for any thread count."""
    n = config.n_shots
    _require_shots(n)
    jobs = _shot_jobs(n)
    sums = np.empty((2, len(jobs) // 2, 2))
    seconds = np.empty((2, len(jobs) // 2, 2, 2))

    def reduce(chunk):
        ones = np.ones(SHOT_BLOCK)
        for state_index, index, z in _normal_blocks(config, chunk):
            # a product with ones: z.sum(axis=1) walks this layout shot by shot
            sums[state_index, index] = z @ ones[:z.shape[1]]
            seconds[state_index, index] = z @ z.T

    _run_chunks(jobs, partitions, reduce)
    mean_z = sums.sum(axis=1) / n
    # raw sums lose no digits here: z has mean near 0 and unit variance
    cov_z = (seconds.sum(axis=1)
             - n * mean_z[:, :, None] * mean_z[:, None, :]) / (n - 1)
    sigma, signals = _shot_map(config)
    return _snr_from_moments(sigma * mean_z + signals[..., 0], sigma**2 * cov_z)


def snr_monte_carlo(config: ReadoutConfig) -> float:
    """An SNR with the distribution of ``histogram_fit(simulate_shots(config)).snr``.

    No shot is drawn: over n Gaussian shots a state's mean z_mean ~ N(0, I/n)
    and scatter S ~ Wishart_2(n - 1, I) are independent, and both come from
    one generator seeded by ``config.seed``, S = L L^T by Bartlett's
    L11^2 ~ chi2(n - 1), L22^2 ~ chi2(n - 2), L21 ~ N(0, 1). The centroid
    sigma*z_mean + signal and covariance sigma^2*S/(n - 1) feed the SNR core
    of ``histogram_fit``, and it raises what ``histogram_fit`` raises.
    """
    n = config.n_shots
    _require_shots(n)
    rng = np.random.default_rng(config.seed)
    mean_z = rng.standard_normal((2, 2)) / math.sqrt(n)
    factor = np.zeros((2, 2, 2))    # each state's L
    factor[:, [0, 1], [0, 1]] = np.sqrt(rng.chisquare([n - 1, n - 2], size=(2, 2)))
    factor[:, 1, 0] = rng.standard_normal(2)
    sigma, signals = _shot_map(config)
    return _snr_from_moments(sigma * mean_z + signals[..., 0],
                             sigma**2 * (factor @ factor.transpose(0, 2, 1)) / (n - 1))[0]


def stream_shots(config: ReadoutConfig
                 ) -> tuple[float, Iterator[tuple[str, np.ndarray]]]:
    """SNR of the simulated shots and the shots over their pooled width.

    Returns ``(snr, blocks)``. ``snr`` is ``_moment_fit``'s, the SNR of
    these shots, which runs and raises here. ``blocks`` yields the shots of
    ``simulate_shots(config)`` divided by the fitted pooled width as
    ``(state, block)`` pairs, ground first, the form that
    ``dataio.write_shots_csv`` takes. They are redrawn from the same
    sub-seeded streams as they are taken, into one reused (2,
    ``SHOT_BLOCK``) buffer, so a block is valid until the next one and no
    cloud is ever held.
    """
    snr, width = _moment_fit(config)
    sigma, signals = _shot_map(config)

    def blocks():
        for state_index, _, z in _normal_blocks(config, _shot_jobs(config.n_shots)):
            z *= sigma
            z += signals[state_index]
            z /= width
            yield STATES[state_index], z

    return snr, blocks()


@dataclass
class HistogramFit:
    """SNR of two IQ clouds and the pooled width along their centroid axis."""

    snr: float
    sigma: float


def histogram_fit(shots: ShotSet) -> HistogramFit:
    """Separation-over-width SNR of the clouds along their centroid axis.

    Each state's centroid and covariance are its centred sample moments
    (``mean``, ``np.cov``), which keep their digits for measured clouds far
    from the origin; ``snr_monte_carlo`` feeds the same SNR core from its
    block sums. The SNR is the centroid separation over the pooled width.
    """
    clouds = ((shots.i_ground, shots.q_ground), (shots.i_excited, shots.q_excited))
    _require_shots(*(len(i) for i, _ in clouds))
    centroids = np.array([[i.mean(), q.mean()] for i, q in clouds])
    covariances = np.array([np.cov(i, q) for i, q in clouds])
    return HistogramFit(*_snr_from_moments(centroids, covariances))


def separation_fidelity(snr: float) -> float:
    """Two-Gaussian separation fidelity 1 - erfc(snr / 2)."""
    require_nonnegative(snr=snr)
    return 1.0 - erfc(0.5 * snr)


@dataclass(frozen=True)
class SweepPoint:
    """One row of an integration-time sweep."""

    tau_m: float
    snr_closed_form: float
    snr_monte_carlo: float

    @property
    def fidelity(self) -> float:
        return separation_fidelity(self.snr_closed_form)


def _derive_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit sub-seed for sweep point ``index``."""
    seq = np.random.SeedSequence([int(seed), int(index)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def snr_sweep(config: ReadoutConfig, tau_values) -> list[SweepPoint]:
    """Closed-form and Monte-Carlo SNR over a list of integration times.

    Each point samples afresh under a sub-seed derived from
    (config.seed, point index) through ``snr_monte_carlo``, so no shot is
    drawn; the fidelity column applies the separation-fidelity map to the
    closed-form SNR.
    """
    tau_values = list(tau_values)
    if not tau_values:
        raise DomainError("tau_values must not be empty")
    require_positive(tau_values=tau_values)
    points = []
    for index, tau in enumerate(tau_values):
        sub = replace(config, tau_m=float(tau), seed=_derive_seed(config.seed, index))
        closed = snr_asymptotic(sub)
        monte = snr_monte_carlo(sub)
        points.append(SweepPoint(tau_m=float(tau), snr_closed_form=closed,
                                 snr_monte_carlo=monte))
    return points
