"""Dispersive single-shot readout: closed-form SNR, shot simulation, histograms.

The closed-form signal-to-noise ratio is

    snr(tau) = (2 eps / kappa) * sqrt(2 kappa tau) * |sin(2 phi)|,

valid in the long-measurement limit. The Monte-Carlo path integrates the
cavity pointer states (or jumps straight to their steady-state values),
adds white Gaussian noise per quadrature, and recovers the SNR as the
centroid separation over the pooled width along the centroid axis, from
each cloud's centroid and covariance (``_snr_from_moments``, on plain
floats), as measured IQ data is processed. The shot paths draw their
sub-seeded numpy blocks through one loop, ``_normal_blocks``:
``simulate_shots`` draws the clouds as arrays for ``histogram_fit``, and
``stream_shots`` fits the SNR and the pooled width from each block's
moments, then redraws the same blocks, divided by the width, for
``shots.csv``; its memory does not grow with ``n_shots``. Both draw
every block on the calling thread; only ``simulate_shots(config,
partitions=k)`` spreads the blocks over k pool threads.
``snr_monte_carlo`` (and so ``snr_sweep``) draws no shots: it samples each
state's centroid and covariance from their exact laws with the stdlib's
``random.random()``, so its SNR has the distribution of
``histogram_fit``'s on drawn shots. Only the shot path imports numpy, when
it runs, so of the commands only simulate-readout loads it.

The records are named tuples. ``ReadoutConfig`` checks its fields in
``__new__`` and holds ``n_shots`` and ``seed`` as Python ints;
``snr_sweep`` builds each point's through the constructor, since
``_replace`` skips those checks.
"""

from __future__ import annotations

import cmath
import math
import numbers
import random
from collections import namedtuple
from collections.abc import Iterator

from .errors import (DegenerateDataError, DomainError, InsufficientDataError,
                     require_finite, require_nonnegative, require_positive)
from .fitting import erfc
from .floats import normal
from .transmon import dispersive_phase

SHOT_BLOCK = 4096
# Fewest shots per state from which an SNR is estimated.
MIN_SHOTS = 100
GROUND = "g"
EXCITED = "e"
STATES = (GROUND, EXCITED)
_STATE_SIGN = {GROUND: -1.0, EXCITED: +1.0}


class ReadoutConfig(namedtuple("ReadoutConfig",
                               "epsilon kappa chi tau_m n_shots seed transient")):
    """Drive, cavity and acquisition parameters for one readout setting.

    ``epsilon`` is the drive amplitude (rad/s), ``kappa`` the cavity
    linewidth (1/s), ``chi`` the dispersive half-shift (rad/s), ``tau_m``
    the integration time (s). ``transient`` switches the shot means from
    the steady-state product to the full ring-up integral.
    """

    __slots__ = ()

    def __new__(cls, epsilon, kappa, chi, tau_m, n_shots=10_000, seed=0,
                transient=False):
        # epsilon last: the CLI derives it from the other three
        require_positive(kappa=kappa, tau_m=tau_m)
        require_finite(chi=chi)
        require_nonnegative(epsilon=epsilon)
        for name, value in (("n_shots", n_shots), ("seed", seed)):
            # numbers.Integral covers numpy's integer types; a bool is a flag
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        # Python ints: a narrow numpy type overflows in the block arithmetic
        n_shots, seed = int(n_shots), int(seed)
        if n_shots < 2:
            raise DomainError("n_shots must be at least 2")
        if not (0 <= seed < 2**64):
            raise DomainError("seed must fit an unsigned 64-bit integer")
        return super().__new__(cls, epsilon, kappa, chi, tau_m, n_shots, seed,
                               transient)


class ShotSet(namedtuple("ShotSet", "i_ground q_ground i_excited q_excited")):
    """Single-shot IQ clouds for both prepared states, four numpy arrays."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(set(map(len, self))) != 1:
            raise DomainError("all four shot arrays must share one length")
        return self


def _state_sign(state: str) -> float:
    try:
        return _STATE_SIGN[state]
    except KeyError:
        raise DomainError(f"state must be '{GROUND}' or '{EXCITED}', got {state!r}") from None


def snr_asymptotic(config: ReadoutConfig) -> float:
    """Closed-form long-time SNR of the configured readout; one that
    overflows is a DomainError naming snr."""
    phi = dispersive_phase(config.chi, config.kappa)
    snr = (2.0 * config.epsilon / config.kappa) \
        * math.sqrt(2.0 * config.kappa * config.tau_m) \
        * abs(math.sin(2.0 * phi))
    require_finite(snr=snr)
    return snr


def calibrate_epsilon(target_snr: float, kappa: float, chi: float,
                      tau_m: float) -> float:
    """Drive amplitude that yields ``target_snr`` at ``tau_m`` (closed form)."""
    require_nonnegative(target_snr=target_snr)
    require_positive(tau_m=tau_m)
    signal = abs(math.sin(2.0 * dispersive_phase(chi, kappa)))
    if signal == 0.0:
        raise DomainError("zero dispersive phase produces no signal to calibrate")
    window = 2.0 * math.sqrt(2.0 * kappa * tau_m) * signal
    return target_snr * kappa / window if window else math.inf   # kappa tau_m underflows


def cavity_response(state: str, config: ReadoutConfig, t):
    """Pointer-state cavity amplitude alpha(t) from an empty cavity at t=0.

    Scalar or array ``t``; complex result. The two states decay at
    kappa/2 -+ i chi toward steady states of equal magnitude and opposite
    phase -+ arctan(2 chi / kappa).
    """
    import numpy as np

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


def _draw_block(config: ReadoutConfig, state_index: int, index: int, out) -> None:
    """Fill ``out`` with the standard normals of one (state, block) sub-stream."""
    import numpy as np

    seq = np.random.SeedSequence([int(config.seed), state_index, index])
    np.random.Generator(np.random.PCG64(seq)).standard_normal(out=out)


def _normal_blocks(config: ReadoutConfig, jobs):
    """Yield ``(state index, block index, z)``: each job's standard normals.

    ``z`` has rows I and Q and lives in one reused (2, ``SHOT_BLOCK``)
    buffer, valid until the next block is taken. Fortran order interleaves
    each shot's (I, Q) pair, the order in which the stream is drawn.
    """
    import numpy as np

    buffer = np.empty((2, SHOT_BLOCK), order="F")
    for state_index, index, count in jobs:
        z = buffer[:, :count]
        _draw_block(config, state_index, index, z)
        yield state_index, index, z


def _shot_map(config: ReadoutConfig) -> tuple[float, list[tuple[float, float]]]:
    """``(sigma, signals)``: a state's shots are ``z * sigma + signals[state]``,
    its (I, Q) pair, in this order on every path, so they are the same bits."""
    means = [integrated_signal(state, config) for state in STATES]
    return noise_sigma(config), [(m.real, m.imag) for m in means]


def simulate_shots(config: ReadoutConfig, partitions: int = 1) -> ShotSet:
    """Draw Gaussian IQ shots around the two pointer-state signals.

    Shots are generated in fixed-size blocks, each from a sub-seed derived
    from (seed, state, block index), so the result is byte-identical for
    any ``partitions`` count. Every block is drawn on the calling thread
    unless ``partitions`` k > 1 splits the blocks into k contiguous chunks,
    each drawn on its own pool thread.
    """
    import numpy as np

    if partitions < 1:
        raise DomainError("partitions must be at least 1")
    sigma, signals = _shot_map(config)
    columns = np.array(signals)[..., None]    # each state's (I, Q) column
    # Fortran order, as the draw buffer: each block's copy is one contiguous run
    outs = [np.empty((2, config.n_shots), order="F") for _ in STATES]

    def fill(chunk):
        for state_index, index, z in _normal_blocks(config, chunk):
            start = index * SHOT_BLOCK
            view = outs[state_index][:, start:start + z.shape[1]]
            np.multiply(z, sigma, out=view)
            view += columns[state_index]

    jobs = _shot_jobs(config.n_shots)
    if partitions == 1:
        fill(jobs)
    else:
        from concurrent.futures import ThreadPoolExecutor

        size = math.ceil(len(jobs) / partitions)
        chunks = [jobs[k:k + size] for k in range(0, len(jobs), size)]
        with ThreadPoolExecutor(len(chunks)) as pool:
            list(pool.map(fill, chunks))    # re-raises a chunk's exception
    return ShotSet(i_ground=outs[0][0], q_ground=outs[0][1],
                   i_excited=outs[1][0], q_excited=outs[1][1])


def _require_shots(*counts: int) -> None:
    if min(counts) < MIN_SHOTS:
        raise InsufficientDataError(
            f"need at least {MIN_SHOTS} shots per state, "
            f"got {' and '.join(map(str, counts))}")


def _snr_from_moments(centroids, covariances) -> tuple[float, float]:
    """SNR and pooled width of two clouds.

    Takes each state's (I, Q) centroid and 2x2 covariance as nested lists
    of floats, ground first. The pooled width is the root mean square of
    the two widths along the centroid axis, and the SNR the centroid
    distance over it.
    """
    (gi, gq), (ei, eq) = centroids
    require_finite(centroids=[gi, gq, ei, eq],
                   covariances=[x for cov in covariances for row in cov for x in row])
    di, dq = ei - gi, eq - gq
    # libm's hypot, as np.hypot; math.hypot rounds about 0.5 % of pairs
    # differently, which would move the bits of simulate-readout's width
    norm = abs(complex(di, dq))
    # identical centroids: any fixed axis serves, and the SNR is 0
    a, b = (di / norm, dq / norm) if norm else (1.0, 0.0)
    # each term and the sum in the order of np.einsum("i,sij,j->s")
    variances = [a * c11 * a + a * c12 * b + b * c21 * a + b * c22 * b
                 for (c11, c12), (c21, c22) in covariances]
    if any(variance <= 0.0 for variance in variances):
        raise DegenerateDataError("shots have zero variance along the centroid axis")
    width = math.sqrt(0.5 * (variances[0] + variances[1]))
    require_finite(snr=norm / width)    # an inf separation gives nan
    return norm / width, width


def _moment_fit(config: ReadoutConfig) -> tuple[float, float]:
    """``histogram_fit(simulate_shots(config))``'s SNR and pooled width to
    rounding, from block moments summed in a fixed order."""
    import numpy as np

    n = config.n_shots
    _require_shots(n)
    jobs = _shot_jobs(n)
    sums = np.empty((2, len(jobs) // 2, 2))
    seconds = np.empty((2, len(jobs) // 2, 2, 2))
    ones = np.ones(SHOT_BLOCK)
    for state_index, index, z in _normal_blocks(config, jobs):
        # a product with ones: z.sum(axis=1) walks this layout shot by shot
        sums[state_index, index] = z @ ones[:z.shape[1]]
        seconds[state_index, index] = z @ z.T
    mean_z = sums.sum(axis=1) / n
    # raw sums lose no digits here: z has mean near 0 and unit variance
    cov_z = (seconds.sum(axis=1)
             - n * mean_z[:, :, None] * mean_z[:, None, :]) / (n - 1)
    sigma, signals = _shot_map(config)
    with np.errstate(over="ignore"):    # _snr_from_moments names an overflow
        return _snr_from_moments((sigma * mean_z + np.array(signals)).tolist(),
                                 (sigma**2 * cov_z).tolist())


def _chi2(rng: random.Random, df: int) -> float:
    """A chi-square variate with ``df`` >= 2 degrees of freedom: twice a
    Gamma(df / 2) variate by Marsaglia & Tsang, "A simple method for
    generating gamma variables", ACM TOMS 26 (2000). The shape df / 2 is
    at least 1, so no shape boost is needed."""
    d = 0.5 * df - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = normal(rng)
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = 1.0 - rng.random()
        if (u < 1.0 - 0.0331 * x**4
                or math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v))):
            return 2.0 * d * v


def snr_monte_carlo(config: ReadoutConfig) -> float:
    """An SNR with the distribution of ``histogram_fit(simulate_shots(config)).snr``.

    No shot is drawn: over n Gaussian shots a state's mean z_mean ~ N(0, I/n)
    and scatter S ~ Wishart_2(n - 1, I) are independent, and both come from
    one ``random.Random(config.seed)``, ground state first, S = L L^T by
    Bartlett's L11^2 ~ chi2(n - 1), L22^2 ~ chi2(n - 2), L21 ~ N(0, 1). The
    centroid sigma*z_mean + signal and covariance sigma^2*S/(n - 1) feed the
    SNR core of ``histogram_fit``, and it raises what ``histogram_fit``
    raises.
    """
    n = config.n_shots
    _require_shots(n)
    rng = random.Random(config.seed)
    sigma, signals = _shot_map(config)
    root_n = math.sqrt(n)
    scale = sigma**2 / (n - 1)
    centroids, covariances = [], []
    for signal in signals:
        centroids.append([sigma * (normal(rng) / root_n) + part for part in signal])
        l11_sq, l22_sq = _chi2(rng, n - 1), _chi2(rng, n - 2)
        l21 = normal(rng)
        s12 = scale * (math.sqrt(l11_sq) * l21)
        covariances.append([[scale * l11_sq, s12],
                            [s12, scale * (l21 * l21 + l22_sq)]])
    return _snr_from_moments(centroids, covariances)[0]


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
    import numpy as np

    snr, width = _moment_fit(config)
    sigma, signals = _shot_map(config)
    columns = np.array(signals)[..., None]    # each state's (I, Q) column

    def blocks():
        for state_index, _, z in _normal_blocks(config, _shot_jobs(config.n_shots)):
            z *= sigma
            z += columns[state_index]
            z /= width
            yield STATES[state_index], z

    return snr, blocks()


class HistogramFit(namedtuple("HistogramFit", "snr sigma")):
    """SNR of two IQ clouds and the pooled width along their centroid axis."""

    __slots__ = ()


def histogram_fit(shots: ShotSet) -> HistogramFit:
    """Separation-over-width SNR of the clouds along their centroid axis.

    Each state's centroid and covariance are its centred sample moments
    (``mean``, ``np.cov``), which keep their digits for measured clouds far
    from the origin; ``_moment_fit`` feeds the same SNR core from its block
    sums, and ``snr_monte_carlo`` from sampled moments. The SNR is the
    centroid separation over the pooled width.
    """
    import numpy as np

    clouds = ((shots.i_ground, shots.q_ground), (shots.i_excited, shots.q_excited))
    _require_shots(*(len(i) for i, _ in clouds))
    centroids = np.array([[i.mean(), q.mean()] for i, q in clouds]).tolist()
    covariances = np.array([np.cov(i, q) for i, q in clouds]).tolist()
    return HistogramFit(*_snr_from_moments(centroids, covariances))


def separation_fidelity(snr: float) -> float:
    """Two-Gaussian separation fidelity 1 - erfc(snr / 2)."""
    require_nonnegative(snr=snr)
    return 1.0 - erfc(0.5 * snr)


class SweepPoint(namedtuple("SweepPoint",
                            "tau_m snr_closed_form snr_monte_carlo")):
    """One row of an integration-time sweep."""

    __slots__ = ()

    @property
    def fidelity(self) -> float:
        return separation_fidelity(self.snr_closed_form)


def _derive_seed(seed: int, index: int) -> int:
    """Deterministic 64-bit sub-seed for sweep point ``index``: the top 32
    bits of two ``random()`` draws from a generator seeded with the string
    ``"<seed>,<index>"``, which ``random`` hashes with its own sha512.
    ``hashlib`` would load OpenSSL, about 7 ms and 2.3 MB per process."""
    rng = random.Random(f"{int(seed)},{int(index)}")
    high, low = (int(rng.random() * 2**32) for _ in range(2))
    return high << 32 | low


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
        # the constructor, not _replace, so the record is checked
        sub = ReadoutConfig(**{**config._asdict(), "tau_m": float(tau),
                               "seed": _derive_seed(config.seed, index)})
        closed = snr_asymptotic(sub)
        monte = snr_monte_carlo(sub)
        points.append(SweepPoint(tau_m=float(tau), snr_closed_form=closed,
                                 snr_monte_carlo=monte))
    return points
