"""Lumped-element spiral resonator design and film-parameter extraction.

Covers the forward path (geometry -> squares -> inductance -> resonance
band, coupling rate from Q or from feed offset) and the inverse path
(sheet inductance from test-structure frequencies, kappa from ring-down
traces, feed-offset model from measured coupling rates).

The design relations are plain float arithmetic. Only the two fits use
numpy and ``fitting``, and they import them when called, so the design
commands start without numpy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .errors import (
    DegenerateDataError,
    DomainError,
    FitFailureError,
    InsufficientDataError,
    require_finite,
    require_nonnegative,
    require_positive,
)

if TYPE_CHECKING:
    from . import fitting

PH_PER_SQUARE = 1e-12  # one pH/square in H/square
SPIRAL_LENGTH_TOLERANCE = 0.05
RINGDOWN_MIN_SAMPLES = 8
RINGDOWN_MIN_DECAY_SPANS = 2.0
# searched decay times per span, reaching below RINGDOWN_MIN_DECAY_SPANS
RINGDOWN_RATE_BRACKET = (1e-3, 1e3)

QUARTER_WAVE = "quarter-wave"
HALF_WAVE = "half-wave"


@dataclass(frozen=True)
class FilmProperties:
    """Sheet-inductance band of the superconducting film, in pH/square.

    ``lk_low``/``lk_high`` bracket the wafer-scale spread around the
    nominal value; ``geometric_l_per_square`` adds any magnetic sheet
    contribution on top of the kinetic one.
    """

    lk_nominal: float
    lk_low: float
    lk_high: float
    geometric_l_per_square: float = 0.0

    def __post_init__(self):
        require_positive(lk_nominal=self.lk_nominal, lk_low=self.lk_low,
                         lk_high=self.lk_high)
        require_nonnegative(geometric_l_per_square=self.geometric_l_per_square)
        if not (self.lk_low <= self.lk_nominal <= self.lk_high):
            raise DomainError(
                "film band must satisfy lk_low <= lk_nominal <= lk_high")


@dataclass(frozen=True)
class SpiralGeometry:
    """Planar spiral wound from a central disk outward; lengths in metres."""

    disk_radius: float
    line_width: float
    gap: float
    feed_offset: float
    spiral_length: float
    turns: float

    def __post_init__(self):
        require_positive(disk_radius=self.disk_radius, line_width=self.line_width,
                         gap=self.gap, spiral_length=self.spiral_length)
        require_nonnegative(feed_offset=self.feed_offset)
        require_finite(turns=self.turns)
        if self.turns < 1.0:
            raise DomainError("turns must be at least 1")


def archimedean_spiral_length(start_radius: float, pitch: float, turns: float) -> float:
    """Arc length of r(t) = start_radius + pitch*t/(2 pi) over ``turns`` turns."""
    require_positive(start_radius=start_radius, pitch=pitch)
    require_finite(turns=turns)
    if turns < 1.0:
        raise DomainError("turns must be at least 1")
    growth = pitch / (2.0 * math.pi)

    def antiderivative(u):
        return 0.5 * (u * math.hypot(u, growth)
                      + growth * growth * math.asinh(u / growth))

    inner = start_radius
    outer = start_radius + pitch * turns
    return (antiderivative(outer) - antiderivative(inner)) / growth


def build_spiral(
    disk_radius: float,
    line_width: float,
    gap: float,
    feed_offset: float,
    turns: float,
    spiral_length: float | None = None,
) -> SpiralGeometry:
    """Construct a SpiralGeometry, deriving the trace length from the turn count.

    A directly supplied ``spiral_length`` wins but triggers a warning when
    it disagrees with the turn count by more than 5%.
    """
    computed = archimedean_spiral_length(disk_radius, line_width + gap, turns)
    if spiral_length is None:
        spiral_length = computed
    elif abs(spiral_length - computed) > SPIRAL_LENGTH_TOLERANCE * computed:
        warnings.warn(
            f"supplied spiral_length {spiral_length:.4g} m deviates more than "
            f"{SPIRAL_LENGTH_TOLERANCE:.0%} from {computed:.4g} m implied by "
            f"{turns} turns",
            stacklevel=2,
        )
    return SpiralGeometry(
        disk_radius=disk_radius,
        line_width=line_width,
        gap=gap,
        feed_offset=feed_offset,
        spiral_length=spiral_length,
        turns=turns,
    )


@dataclass(frozen=True)
class ResonatorMode:
    """A single resonator mode and its coupling to the feed line."""

    f_r: float
    q_coupling: float
    q_internal: float

    def __post_init__(self):
        require_positive(f_r=self.f_r, q_coupling=self.q_coupling,
                         q_internal=self.q_internal)

    @property
    def kappa(self) -> float:
        return kappa_from_qc(self.f_r, self.q_coupling)

    @property
    def over_coupled(self) -> bool:
        """Readout-style coupling: internal Q at least 10x the coupling Q."""
        return self.q_internal > 10.0 * self.q_coupling


def squares(spiral_length: float, line_width: float) -> float:
    """Number of film squares in a trace of the given length and width."""
    require_positive(spiral_length=spiral_length, line_width=line_width)
    return spiral_length / line_width


def total_inductance(n_squares: float, film: FilmProperties) -> float:
    """Trace inductance in henries at the nominal sheet inductance."""
    require_positive(n_squares=n_squares)
    per_square = film.lk_nominal + film.geometric_l_per_square
    return n_squares * per_square * PH_PER_SQUARE


def resonance_frequency(inductance: float, capacitance: float) -> float:
    """LC resonance 1/(2 pi sqrt(LC)), SI in, Hz out."""
    require_positive(inductance=inductance, capacitance=capacitance)
    return 1.0 / (2.0 * math.pi * math.sqrt(inductance * capacitance))


def frequency_band(geometry: SpiralGeometry, film: FilmProperties,
                   c_total: float) -> tuple[float, float, float]:
    """(f_low, f_nominal, f_high) in Hz over the film's sheet-inductance band.

    The high end of the inductance band maps to the low end of the
    frequency band and vice versa.
    """
    n_squares = squares(geometry.spiral_length, geometry.line_width)

    def mode(per_square):
        inductance = n_squares * (per_square + film.geometric_l_per_square) * PH_PER_SQUARE
        return resonance_frequency(inductance, c_total)

    return mode(film.lk_high), mode(film.lk_nominal), mode(film.lk_low)


def kappa_from_qc(f_r: float, q_coupling: float) -> float:
    """Coupling-limited linewidth kappa = 2 pi f_r / Q_c, in 1/s."""
    require_positive(f_r=f_r, q_coupling=q_coupling)
    return 2.0 * math.pi * f_r / q_coupling


def q_c_from_kappa(f_r: float, kappa: float) -> float:
    """Coupling quality factor implied by a measured linewidth."""
    require_positive(f_r=f_r, kappa=kappa)
    return 2.0 * math.pi * f_r / kappa


def kappa_offset_model(feed_offset: float, kappa0: float, d0: float) -> float:
    """Phenomenological coupling-vs-offset law kappa0 * exp(-d/d0).

    Calibrated against measured (offset, kappa) pairs via
    :func:`fit_kappa_offset`; treat extrapolation beyond the fitted offset
    range with suspicion.
    """
    require_positive(kappa0=kappa0, d0=d0)
    require_nonnegative(feed_offset=feed_offset)
    return kappa0 * math.exp(-feed_offset / d0)


def fit_kappa_offset(offsets, kappas) -> fitting.FitResult:
    """Fit the exponential coupling-vs-offset law to measured pairs.

    The noise on kappa is multiplicative, so log kappa = log kappa0 - d/d0
    is fitted as a straight line in closed form, without iterating. Returns
    a FitResult with params ``[kappa0, d0]`` in the input units;
    ``residual_norm`` is the residual norm in log kappa.
    """
    import numpy as np

    from . import fitting

    d = np.asarray(offsets, dtype=float)
    k = np.asarray(kappas, dtype=float)
    if d.size != k.size:
        raise DomainError("offsets and kappas must have the same length")
    if d.size < 3:
        raise InsufficientDataError("need at least 3 (offset, kappa) pairs")
    require_nonnegative(offsets=d)
    require_positive(kappas=k)
    if np.ptp(d) == 0.0:
        raise DegenerateDataError("all offsets are equal")

    log_k = np.log(k)
    (slope, intercept), covariance = np.polyfit(d, log_k, 1, cov=True)
    if slope >= 0.0:
        raise FitFailureError("fitted coupling law is not a positive decay")
    kappa0 = math.exp(intercept)
    d0 = -1.0 / slope
    slope_err, intercept_err = np.sqrt(np.diag(covariance))
    return fitting.FitResult(
        params=np.array([kappa0, d0]),
        std_errors=np.array([kappa0 * intercept_err, slope_err * d0 * d0]),
        residual_norm=float(np.linalg.norm(log_k - (slope * d + intercept))),
        iterations=0,
    )


@dataclass(frozen=True)
class CpwTestStructure:
    """Straight coplanar-waveguide test resonator, SI units."""

    length: float
    l_per_length: float
    c_per_length: float
    termination: str = QUARTER_WAVE

    def __post_init__(self):
        require_positive(length=self.length, c_per_length=self.c_per_length)
        require_nonnegative(l_per_length=self.l_per_length)
        if self.termination not in (QUARTER_WAVE, HALF_WAVE):
            raise DomainError(
                f"termination must be '{QUARTER_WAVE}' or '{HALF_WAVE}'")


def cpw_mode_frequency(
    structure: CpwTestStructure,
    lk_per_square: float,
    line_width: float,
    geometric_l_per_square: float = 0.0,
) -> float:
    """Fundamental frequency of a CPW test structure with film sheet inductance.

    The per-length inductance is the structure's magnetic term plus the
    film's sheet terms (kinetic plus geometric, pH/square) divided by the
    centre-trace width.
    """
    require_positive(line_width=line_width)
    require_nonnegative(lk_per_square=lk_per_square,
                        geometric_l_per_square=geometric_l_per_square)
    sheet = (lk_per_square + geometric_l_per_square) * PH_PER_SQUARE
    per_length = structure.l_per_length + sheet / line_width
    if per_length <= 0.0:
        raise DomainError("total per-length inductance must be positive")
    fraction = 4.0 if structure.termination == QUARTER_WAVE else 2.0
    return 1.0 / (fraction * structure.length
                  * math.sqrt(per_length * structure.c_per_length))


def extract_lk_cpw(
    measured_f: float,
    structure: CpwTestStructure,
    line_width: float,
    geometric_l_per_square: float = 0.0,
) -> float:
    """Kinetic sheet inductance (pH/square) from a quarter-wave frequency.

    Inverts the quarter-wave relation
    f = 1 / (4 L sqrt((l_geo + L_k/w) c)) for L_k.
    """
    if structure.termination != QUARTER_WAVE:
        raise DomainError("extraction assumes a quarter-wave test structure")
    require_positive(measured_f=measured_f, line_width=line_width)
    require_nonnegative(geometric_l_per_square=geometric_l_per_square)
    per_length = 1.0 / (16.0 * structure.length**2 * measured_f**2
                        * structure.c_per_length)
    lk = ((per_length - structure.l_per_length) * line_width / PH_PER_SQUARE
          - geometric_l_per_square)
    if lk < -1e-9:
        raise DomainError(
            "measured frequency implies a negative kinetic inductance")
    return max(lk, 0.0)


@dataclass(frozen=True)
class RingdownFit:
    """Exponential amplitude-decay fit of a ring-down trace."""

    kappa: float
    kappa_std_error: float
    fit: fitting.FitResult  # params: amplitude, rate in decay times per span, offset

    @property
    def amplitude(self) -> float:
        return self.fit.params[0]

    @property
    def offset(self) -> float:
        return self.fit.params[2]


def fit_kappa_ringdown(times, amplitudes) -> RingdownFit:
    """Energy decay rate kappa from an amplitude ring-down trace.

    Fits V(t) = V0 exp(-kappa t / 2) + offset, with V0 and the offset
    solved in closed form for each trial rate. The trace must contain at
    least 8 samples and span at least two amplitude decay times, and must
    actually decay.
    """
    import numpy as np

    from . import fitting

    t = np.asarray(times, dtype=float)
    v = np.asarray(amplitudes, dtype=float)
    require_finite(times=t, amplitudes=v)
    if t.size != v.size:
        raise DomainError("times and amplitudes must have the same length")
    if t.size < RINGDOWN_MIN_SAMPLES:
        raise InsufficientDataError(
            f"need at least {RINGDOWN_MIN_SAMPLES} samples, got {t.size}")
    order = np.argsort(t)
    t = t[order]
    v = v[order]
    span = float(t[-1] - t[0])
    if span <= 0.0:
        raise DegenerateDataError("trace has zero time span")
    if float(np.std(v)) == 0.0:
        raise FitFailureError("trace is constant; nothing decays")

    s = (t - t[0]) / span  # time in trace spans, the rate in decay times per span

    def model(s, rate):
        """Best-fitting V0 exp(-rate s) + offset at each rate, and its
        derivative in the rate with V0 and the offset held."""
        decay = np.exp(-rate * s)
        mean = decay.mean(axis=-1, keepdims=True)
        amp = (np.sum((decay - mean) * v, axis=-1, keepdims=True)
               / np.sum((decay - mean) ** 2, axis=-1, keepdims=True))
        return amp * (decay - mean) + v.mean(), -amp * s * decay

    fit = fitting.least_squares(model, s, v, RINGDOWN_RATE_BRACKET)
    rate = float(fit.params[0])
    amp, offset = np.polyfit(np.exp(-rate * s), v, 1)
    if amp <= 0.0:
        raise FitFailureError("trace does not fit a decaying exponential")
    if rate < RINGDOWN_MIN_DECAY_SPANS:
        raise DomainError(
            "trace spans fewer than two amplitude decay times of the fitted rate")
    params = np.array([amp, rate, offset])
    fit = replace(fit, params=params, std_errors=fitting.standard_errors(
        fitting.exp_decay_jac(s, *params), np.ones_like(s), fit.residual_norm ** 2))
    return RingdownFit(kappa=2.0 * rate / span,
                       kappa_std_error=2.0 * fit.std_errors[1] / span, fit=fit)
