"""Lumped-element spiral resonator design and film-parameter extraction.

Covers the forward path (geometry -> squares -> inductance -> resonance
band, coupling rate from Q or from feed offset) and the inverse path
(sheet inductance from test-structure frequencies, kappa from ring-down
traces, feed-offset model from measured coupling rates).

Everything here is plain float arithmetic; numpy is never imported.
The two fits import ``fitting`` when called, so the design commands do
not load it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul

from .errors import (
    DegenerateDataError,
    DomainError,
    FitFailureError,
    InsufficientDataError,
    require_finite,
    require_nonnegative,
    require_positive,
)

PH_PER_SQUARE = 1e-12  # one pH/square in H/square
RINGDOWN_MIN_SAMPLES = 8
RINGDOWN_MIN_DECAY_SPANS = 2.0
# searched decay times per span, reaching below RINGDOWN_MIN_DECAY_SPANS
RINGDOWN_RATE_BRACKET = (1e-3, 1e3)


class FilmProperties(namedtuple(
        "FilmProperties", "lk_nominal lk_low lk_high geometric_l_per_square",
        defaults=(0.0,))):
    """Sheet-inductance band of the superconducting film, in pH/square.

    ``lk_low``/``lk_high`` bracket the wafer-scale spread around the
    nominal value; ``geometric_l_per_square`` adds any magnetic sheet
    contribution on top of the kinetic one.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require_positive(lk_nominal=self.lk_nominal, lk_low=self.lk_low,
                         lk_high=self.lk_high)
        require_nonnegative(geometric_l_per_square=self.geometric_l_per_square)
        if not (self.lk_low <= self.lk_nominal <= self.lk_high):
            raise DomainError(
                "film band must satisfy lk_low <= lk_nominal <= lk_high")
        return self


class SpiralGeometry(namedtuple(
        "SpiralGeometry", "line_width spiral_length feed_offset")):
    """A spiral's trace: its width, its length and its offset from the
    feed line, in metres. ``build_spiral`` works the length out from the
    winding; ``frequency_band`` reads the width and the length."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require_positive(line_width=self.line_width,
                         spiral_length=self.spiral_length)
        require_nonnegative(feed_offset=self.feed_offset)
        return self


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
) -> SpiralGeometry:
    """The trace of a spiral wound ``turns`` times from a central disk
    outward at a pitch of ``line_width + gap``; for a given length,
    construct ``SpiralGeometry`` directly."""
    spiral_length = archimedean_spiral_length(disk_radius, line_width + gap, turns)
    require_positive(line_width=line_width, gap=gap)
    return SpiralGeometry(line_width, spiral_length, feed_offset)


class ResonatorMode(namedtuple("ResonatorMode", "f_r q_coupling q_internal")):
    """A single resonator mode and its coupling to the feed line."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require_positive(f_r=self.f_r, q_coupling=self.q_coupling,
                         q_internal=self.q_internal)
        return self

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
    """LC resonance 1/(2 pi sqrt(LC)), SI in, Hz out; a product LC that
    underflows to 0 or overflows to inf is a DomainError naming f_r."""
    require_positive(inductance=inductance, capacitance=capacitance)
    lc = inductance * capacitance
    f_r = 1.0 / (2.0 * math.pi * math.sqrt(lc)) if lc else math.inf
    require_positive(f_r=f_r)
    return f_r


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
    """Coupling-limited linewidth kappa = 2 pi f_r / Q_c, in 1/s; a kappa
    that overflows to inf or underflows to 0 is a DomainError naming kappa."""
    require_positive(f_r=f_r, q_coupling=q_coupling)
    kappa = 2.0 * math.pi * f_r / q_coupling
    require_positive(kappa=kappa)
    return kappa


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
    a FitResult with params ``(kappa0, d0)`` in the input units;
    ``residual_norm`` is the residual norm in log kappa.
    """
    from . import fitting

    d = [float(value) for value in offsets]
    k = [float(value) for value in kappas]
    if len(d) != len(k):
        raise DomainError("offsets and kappas must have the same length")
    if len(d) < 3:
        raise InsufficientDataError("need at least 3 (offset, kappa) pairs")
    require_nonnegative(offsets=d)
    require_positive(kappas=k)
    if max(d) == min(d):
        raise DegenerateDataError("all offsets are equal")

    line = fitting.straight_line(d, [math.log(value) for value in k])
    slope, intercept = line.params
    if slope >= 0.0:
        raise FitFailureError("fitted coupling law is not a positive decay")
    kappa0 = math.exp(intercept)
    d0 = -1.0 / slope
    slope_err, intercept_err = line.std_errors
    std_errors = (kappa0 * intercept_err, slope_err * d0 * d0)
    # offsets near the ends of the float range can put these out of it
    require_positive(kappa0=kappa0, d0=d0)
    require_finite(std_errors=std_errors)
    return line._replace(params=(kappa0, d0), std_errors=std_errors)


class CpwTestStructure(namedtuple(
        "CpwTestStructure", "length l_per_length c_per_length")):
    """Straight quarter-wave coplanar-waveguide test resonator, SI units."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require_positive(length=self.length, c_per_length=self.c_per_length)
        require_nonnegative(l_per_length=self.l_per_length)
        return self


def cpw_mode_frequency(
    structure: CpwTestStructure,
    lk_per_square: float,
    line_width: float,
    geometric_l_per_square: float = 0.0,
) -> float:
    """Quarter-wave frequency of a CPW test structure with film sheet inductance.

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
    return 1.0 / (4.0 * structure.length
                  * math.sqrt(per_length * structure.c_per_length))


def extract_lk_cpw(
    measured_f: float,
    structure: CpwTestStructure,
    line_width: float,
    geometric_l_per_square: float = 0.0,
) -> float:
    """Kinetic sheet inductance (pH/square) from a quarter-wave frequency.

    Inverts the quarter-wave relation
    f = 1 / (4 L sqrt((l_geo + L_k/w) c)) for L_k. An L_k that overflows
    is a DomainError naming lk.
    """
    require_positive(measured_f=measured_f, line_width=line_width)
    require_nonnegative(geometric_l_per_square=geometric_l_per_square)
    # products, not powers: ** raises OverflowError where * gives inf
    denominator = (16.0 * (structure.length * structure.length)
                   * (measured_f * measured_f) * structure.c_per_length)
    per_length = 1.0 / denominator if denominator else math.inf
    lk = ((per_length - structure.l_per_length) * line_width / PH_PER_SQUARE
          - geometric_l_per_square)
    if lk < -1e-9:
        raise DomainError(
            "measured frequency implies a negative kinetic inductance")
    require_finite(lk=lk)
    return max(lk, 0.0)


class RingdownFit(namedtuple("RingdownFit", "kappa kappa_std_error fit")):
    """Exponential amplitude-decay fit of a ring-down trace: kappa and its
    standard error in 1/s, and the ``fitting.FitResult`` whose params are
    the amplitude, the rate in decay times per span and the offset."""

    __slots__ = ()

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
    from . import fitting

    t = [float(value) for value in times]
    v = [float(value) for value in amplitudes]
    require_finite(times=t, amplitudes=v)
    if len(t) != len(v):
        raise DomainError("times and amplitudes must have the same length")
    if len(t) < RINGDOWN_MIN_SAMPLES:
        raise InsufficientDataError(
            f"need at least {RINGDOWN_MIN_SAMPLES} samples, got {len(t)}")
    t, v = map(list, zip(*sorted(zip(t, v))))
    span = t[-1] - t[0]
    if span <= 0.0:
        raise DegenerateDataError("trace has zero time span")
    if max(v) == min(v):
        raise FitFailureError("trace is constant; nothing decays")

    # time in trace spans, the rate in decay times per span
    s = [(ti - t[0]) / span for ti in t]
    n = len(s)
    v_mean = math.fsum(v) / n
    v_centred = [vi - v_mean for vi in v]
    v_ss = math.fsum(map(mul, v_centred, v_centred))

    def project(rate):
        """exp(-rate s), its mean, the deviations from that mean, their sum
        of squares, and the V0 that best fits them to v."""
        decay = [math.exp(-rate * si) for si in s]
        mean = math.fsum(decay) / n
        centred = [d - mean for d in decay]
        c_ss = math.fsum(map(mul, centred, centred))
        return decay, mean, centred, c_ss, math.fsum(map(mul, centred, v)) / c_ss

    def cost(rate):
        """The squared residual norm from projected sums, no list of residuals."""
        *_, c_ss, amp = project(rate)
        return v_ss - amp * amp * c_ss

    def residuals(centred, amp):
        return [vi - (amp * c + v_mean) for vi, c in zip(v, centred)]

    def slope(rate):
        """The cost's derivative in the rate with V0 and the offset held
        (the residual is orthogonal to their columns), and its rounding bound."""
        decay, _, centred, _, amp = project(rate)
        deriv = [-amp * si * d for si, d in zip(s, decay)]
        return (-2.0 * math.fsum(map(mul, residuals(centred, amp), deriv)),
                2.0 * fitting.EPS * math.fsum(map(mul, map(abs, v), map(abs, deriv))))

    rate, iterations = fitting.least_squares(cost, slope, RINGDOWN_RATE_BRACKET)
    decay, mean, centred, _, amp = project(rate)
    if amp <= 0.0:
        raise FitFailureError("trace does not fit a decaying exponential")
    if rate < RINGDOWN_MIN_DECAY_SPANS:
        raise DomainError(
            "trace spans fewer than two amplitude decay times of the fitted rate")
    residual = residuals(centred, amp)
    norm = math.sqrt(math.fsum(map(mul, residual, residual)))
    # the derivatives in (amp, rate, offset), one row per sample
    jacobian = [(d, -amp * si * d, 1.0) for si, d in zip(s, decay)]
    fit = fitting.FitResult((amp, rate, v_mean - amp * mean), fitting.standard_errors(
        jacobian, [1.0] * n, norm * norm), norm, iterations)
    # a span near the ends of the float range can put kappa out of it
    kappa, kappa_std_error = 2.0 * rate / span, 2.0 * fit.std_errors[1] / span
    require_finite(kappa=kappa, kappa_std_error=kappa_std_error)
    return RingdownFit(kappa=kappa, kappa_std_error=kappa_std_error, fit=fit)
