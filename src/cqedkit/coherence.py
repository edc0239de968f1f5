"""Energy-relaxation budget: dielectric loss, Purcell decay, echo-time checks.

T1 contributions are combined as rates (inverse times). Qubit frequencies
cross the API in Hz, times in seconds; coupling rates are angular (rad/s)
as in the transmon module. The budget and the Q_diel fit compute on plain
Python floats, point by point; numpy is never imported, and ``fitting``
only when the fit is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul, sub
from typing import TYPE_CHECKING

from .errors import (
    DomainError,
    FitFailureError,
    InsufficientDataError,
    require_finite,
    require_nonnegative,
    require_positive,
)

if TYPE_CHECKING:
    from . import fitting

T2_BOUND_TOLERANCE = 0.05
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CoherenceRecord:
    """One qubit's measured coherence point.

    ``t1_spread`` is the observed scatter of repeated T1 measurements (used
    as a fit weight); ``t2e`` the echo time. Both optional.
    """

    f_q: float
    t1: float
    t1_spread: float | None = None
    t2e: float | None = None

    def __post_init__(self):
        require_positive(f_q=self.f_q, t1=self.t1, t1_spread=self.t1_spread,
                         t2e=self.t2e)


@dataclass(frozen=True)
class PurcellParams:
    """Fixed resonator parameters entering the Purcell decay channel.

    The qubit-resonator detuning is recomputed per qubit frequency from
    ``f_r``, so one parameter set serves a whole frequency sweep.
    """

    g: float       # coupling, rad/s
    f_r: float     # resonator frequency, Hz
    kappa: float   # resonator linewidth, 1/s

    def __post_init__(self):
        require_nonnegative(g=self.g)
        require_positive(f_r=self.f_r, kappa=self.kappa)

    def detuning(self, f_q: float) -> float:
        """Angular qubit-resonator detuning at qubit frequency ``f_q``, rad/s."""
        return TWO_PI * (f_q - self.f_r)


@dataclass(frozen=True)
class LossModel:
    """Loss channels limiting T1 (and, through gamma_phi, T2)."""

    q_diel: float
    purcell: PurcellParams | None = None
    gamma_phi: float = 0.0

    def __post_init__(self):
        require_positive(q_diel=self.q_diel)
        require_nonnegative(gamma_phi=self.gamma_phi)


def t1_dielectric(f_q, q_diel: float):
    """Dielectric-loss-limited T1 = Q_diel / omega_q, seconds; f_q may be an array."""
    require_positive(f_q=f_q, q_diel=q_diel)
    return q_diel / (TWO_PI * f_q)


def _require_detuned(delta: float) -> None:
    # a detuning whose square underflows is on resonance to double precision
    if delta * delta == 0.0:
        raise DomainError("qubit on resonance with the readout mode")


def t1_purcell(g: float, delta: float, kappa: float) -> float:
    """Purcell-limited T1 = delta^2 / (g^2 kappa), seconds.

    Decoupling (g -> 0, or a g^2 kappa that underflows) sends the limit
    to infinity.
    """
    require_finite(g=g, delta=delta, kappa=kappa)
    _require_detuned(delta)
    require_positive(kappa=kappa)
    require_nonnegative(g=g)
    rate = g * g * kappa
    return math.inf if rate == 0.0 else delta * delta / rate


def _t1_total(f_q: float, q_diel: float, purcell: PurcellParams | None) -> float:
    """Inverse of the summed decay rate at a checked and detuned f_q."""
    rate = TWO_PI * f_q / q_diel
    if purcell is not None:
        delta = purcell.detuning(f_q)
        rate = rate + purcell.g * purcell.g * purcell.kappa / (delta * delta)
    # a rate that underflows to zero leaves T1 unbounded
    return 1.0 / rate if rate > 0.0 else math.inf


def t1_total(f_q: float, model: LossModel) -> float:
    """Harmonic combination of all modelled T1 channels, seconds."""
    require_positive(f_q=f_q)
    if model.purcell is not None:
        _require_detuned(model.purcell.detuning(f_q))
    return _t1_total(f_q, model.q_diel, model.purcell)


def t1_budget(f_q, model: LossModel):
    """T1 per channel over a frequency grid: (dielectric, Purcell, total),
    three tuples of seconds aligned with ``f_q``.

    The channels are ``t1_dielectric`` and ``t1_purcell``, the total
    ``t1_total``, at each grid point; each point is checked once, by the
    first two. The Purcell limit is inf without a Purcell channel or with
    g = 0.
    """
    f_q = tuple(map(float, f_q))
    purcell = model.purcell
    t1_diel = tuple(t1_dielectric(f, model.q_diel) for f in f_q)
    if purcell is None:
        t1_p = (math.inf,) * len(f_q)
    else:
        t1_p = tuple(t1_purcell(purcell.g, purcell.detuning(f), purcell.kappa)
                     for f in f_q)
    total = tuple(_t1_total(f, model.q_diel, purcell) for f in f_q)
    return t1_diel, t1_p, total


def t2_from_t1(t1, gamma_phi: float = 0.0):
    """Echo time implied by T1 and a pure-dephasing rate: 1/(1/(2 T1) + gamma_phi).

    ``t1`` may be a scalar or an array.
    """
    require_positive(t1=t1)
    require_nonnegative(gamma_phi=gamma_phi)
    if gamma_phi == 0.0:
        return 2.0 * t1  # exact, no division round-off at the ceiling
    return 1.0 / (0.5 / t1 + gamma_phi)


@dataclass(frozen=True)
class T2BoundCheck:
    """Outcome of the t2e <= 2 t1 consistency check: ``ratio`` is t2e / (2 t1),
    None without t2e, which makes the check not applicable (and not failed)."""

    ratio: float | None

    @property
    def applicable(self) -> bool:
        return self.ratio is not None

    @property
    def passed(self) -> bool:
        return self.ratio is None or self.ratio <= 1.0 + T2_BOUND_TOLERANCE


def t2_bound_check(record: CoherenceRecord) -> T2BoundCheck:
    """Check a record's echo time against the 2*T1 ceiling."""
    return T2BoundCheck(
        None if record.t2e is None else record.t2e / (2.0 * record.t1))


def fit_qdiel(records, purcell: PurcellParams | None = None) -> fitting.FitResult:
    """Fit the dielectric quality factor to measured (f_q, T1) records.

    Weighted least squares with weights 1/t1_spread^2, each a finite
    positive float, when every record carries a spread; uniform otherwise.
    Any Purcell channel is held fixed at the supplied parameters. Q_diel is
    searched from a tenth of the smallest omega_q * T1 (a record's Q under
    dielectric loss alone, which Purcell loss only raises) to a thousand
    times the largest.
    Returns a FitResult whose single parameter is q_diel.
    """
    from . import fitting

    records = list(records)
    if len(records) < 2:
        raise InsufficientDataError("need at least 2 coherence records")
    f_q = [r.f_q for r in records]
    t1 = [float(r.t1) for r in records]
    weights = [1.0] * len(records)
    if all(r.t1_spread is not None for r in records):
        squares = [r.t1_spread * r.t1_spread for r in records]
        weights = [1.0 / sq if sq > 0.0 else math.inf for sq in squares]
        if not all(0.0 < w < math.inf for w in weights):
            raise DomainError("t1_spread must give a finite, positive weight "
                              "1/t1_spread^2")
    if purcell is not None:
        for f in f_q:
            _require_detuned(purcell.detuning(f))
    diel = [TWO_PI * f for f in f_q]  # dielectric decay rates times q_diel

    def cost(q):
        residuals = [t - _t1_total(f, q, purcell) for f, t in zip(f_q, t1)]
        return math.fsum(map(mul, weights, map(mul, residuals, residuals)))

    def model(q):
        """T1 at each record, and its derivative in q, which is positive."""
        values = [_t1_total(f, q, purcell) for f in f_q]
        return values, [d / (q * q) * (t * t) for d, t in zip(diel, values)]

    def slope(q):
        """The cost's derivative in q, and a bound on its rounding error."""
        values, deriv = model(q)
        weighted = map(mul, weights, map(sub, t1, values))
        return (-2.0 * math.fsum(map(mul, weighted, deriv)),
                2.0 * fitting.EPS * math.fsum(map(mul, map(mul, weights, t1), deriv)))

    q_records = [d * t for d, t in zip(diel, t1)]
    bracket = (0.1 * min(q_records), 1e3 * max(q_records))
    try:
        q, iterations = fitting.least_squares(cost, slope, bracket)
    except FitFailureError as exc:
        raise FitFailureError(f"Q_diel fit over 0.1 x the smallest to 1e3 x the "
                              f"largest omega_q*T1: {exc}") from exc
    cost_q = cost(q)
    std_errors = fitting.standard_errors([(d,) for d in model(q)[1]], weights, cost_q)
    return fitting.FitResult((q,), std_errors, math.sqrt(cost_q), iterations)
