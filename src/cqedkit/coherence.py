"""Energy-relaxation budget: dielectric loss, Purcell decay, echo-time checks.

T1 contributions are combined as rates (inverse times); the Purcell rate
is exact, finite with the qubit on the resonator (Blais et al., Rev. Mod.
Phys. 93, 025005 (2021); Sete et al., Phys. Rev. A 92, 012325 (2015)).
Qubit frequencies cross the API in Hz, times in seconds; coupling rates
are angular (rad/s) as in the transmon module. The budget and the Q_diel
fit compute on plain Python floats, point by point; numpy is never
imported, and ``fitting`` only when the fit is called.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from operator import mul, sub

from .errors import (
    DomainError,
    FitFailureError,
    InsufficientDataError,
    require_finite,
    require_nonnegative,
    require_positive,
)

T2_BOUND_TOLERANCE = 0.05
TWO_PI = 2.0 * math.pi


class CoherenceRecord(namedtuple("CoherenceRecord", "f_q t1 t1_spread t2e",
                                 defaults=(None, None))):
    """One qubit's measured coherence point.

    ``t1_spread`` is the observed scatter of repeated T1 measurements (used
    as a fit weight); ``t2e`` the echo time. Both optional.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require_positive(f_q=self.f_q, t1=self.t1, t1_spread=self.t1_spread,
                         t2e=self.t2e)
        return self


class PurcellParams(namedtuple("PurcellParams", "g f_r kappa")):
    """Fixed resonator parameters entering the Purcell decay channel: the
    coupling ``g`` in rad/s, the resonator frequency ``f_r`` in Hz and its
    linewidth ``kappa`` in 1/s.

    The qubit-resonator detuning is recomputed per qubit frequency from
    ``f_r``, so one parameter set serves a whole frequency sweep.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require_nonnegative(g=self.g)
        require_positive(f_r=self.f_r, kappa=self.kappa)
        return self

    def detuning(self, f_q: float) -> float:
        """Angular qubit-resonator detuning at qubit frequency ``f_q``, rad/s."""
        delta = TWO_PI * (f_q - self.f_r)
        require_finite(delta=delta)
        return delta


class LossModel(namedtuple("LossModel", "q_diel purcell gamma_phi",
                           defaults=(None, 0.0))):
    """Loss channels limiting T1 (and, through gamma_phi, T2): ``purcell``
    is a PurcellParams or None."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require_positive(q_diel=self.q_diel)
        require_nonnegative(gamma_phi=self.gamma_phi)
        return self


def t1_dielectric(f_q, q_diel: float):
    """Dielectric-loss-limited T1 = Q_diel / omega_q, seconds; f_q may be an array."""
    require_positive(f_q=f_q, q_diel=q_diel)
    return q_diel / (TWO_PI * f_q)


def _purcell_rate(g: float, delta: float, kappa: float) -> float:
    """Purcell decay rate -2 Im(lambda), 1/s, for checked arguments.

    lambda is the eigenvalue of [[delta, g], [g, -i kappa/2]] nearer the
    bare qubit, so the rate is g^2 kappa / delta^2 for |delta| >> g, kappa
    and stays finite through the resonance: kappa/2 at delta = 0 for
    g > kappa/4. lambda - delta is the small root x = 2 g^2 / (b + q) of
    x^2 + b x - g^2 = 0, with b = |delta| + i kappa/2 (the rate is even in
    delta) and q = sqrt(b^2 + 4 g^2); b lies in the first quadrant, where
    the principal root adds to b, so nothing cancels. Scaling by the
    largest of |delta|, kappa/2 and 2 g keeps the squares finite.
    """
    scale = max(abs(delta), 0.5 * kappa, 2.0 * g)
    b = complex(abs(delta) / scale, 0.5 * kappa / scale)
    h = g / scale
    # Python's complex division, also for numpy scalar arguments
    root = b + cmath.sqrt(b * b + 4.0 * h * h)
    x = complex(2.0 * h * h) / root
    if g and abs(x.imag) < sys.float_info.min:
        # a subnormal or zero Im(x) has lost its digits (a detuning far
        # beyond g and kappa); the unscaled 2 g h keeps them
        return -2.0 * (complex(2.0 * g * h) / root).imag
    return -2.0 * scale * x.imag


def _purcell_rates(f_q, purcell: PurcellParams | None) -> list[float]:
    """The Purcell rate at each qubit frequency; 0 without the channel."""
    return [0.0 if purcell is None else
            _purcell_rate(purcell.g, purcell.detuning(f), purcell.kappa) for f in f_q]


def _t1(rate: float) -> float:
    """T1 from a decay rate; a rate of zero (g = 0, or underflow) gives inf."""
    return 1.0 / rate if rate > 0.0 else math.inf


def t1_purcell(g: float, delta: float, kappa: float) -> float:
    """Purcell-limited T1, seconds: the dispersive delta^2 / (g^2 kappa) for
    |delta| >> g, kappa, and 2 / kappa at delta = 0 for g > kappa/4."""
    require_finite(g=g, delta=delta, kappa=kappa)
    require_positive(kappa=kappa)
    require_nonnegative(g=g)
    return _t1(_purcell_rate(g, delta, kappa))


def t1_total(f_q: float, model: LossModel) -> float:
    """Harmonic combination of all modelled T1 channels, seconds."""
    return t1_budget([f_q], model)[2][0]


def t1_budget(f_q, model: LossModel):
    """T1 per channel over a frequency grid: (dielectric, Purcell, total),
    three tuples of seconds aligned with ``f_q``.

    The channels are ``t1_dielectric`` and ``t1_purcell`` at each grid
    point, which may lie on the resonator, and the total their harmonic
    sum. The Purcell limit is inf without a Purcell channel or with g = 0.
    """
    f_q = tuple(map(float, f_q))
    t1_diel = tuple(t1_dielectric(f, model.q_diel) for f in f_q)
    rates = _purcell_rates(f_q, model.purcell)
    total = tuple(_t1(TWO_PI * f / model.q_diel + rate)
                  for f, rate in zip(f_q, rates))
    return t1_diel, tuple(map(_t1, rates)), total


def t2_from_t1(t1, gamma_phi: float = 0.0):
    """Echo time implied by T1 and a pure-dephasing rate: 1/(1/(2 T1) + gamma_phi).

    ``t1`` may be a scalar or an array.
    """
    require_positive(t1=t1)
    require_nonnegative(gamma_phi=gamma_phi)
    if gamma_phi == 0.0:
        return 2.0 * t1  # exact, no division round-off at the ceiling
    return 1.0 / (0.5 / t1 + gamma_phi)


class T2BoundCheck(namedtuple("T2BoundCheck", "ratio")):
    """Outcome of the t2e <= 2 t1 consistency check: ``ratio`` is t2e / (2 t1),
    None without t2e, which makes the check not applicable (and not failed)."""

    __slots__ = ()

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
    Any Purcell channel is held fixed at the supplied parameters; one whose
    limit alone is below every record's T1 leaves no dielectric loss to
    fit, a DomainError naming purcell. Q_diel is searched from a tenth of
    the smallest omega_q * T1 (a record's Q under dielectric loss alone,
    which Purcell loss only raises) to a thousand times the largest.
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
    diel = [TWO_PI * f for f in f_q]  # dielectric decay rates times q_diel
    purcell_rates = _purcell_rates(f_q, purcell)  # fixed: no q in them
    if all(_t1(p) < t for p, t in zip(purcell_rates, t1)):
        raise DomainError("purcell limit is below T1 at every record, leaving "
                          "no dielectric loss to fit")

    def t1_model(q):
        return [_t1(d / q + p) for d, p in zip(diel, purcell_rates)]

    def cost(q):
        residuals = list(map(sub, t1, t1_model(q)))
        return math.fsum(map(mul, weights, map(mul, residuals, residuals)))

    def model(q):
        """T1 at each record, and its derivative in q, which is positive;
        a q whose square underflows to 0 has none that is finite."""
        values = t1_model(q)
        if not q * q:
            raise FitFailureError(f"Q_diel^2 underflows to 0 at {q:.6g}")
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
    # records near the ends of the float range can put these out of it
    require_finite(q_diel=q, q_diel_std_error=std_errors[0])
    return fitting.FitResult((q,), std_errors, math.sqrt(cost_q), iterations)
