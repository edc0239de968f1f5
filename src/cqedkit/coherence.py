"""Energy-relaxation budget: dielectric loss, Purcell decay, echo-time checks.

T1 contributions are combined as rates (inverse times). Qubit frequencies
cross the API in Hz, times in seconds; coupling rates are angular (rad/s)
as in the transmon module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fitting
from .errors import (
    DomainError,
    InsufficientDataError,
    check_finite,
    require_finite,
)

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
        check_finite(self, "f_q", "t1", "t1_spread", "t2e")
        if self.f_q <= 0.0:
            raise DomainError("f_q must be positive")
        if self.t1 <= 0.0:
            raise DomainError("t1 must be positive")
        if self.t1_spread is not None and self.t1_spread <= 0.0:
            raise DomainError("t1_spread must be positive when given")
        if self.t2e is not None and self.t2e <= 0.0:
            raise DomainError("t2e must be positive when given")


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
        check_finite(self, "g", "f_r", "kappa")
        if self.g < 0.0:
            raise DomainError("g must be nonnegative")
        if self.f_r <= 0.0:
            raise DomainError("f_r must be positive")
        if self.kappa <= 0.0:
            raise DomainError("kappa must be positive")


@dataclass(frozen=True)
class LossModel:
    """Loss channels limiting T1 (and, through gamma_phi, T2)."""

    q_diel: float
    purcell: PurcellParams | None = None
    gamma_phi: float = 0.0

    def __post_init__(self):
        check_finite(self, "q_diel", "gamma_phi")
        if self.q_diel <= 0.0:
            raise DomainError("q_diel must be positive")
        if self.gamma_phi < 0.0:
            raise DomainError("gamma_phi must be nonnegative")


def t1_dielectric(f_q: float, q_diel: float) -> float:
    """Dielectric-loss-limited T1 = Q_diel / omega_q, seconds."""
    require_finite(f_q=f_q, q_diel=q_diel)
    if f_q <= 0.0:
        raise DomainError("f_q must be positive")
    if q_diel <= 0.0:
        raise DomainError("q_diel must be positive")
    return q_diel / (TWO_PI * f_q)


def t1_purcell(g: float, delta: float, kappa: float) -> float:
    """Purcell-limited T1 = delta^2 / (g^2 kappa), seconds.

    Decoupling (g -> 0) sends the limit to infinity.
    """
    require_finite(g=g, delta=delta, kappa=kappa)
    if delta == 0.0:
        raise DomainError("detuning must be nonzero for the dispersive Purcell rate")
    if kappa <= 0.0:
        raise DomainError("kappa must be positive")
    if g < 0.0:
        raise DomainError("g must be nonnegative")
    if g == 0.0:
        return math.inf
    return delta * delta / (g * g * kappa)


def _total_rate(f_q, q_diel, purcell: PurcellParams | None):
    """Summed decay rate at qubit frequency f_q; f_q and q_diel broadcast."""
    f_q = np.asarray(f_q, dtype=float)
    require_finite(f_q=f_q)
    if np.any(f_q <= 0.0):
        raise DomainError("f_q must be positive")
    rate = TWO_PI * f_q / q_diel
    if purcell is not None:
        delta = TWO_PI * (f_q - purcell.f_r)
        if np.any(delta == 0.0):
            raise DomainError("qubit on resonance with the readout mode")
        rate = rate + purcell.g**2 * purcell.kappa / delta**2
    return rate


def t1_total(f_q: float, model: LossModel) -> float:
    """Harmonic combination of all modelled T1 channels, seconds."""
    return float(1.0 / _total_rate(f_q, model.q_diel, model.purcell))


def t1_budget(f_q, model: LossModel):
    """T1 per channel over a frequency grid: (dielectric, Purcell, total), s.

    Each array matches the scalar ``t1_dielectric``, ``t1_purcell`` and
    ``t1_total`` bit for bit, as the operations run in the same order.
    The Purcell limit is inf without a Purcell channel or with g = 0.
    """
    f_q = np.asarray(f_q, dtype=float)
    total = 1.0 / _total_rate(f_q, model.q_diel, model.purcell)
    t1_diel = model.q_diel / (TWO_PI * f_q)
    purcell = model.purcell
    if purcell is None or purcell.g == 0.0:
        t1_p = np.full(f_q.shape, math.inf)
    else:
        delta = TWO_PI * (f_q - purcell.f_r)
        t1_p = delta * delta / (purcell.g * purcell.g * purcell.kappa)
    return t1_diel, t1_p, total


def t2_from_t1(t1, gamma_phi: float = 0.0):
    """Echo time implied by T1 and a pure-dephasing rate: 1/(1/(2 T1) + gamma_phi).

    ``t1`` may be a scalar or an array.
    """
    require_finite(t1=t1, gamma_phi=gamma_phi)
    if np.any(np.asarray(t1) <= 0.0):
        raise DomainError("t1 must be positive")
    if gamma_phi < 0.0:
        raise DomainError("gamma_phi must be nonnegative")
    if gamma_phi == 0.0:
        return 2.0 * t1  # exact, no division round-off at the ceiling
    return 1.0 / (0.5 / t1 + gamma_phi)


@dataclass(frozen=True)
class T2BoundCheck:
    """Outcome of the t2e <= 2 t1 consistency check."""

    applicable: bool
    passed: bool
    ratio: float | None


def t2_bound_check(record: CoherenceRecord,
                   tolerance: float = T2_BOUND_TOLERANCE) -> T2BoundCheck:
    """Check a record's echo time against the 2*T1 ceiling.

    Records without t2e come back not-applicable (and not failed). The
    ratio reported is t2e / (2 t1).
    """
    if record.t2e is None:
        return T2BoundCheck(applicable=False, passed=True, ratio=None)
    ratio = record.t2e / (2.0 * record.t1)
    return T2BoundCheck(applicable=True,
                        passed=ratio <= 1.0 + tolerance,
                        ratio=ratio)


def fit_qdiel(records, purcell: PurcellParams | None = None) -> fitting.FitResult:
    """Fit the dielectric quality factor to measured (f_q, T1) records.

    Weighted least squares with weights 1/t1_spread^2 when every record
    carries a spread, uniform weights otherwise. Any Purcell channel is
    held fixed at the supplied parameters. Q_diel is searched from a tenth
    of the smallest omega_q * T1 (a record's Q under dielectric loss alone,
    which Purcell loss only raises) to a thousand times the largest.
    Returns a FitResult whose single parameter is q_diel.
    """
    records = list(records)
    if len(records) < 2:
        raise InsufficientDataError("need at least 2 coherence records")
    f_q = np.array([r.f_q for r in records])
    t1 = np.array([r.t1 for r in records])
    if all(r.t1_spread is not None for r in records):
        weights = np.array([1.0 / r.t1_spread**2 for r in records])
    else:
        weights = None
    diel = TWO_PI * f_q  # dielectric decay rate times q_diel

    def model(f, q):
        t1_model = 1.0 / _total_rate(f, q, purcell)
        return t1_model, diel / q**2 * t1_model**2

    bracket = (0.1 * np.min(diel * t1), 1e3 * np.max(diel * t1))
    return fitting.least_squares(model, f_q, t1, bracket, weights)
