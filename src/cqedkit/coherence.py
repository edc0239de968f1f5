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
    FitFailureError,
    InsufficientDataError,
    require_finite,
    require_nonnegative,
    require_positive,
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


def t1_purcell(g: float, delta, kappa: float):
    """Purcell-limited T1 = delta^2 / (g^2 kappa), seconds; delta may be an array.

    Decoupling (g -> 0) sends the limit to infinity, returned as a scalar.
    """
    require_finite(g=g, delta=delta, kappa=kappa)
    if np.any(delta == 0.0):
        raise DomainError("detuning must be nonzero for the dispersive Purcell rate")
    require_positive(kappa=kappa)
    require_nonnegative(g=g)
    if g == 0.0:
        return math.inf
    return delta * delta / (g * g * kappa)


def _total_rate(f_q, q_diel, purcell: PurcellParams | None):
    """Summed decay rate at the caller-checked f_q; f_q and q_diel broadcast."""
    f_q = np.asarray(f_q, dtype=float)
    rate = TWO_PI * f_q / q_diel
    if purcell is not None:
        delta = TWO_PI * (f_q - purcell.f_r)
        if np.any(delta == 0.0):
            raise DomainError("qubit on resonance with the readout mode")
        rate = rate + purcell.g**2 * purcell.kappa / delta**2
    return rate


def t1_total(f_q: float, model: LossModel) -> float:
    """Harmonic combination of all modelled T1 channels, seconds."""
    require_positive(f_q=f_q)
    return float(1.0 / _total_rate(f_q, model.q_diel, model.purcell))


def t1_budget(f_q, model: LossModel):
    """T1 per channel over a frequency grid: (dielectric, Purcell, total), s.

    The channels are ``t1_dielectric`` and ``t1_purcell``, the total
    ``t1_total``, each evaluated on the whole grid. The Purcell limit is
    inf without a Purcell channel or with g = 0.
    """
    f_q = np.asarray(f_q, dtype=float)
    t1_diel = t1_dielectric(f_q, model.q_diel)  # checks the grid
    total = 1.0 / _total_rate(f_q, model.q_diel, model.purcell)
    purcell = model.purcell
    t1_p = np.full(f_q.shape, math.inf if purcell is None else t1_purcell(
        purcell.g, TWO_PI * (f_q - purcell.f_r), purcell.kappa))
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
    try:
        return fitting.least_squares(model, f_q, t1, bracket, weights)
    except FitFailureError as exc:
        raise FitFailureError(f"Q_diel fit over 0.1 x the smallest to 1e3 x the "
                              f"largest omega_q*T1: {exc}") from exc
