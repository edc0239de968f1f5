"""Closed-form transmon and dispersive-coupling relations.

Angular rates (rad/s) are used for g, detuning, chi and kappa throughout;
energies and qubit frequencies are exchanged in GHz at the API boundary
because that is how device parameters are quoted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, require_finite, require_positive

# Exact by definition since the 2019 SI redefinition (CODATA 2018).
_ELEMENTARY_CHARGE = 1.602176634e-19  # C
_PLANCK = 6.62607015e-34  # J s


@dataclass(frozen=True)
class TransmonParams:
    """Flux-tunable transmon with a symmetric two-junction loop.

    ``ej_total`` is the summed Josephson energy of both junctions and
    ``ec`` the charging energy, both in GHz. ``flux`` is the applied flux
    in units of the flux quantum.
    """

    ej_total: float
    ec: float
    flux: float = 0.0

    def __post_init__(self):
        require_positive(ej_total=self.ej_total, ec=self.ec)
        require_finite(flux=self.flux)


@dataclass(frozen=True)
class DispersiveCoupling:
    """Qubit-resonator coupling in the dispersive regime; rates in rad/s."""

    g: float
    delta: float
    alpha: float
    kappa: float

    def __post_init__(self):
        self.phi  # the relations reject non-finite or out-of-domain rates

    @property
    def chi(self) -> float:
        return dispersive_shift(self.g, self.delta, self.alpha)

    @property
    def phi(self) -> float:
        return dispersive_phase(self.chi, self.kappa)


def charging_energy(shunt_capacitance: float) -> float:
    """Charging energy e^2/(2C) of a shunt capacitance, in GHz.

    Parameters
    ----------
    shunt_capacitance : float
        Total shunt capacitance in farads.
    """
    require_positive(shunt_capacitance=shunt_capacitance)
    return _ELEMENTARY_CHARGE**2 / (2.0 * shunt_capacitance * _PLANCK) / 1e9


def flux_effective_ej(params: TransmonParams) -> float:
    """Flux-tuned effective Josephson energy in GHz.

    Even and 1-periodic in the applied flux; maximal at integer flux.
    """
    return params.ej_total * abs(math.cos(math.pi * params.flux))


def transmon_frequency(params: TransmonParams) -> float:
    """Qubit transition frequency sqrt(8 E_J_eff E_C) - E_C, in GHz.

    Raises
    ------
    DomainError
        When the plasma term does not exceed the charging energy, i.e. the
        parameters have left the transmon regime entirely.
    """
    ej_eff = flux_effective_ej(params)
    plasma = math.sqrt(8.0 * ej_eff * params.ec)
    if plasma < params.ec:
        raise DomainError(
            "sqrt(8 E_J E_C) below E_C: outside the transmon expansion")
    return plasma - params.ec


def anharmonicity(params: TransmonParams) -> float:
    """Leading-order transmon anharmonicity, -E_C, in GHz."""
    return -params.ec


def dispersive_shift(g: float, delta: float, alpha: float) -> float:
    """Dispersive pull chi = (g^2/delta) * alpha/(delta+alpha), rad/s in, rad/s out.

    The sign is carried through: a negative anharmonicity below the
    straddling point gives a negative chi.
    """
    require_finite(g=g, delta=delta, alpha=alpha)
    if delta == 0.0:
        raise DomainError("qubit-resonator detuning must be nonzero")
    if delta + alpha == 0.0:
        raise DomainError("detuning sits on the two-level straddling pole")
    return (g * g / delta) * (alpha / (delta + alpha))


def coupling_from_chi(chi: float, delta: float, alpha: float) -> float:
    """Coupling magnitude |g| that reproduces a measured dispersive shift."""
    require_finite(chi=chi, delta=delta, alpha=alpha)
    if delta == 0.0:
        raise DomainError("qubit-resonator detuning must be nonzero")
    if delta + alpha == 0.0:
        raise DomainError("detuning sits on the two-level straddling pole")
    if alpha == 0.0:
        raise DomainError("zero anharmonicity produces no dispersive shift")
    g_squared = chi * delta * (delta + alpha) / alpha
    if g_squared < 0.0:
        raise DomainError("chi sign is inconsistent with delta and alpha")
    return math.sqrt(g_squared)


def dispersive_phase(chi: float, kappa: float) -> float:
    """Steady-state pointer-state phase arctan(2 chi / kappa), in radians.

    Odd in chi and bounded by +-pi/2.
    """
    require_finite(chi=chi)
    require_positive(kappa=kappa)
    return math.atan2(2.0 * chi, kappa)
