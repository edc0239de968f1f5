"""Tests for transmon energetics and dispersive-coupling relations."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqedkit import (
    DispersiveCoupling,
    DomainError,
    TransmonParams,
    anharmonicity,
    charging_energy,
    coupling_from_chi,
    dispersive_phase,
    dispersive_shift,
    flux_effective_ej,
    transmon_frequency,
)

# 2019 SI exact values, typed here so the check does not share a constants
# table with the implementation
ELEMENTARY_CHARGE = 1.602176634e-19
PLANCK = 6.62607015e-34


def test_charging_energy_85ff():
    expected = ELEMENTARY_CHARGE**2 / (2.0 * 85e-15 * PLANCK) / 1e9
    value = charging_energy(85e-15)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(0.2278, abs=1e-4)


def test_charging_energy_scaling():
    assert charging_energy(170e-15) == pytest.approx(
        0.5 * charging_energy(85e-15), rel=1e-12)
    assert charging_energy(1.0) < 1e-12  # huge capacitance, vanishing energy


def test_charging_energy_domain():
    with pytest.raises(DomainError):
        charging_energy(0.0)
    with pytest.raises(DomainError):
        charging_energy(-1e-15)


def test_transmon_frequency_design_point():
    params = TransmonParams(ej_total=9.80, ec=0.2278)
    expected = math.sqrt(8.0 * 9.80 * 0.2278) - 0.2278
    value = transmon_frequency(params)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(3.999, abs=1e-3)
    assert 3.5 < value < 4.8


def test_transmon_frequency_quadruple_ej():
    ec = 0.23
    base = transmon_frequency(TransmonParams(ej_total=8.0, ec=ec))
    quad = transmon_frequency(TransmonParams(ej_total=32.0, ec=ec))
    assert (quad + ec) == pytest.approx(2.0 * (base + ec), rel=1e-12)


def test_transmon_frequency_boundary_and_domain():
    ec = 0.3
    # 8 E_J E_C = E_C^2 puts the plasma term exactly at E_C
    boundary = TransmonParams(ej_total=ec / 8.0, ec=ec)
    assert transmon_frequency(boundary) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(DomainError):
        transmon_frequency(TransmonParams(ej_total=ec / 16.0, ec=ec))


def test_transmon_params_validation():
    with pytest.raises(DomainError):
        TransmonParams(ej_total=0.0, ec=0.2)
    with pytest.raises(DomainError):
        TransmonParams(ej_total=10.0, ec=-0.2)


def test_flux_effective_ej_landmarks():
    assert flux_effective_ej(TransmonParams(10.0, 0.2, flux=0.0)) == 10.0
    assert flux_effective_ej(TransmonParams(10.0, 0.2, flux=0.5)) == pytest.approx(0.0, abs=1e-12)
    assert flux_effective_ej(TransmonParams(10.0, 0.2, flux=1.0 / 3.0)) \
        == pytest.approx(5.0, rel=1e-12)


@given(flux=st.floats(min_value=-3.0, max_value=3.0))
def test_flux_effective_ej_even_periodic_bounded(flux):
    ej = 12.0
    here = flux_effective_ej(TransmonParams(ej, 0.2, flux=flux))
    mirrored = flux_effective_ej(TransmonParams(ej, 0.2, flux=-flux))
    shifted = flux_effective_ej(TransmonParams(ej, 0.2, flux=flux + 1.0))
    assert here == mirrored
    assert shifted == pytest.approx(here, abs=1e-9 * ej)
    assert 0.0 <= here <= ej


def test_sweet_spot_derivative_vanishes():
    ej = 9.8
    step = 1e-4
    up = flux_effective_ej(TransmonParams(ej, 0.2, flux=step))
    dn = flux_effective_ej(TransmonParams(ej, 0.2, flux=-step))
    assert abs(up - dn) / (2.0 * step) < 1e-8 * ej


@given(ej_low=st.floats(min_value=1.0, max_value=50.0),
       bump=st.floats(min_value=1e-3, max_value=50.0))
@settings(max_examples=100)
def test_transmon_frequency_monotone_in_ej(ej_low, bump):
    ec = 0.25
    low = transmon_frequency(TransmonParams(ej_total=ej_low, ec=ec))
    high = transmon_frequency(TransmonParams(ej_total=ej_low + bump, ec=ec))
    assert high > low


def test_anharmonicity_is_negative_ec():
    assert anharmonicity(TransmonParams(10.0, 0.2278)) == -0.2278


def test_dispersive_shift_design_point():
    two_pi = 2.0 * math.pi
    g = two_pi * 50e6
    delta = two_pi * 1.5e9
    alpha = -two_pi * 0.228e9
    chi = dispersive_shift(g, delta, alpha)
    expected = (g * g / delta) * (alpha / (delta + alpha))
    assert chi == pytest.approx(expected, rel=1e-12)
    assert chi / two_pi == pytest.approx(-0.2986e6, rel=1e-3)
    assert chi < 0.0


def test_dispersive_shift_scalings():
    args = (2e9, -3e8)
    base = dispersive_shift(1e8, *args)
    assert dispersive_shift(2e8, *args) == pytest.approx(4.0 * base, rel=1e-12)
    assert dispersive_shift(0.0, *args) == 0.0


def test_dispersive_shift_poles():
    with pytest.raises(DomainError):
        dispersive_shift(1e8, 0.0, -3e8)
    with pytest.raises(DomainError):
        dispersive_shift(1e8, 3e8, -3e8)


@given(g=st.floats(min_value=1e6, max_value=1e9),
       delta=st.floats(min_value=1e8, max_value=2e10),
       alpha=st.floats(min_value=-2e9, max_value=-1e7))
@settings(max_examples=100)
def test_coupling_from_chi_round_trip(g, delta, alpha):
    chi = dispersive_shift(g, delta, alpha)
    assert coupling_from_chi(chi, delta, alpha) == pytest.approx(g, rel=1e-12)


def test_coupling_from_chi_domain():
    with pytest.raises(DomainError):
        coupling_from_chi(1e5, 2e9, 0.0)
    with pytest.raises(DomainError):
        # positive chi with this sign pattern implies g^2 < 0
        coupling_from_chi(1e5, 2e9, -3e8)


def test_dispersive_phase_design_point():
    chi = math.pi * 930e3      # half of 2 chi = 2 pi * 930 kHz
    kappa = 1.0 / 300e-9
    phi = dispersive_phase(chi, kappa)
    assert phi == pytest.approx(math.atan2(2.0 * chi, kappa), rel=1e-15)
    assert phi == pytest.approx(1.0523, abs=1e-4)
    assert dispersive_phase(0.0, kappa) == 0.0


@given(chi=st.floats(min_value=-1e9, max_value=1e9),
       kappa=st.floats(min_value=1e3, max_value=1e9))
def test_dispersive_phase_odd_and_bounded(chi, kappa):
    phi = dispersive_phase(chi, kappa)
    assert phi == -dispersive_phase(-chi, kappa)
    assert abs(phi) < math.pi / 2


def test_dispersive_phase_domain():
    with pytest.raises(DomainError):
        dispersive_phase(1e6, 0.0)


def test_dispersive_coupling_from_rates():
    two_pi = 2.0 * math.pi
    coupling = DispersiveCoupling(
        g=two_pi * 50e6, delta=two_pi * 1.5e9, alpha=-two_pi * 0.228e9,
        kappa=1.0 / 300e-9)
    assert coupling.chi == dispersive_shift(coupling.g, coupling.delta,
                                            coupling.alpha)
    assert coupling.phi == dispersive_phase(coupling.chi, coupling.kappa)


def test_dispersive_coupling_rejects_inconsistent_phi():
    # chi and phi follow from the rates, so none that contradicts them is taken
    with pytest.raises(TypeError):
        DispersiveCoupling(g=1e8, delta=1e10, alpha=-1e9, chi=123.0,
                           kappa=3e6, phi=dispersive_phase(123.0, 3e6))
    with pytest.raises(DomainError, match="kappa must be positive"):
        DispersiveCoupling(g=1e8, delta=1e10, alpha=-1e9, kappa=0.0)
    with pytest.raises(DomainError, match="detuning"):
        DispersiveCoupling(g=1e8, delta=0.0, alpha=-1e9, kappa=3e6)

