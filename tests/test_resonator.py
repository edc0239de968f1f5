"""Tests for spiral resonator design and film-parameter extraction."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from cqedkit import (
    CpwTestStructure,
    DegenerateDataError,
    DomainError,
    FilmProperties,
    FitFailureError,
    InsufficientDataError,
    ResonatorMode,
    SpiralGeometry,
    archimedean_spiral_length,
    build_spiral,
    cpw_mode_frequency,
    extract_lk_cpw,
    fit_kappa_offset,
    fit_kappa_ringdown,
    frequency_band,
    kappa_from_qc,
    kappa_offset_model,
    q_c_from_kappa,
    resonance_frequency,
    squares,
    total_inductance,
)
from cqedkit.dataio import load_kappa_offset_csv, load_ringdown_csv

KAPPA_REF = 1.0 / 300e-9


def test_squares():
    assert squares(1000e-6, 2e-6) == pytest.approx(500.0, rel=1e-12)
    assert squares(1000e-6, 4e-6) == pytest.approx(250.0, rel=1e-12)
    assert squares(3e-6, 3e-6) == 1.0
    with pytest.raises(DomainError):
        squares(0.0, 2e-6)


def test_total_inductance():
    film = FilmProperties(lk_nominal=2.0, lk_low=2.0, lk_high=2.2)
    assert total_inductance(500.0, film) == pytest.approx(1.0e-9, rel=1e-12)
    top = FilmProperties(lk_nominal=2.2, lk_low=2.0, lk_high=2.2)
    assert total_inductance(500.0, top) == pytest.approx(1.1e-9, rel=1e-12)
    single = FilmProperties(lk_nominal=2.0, lk_low=2.0, lk_high=2.0)
    assert total_inductance(1.0, single) == pytest.approx(2.0e-12, rel=1e-12)


def test_film_band_validation():
    with pytest.raises(DomainError, match="lk_low <= lk_nominal <= lk_high"):
        FilmProperties(lk_nominal=2.0, lk_low=2.1, lk_high=2.2)
    with pytest.raises(DomainError):
        FilmProperties(lk_nominal=2.0, lk_low=0.0, lk_high=2.2)
    with pytest.raises(DomainError):
        FilmProperties(lk_nominal=2.0, lk_low=2.0, lk_high=2.2,
                       geometric_l_per_square=-0.1)


def test_resonance_frequency_values():
    assert resonance_frequency(2e-9, 85e-15) == pytest.approx(12.21e9, rel=1e-3)
    assert resonance_frequency(1e-9, 1e-12) == pytest.approx(5.0329e9, rel=1e-4)
    with pytest.raises(DomainError):
        resonance_frequency(0.0, 1e-12)
    with pytest.raises(DomainError):
        resonance_frequency(1e-9, -1e-12)


def test_resonance_frequency_with_lc_out_of_range():
    # L*C underflows to 0 (the frequency would be infinite) or overflows
    with pytest.raises(DomainError, match="^f_r must be finite$"):
        resonance_frequency(1e-312, 85e-15)
    with pytest.raises(DomainError, match="^f_r must be positive$"):
        resonance_frequency(1e300, 1e10)


def test_resonance_frequency_exact_halving():
    f = resonance_frequency(1e-9, 85e-15)
    assert resonance_frequency(4e-9, 85e-15) == f / 2.0


@given(l1=st.floats(min_value=1e-10, max_value=1e-7),
       l2=st.floats(min_value=1e-10, max_value=1e-7),
       c=st.floats(min_value=1e-15, max_value=1e-11))
@settings(max_examples=100)
def test_resonance_frequency_decreasing_in_l(l1, l2, c):
    lo, hi = sorted((l1, l2))
    # adjacent floats can map to the same frequency, so demand a real gap
    if hi > lo * (1.0 + 1e-9):
        assert resonance_frequency(hi, c) < resonance_frequency(lo, c)


def _demo_geometry(**overrides):
    values = dict(disk_radius=40e-6, line_width=2e-6, gap=2e-6,
                  feed_offset=20e-6, turns=20.0)
    values.update(overrides)
    return build_spiral(**values)


def test_spiral_length_matches_quadrature():
    r0, pitch, turns = 40e-6, 4e-6, 20.0
    growth = pitch / (2.0 * math.pi)
    oracle, err = quad(lambda th: math.hypot(r0 + growth * th, growth),
                       0.0, 2.0 * math.pi * turns)
    value = archimedean_spiral_length(r0, pitch, turns)
    assert value == pytest.approx(oracle, rel=1e-9)
    assert err < 1e-12 * oracle


def test_spiral_builder_length_tolerance():
    computed = archimedean_spiral_length(40e-6, 4e-6, 20.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geom = _demo_geometry(spiral_length=1.02 * computed)
    assert geom.spiral_length == pytest.approx(1.02 * computed)
    with pytest.warns(UserWarning, match="deviates more than"):
        _demo_geometry(spiral_length=1.2 * computed)


def test_spiral_geometry_validation():
    with pytest.raises(DomainError):
        SpiralGeometry(disk_radius=-1e-6, line_width=2e-6, gap=2e-6,
                       feed_offset=0.0, spiral_length=1e-3, turns=10.0)
    with pytest.raises(DomainError):
        _demo_geometry(turns=0.5)


def test_frequency_band_ratio():
    geom = _demo_geometry()
    film = FilmProperties(lk_nominal=2.0, lk_low=2.0, lk_high=2.2)
    f_low, f_nom, f_high = frequency_band(geom, film, 85e-15)
    assert f_low <= f_nom <= f_high
    assert f_low / f_high == pytest.approx(math.sqrt(2.0 / 2.2), rel=1e-12)
    assert 1.0 - f_low / f_high == pytest.approx(0.0465, abs=1e-4)


def test_frequency_band_geometric_term_narrows():
    geom = _demo_geometry()
    kinetic = FilmProperties(lk_nominal=2.0, lk_low=2.0, lk_high=2.2)
    mixed = FilmProperties(lk_nominal=2.0, lk_low=2.0, lk_high=2.2,
                           geometric_l_per_square=2.0)
    def fractional(film):
        f_low, _, f_high = frequency_band(geom, film, 85e-15)
        return 1.0 - f_low / f_high
    assert fractional(mixed) < fractional(kinetic)


def test_frequency_band_zero_width():
    geom = _demo_geometry()
    film = FilmProperties(lk_nominal=2.0, lk_low=2.0, lk_high=2.0)
    f_low, f_nom, f_high = frequency_band(geom, film, 85e-15)
    assert f_low == f_nom == f_high


def test_kappa_from_qc():
    assert kappa_from_qc(6e9, 1e4) == pytest.approx(3.770e6, rel=1e-3)
    assert kappa_from_qc(6e9, 2e4) == pytest.approx(
        0.5 * kappa_from_qc(6e9, 1e4), rel=1e-12)
    with pytest.raises(DomainError):
        kappa_from_qc(6e9, 0.0)


@given(f_r=st.floats(min_value=1e9, max_value=2e10),
       q_c=st.floats(min_value=1e2, max_value=1e7))
def test_kappa_qc_round_trip(f_r, q_c):
    assert q_c_from_kappa(f_r, kappa_from_qc(f_r, q_c)) \
        == pytest.approx(q_c, rel=1e-15)


def test_resonator_mode_coupling_classification():
    over = ResonatorMode(6e9, 1e4, 1e6)
    assert over.over_coupled
    assert over.kappa == kappa_from_qc(6e9, 1e4)
    marginal = ResonatorMode(6e9, 1e4, 1e5)
    assert not marginal.over_coupled  # exactly 10x is not over-coupled
    # kappa follows from f_r and q_coupling, so none that contradicts them is taken
    with pytest.raises(TypeError):
        ResonatorMode(f_r=6e9, q_coupling=1e4, q_internal=1e6, kappa=1.0)
    with pytest.raises(DomainError, match="^q_coupling must be positive$"):
        ResonatorMode(f_r=6e9, q_coupling=0.0, q_internal=1e6)


def test_kappa_offset_model_landmarks():
    assert kappa_offset_model(0.0, 5e6, 10e-6) == 5e6
    assert kappa_offset_model(10e-6, 5e6, 10e-6) == pytest.approx(5e6 / math.e,
                                                                  rel=1e-12)
    with pytest.raises(DomainError):
        kappa_offset_model(-1e-6, 5e6, 10e-6)
    with pytest.raises(DomainError):
        kappa_offset_model(1e-6, 0.0, 10e-6)


def test_kappa_offset_fit_round_trip():
    kappa0, d0 = 5.0e6, 12e-6
    offsets = np.linspace(2e-6, 40e-6, 6)
    kappas = np.array([kappa_offset_model(d, kappa0, d0) for d in offsets])
    result = fit_kappa_offset(offsets, kappas)
    assert result.converged
    assert result.iterations == 0
    assert result.params[0] == pytest.approx(kappa0, rel=1e-3)
    assert result.params[1] == pytest.approx(d0, rel=1e-3)


def test_kappa_offset_fit_errors():
    with pytest.raises(InsufficientDataError):
        fit_kappa_offset([1e-6, 2e-6], [1e6, 9e5])
    with pytest.raises(DomainError):
        fit_kappa_offset([1e-6, 2e-6, 3e-6], [1e6, -9e5, 8e5])
    with pytest.raises(DegenerateDataError):
        fit_kappa_offset([5e-6, 5e-6, 5e-6], [1e6, 9e5, 8e5])
    with pytest.raises(FitFailureError):
        fit_kappa_offset([1e-6, 2e-6, 3e-6], [1e6, 1.1e6, 1.2e6])


def test_kappa_offset_fit_intervals_are_calibrated(tmp_path, demo_inputs):
    """The +-1 and +-2 sigma intervals cover the truth as often as stated.

    Seeded tables from the demo generator (6 offsets, 2 % multiplicative
    noise) go through the CSV loader as in ``fit-kappa``. With n - 2 = 4
    degrees of freedom the nominal coverage is Student t's, and the
    measured share must lie within four binomial standard deviations.
    """
    kappa0, d0, seeds = 2.5e7, 12e-6, 400
    z_scores = []
    for seed in range(seeds):
        path = demo_inputs.write_kappa_offset(
            tmp_path, np.random.default_rng(seed).standard_normal,
            kappa0=kappa0, d0=d0)
        d_um, kappas = load_kappa_offset_csv(path)
        fit = fit_kappa_offset(np.array(d_um) * 1e-6, kappas)
        z_scores.append(np.abs(np.array(fit.params) - [kappa0, d0])
                        / np.array(fit.std_errors))
    z_scores = np.array(z_scores)
    for z in (1.0, 2.0):
        nominal = 2.0 * stats.t.cdf(z, df=4) - 1.0
        band = 4.0 * math.sqrt(nominal * (1.0 - nominal) / seeds)
        coverage = np.mean(z_scores < z, axis=0)
        assert np.all(np.abs(coverage - nominal) < band), (z, nominal, coverage)


def _cpw(length=4e-3):
    return CpwTestStructure(length=length, l_per_length=4.0e-7,
                            c_per_length=1.6e-10)


def test_lk_extraction_round_trip_grid():
    structure = _cpw()
    width = 2e-6
    for lk in (0.5, 1.0, 2.0, 4.0):
        f = cpw_mode_frequency(structure, lk, width)
        assert extract_lk_cpw(f, structure, width) == pytest.approx(lk, rel=1e-6)


def test_lk_extraction_zero_and_geometric_sheet():
    structure = _cpw()
    width = 2e-6
    f0 = cpw_mode_frequency(structure, 0.0, width)
    assert extract_lk_cpw(f0, structure, width) == pytest.approx(0.0, abs=1e-9)
    f = cpw_mode_frequency(structure, 2.0, width, geometric_l_per_square=0.7)
    assert extract_lk_cpw(f, structure, width, geometric_l_per_square=0.7) \
        == pytest.approx(2.0, rel=1e-6)


def test_lk_extraction_monotone_in_frequency():
    structure = _cpw()
    width = 2e-6
    freqs = [cpw_mode_frequency(structure, lk, width)
             for lk in np.linspace(0.2, 6.0, 12)]
    assert all(b < a for a, b in zip(freqs, freqs[1:]))


def test_lk_extraction_domain():
    structure = _cpw()
    width = 2e-6
    f0 = cpw_mode_frequency(structure, 0.0, width)
    with pytest.raises(DomainError, match="negative kinetic inductance"):
        extract_lk_cpw(1.2 * f0, structure, width)


@pytest.mark.parametrize("length, measured_f, message", [
    # (L f)^2 overflows: the implied per-length inductance is 0
    (1e294, 4.176e9, "negative kinetic inductance"),
    (1e302, 4.176e9, "negative kinetic inductance"),
    (4e-3, 1e300, "negative kinetic inductance"),
    # (L f)^2 underflows: the implied kinetic inductance is infinite
    (1e-306, 4.176e9, "^lk must be finite$"),
    (4e-3, 1e-291, "^lk must be finite$"),
])
def test_lk_extraction_out_of_range_is_a_domain_error(length, measured_f, message):
    with pytest.raises(DomainError, match=message):
        extract_lk_cpw(measured_f, _cpw(length), 2e-6)



def _ringdown_trace(kappa=KAPPA_REF, n=64, span=3e-6, offset=0.05):
    t = np.linspace(0.0, span, n)
    return t, np.exp(-0.5 * kappa * t) + offset


def test_ringdown_noiseless():
    t, v = _ringdown_trace()
    fit = fit_kappa_ringdown(t, v)
    assert fit.kappa == pytest.approx(KAPPA_REF, rel=1e-3)
    assert 1.0 / fit.kappa == pytest.approx(300e-9, rel=1e-3)
    assert fit.offset == pytest.approx(0.05, abs=1e-6)


def test_ringdown_with_noise():
    t = np.linspace(0.0, 3e-6, 256)
    clean = np.exp(-0.5 * KAPPA_REF * t) + 0.05
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        fit = fit_kappa_ringdown(t, clean + 0.01 * rng.standard_normal(t.size))
        assert fit.kappa == pytest.approx(KAPPA_REF, rel=0.02)
        assert fit.kappa_std_error > 0.0


def test_ringdown_squared_trace_doubles_rate():
    """Energy (amplitude squared) decays at twice the amplitude rate."""
    t = np.linspace(0.0, 3e-6, 64)
    v = np.exp(-0.5 * KAPPA_REF * t)
    amplitude = fit_kappa_ringdown(t, v)
    energy = fit_kappa_ringdown(t, v * v)
    assert energy.kappa == pytest.approx(2.0 * amplitude.kappa, rel=1e-6)


def test_ringdown_unsorted_input():
    t, v = _ringdown_trace()
    perm = np.random.default_rng(9).permutation(t.size)
    fit = fit_kappa_ringdown(t[perm], v[perm])
    assert fit.kappa == pytest.approx(KAPPA_REF, rel=1e-3)


def test_ringdown_degenerate_inputs():
    t, v = _ringdown_trace()
    with pytest.raises(InsufficientDataError):
        fit_kappa_ringdown(t[:7], v[:7])
    with pytest.raises(FitFailureError, match="constant"):
        fit_kappa_ringdown(t, np.full(t.size, 0.3))
    with pytest.raises(FitFailureError):
        fit_kappa_ringdown(t, np.linspace(0.1, 1.0, t.size))  # rising trace
    with pytest.raises(DomainError, match="decay times"):
        short = np.linspace(0.0, 0.1 / KAPPA_REF, 16)
        fit_kappa_ringdown(short, np.exp(-0.5 * KAPPA_REF * short) + 0.05)


def test_ringdown_fit_intervals_are_calibrated(tmp_path, demo_inputs):
    """The ring-down fit's +-1 and +-2 sigma intervals cover the truth as stated.

    Seeded traces from the demo generator (256 points, 1 % additive noise)
    go through the CSV loader as in ``fit-kappa``. Kappa, the amplitude and
    the offset must each cover at Student t's rate for n - 3 = 253 degrees
    of freedom, within four binomial standard deviations.
    """
    kappa, seeds = KAPPA_REF, 400
    truth = np.array([kappa, 1.0, 0.05])
    z_scores = []
    for seed in range(seeds):
        path = demo_inputs.write_ringdown(
            tmp_path, np.random.default_rng(seed).standard_normal, kappa=kappa)
        fit = fit_kappa_ringdown(*load_ringdown_csv(path))
        estimate = np.array([fit.kappa, fit.amplitude, fit.offset])
        errors = np.array([fit.kappa_std_error, fit.fit.std_errors[0],
                           fit.fit.std_errors[2]])
        z_scores.append(np.abs(estimate - truth) / errors)
    z_scores = np.array(z_scores)
    for z in (1.0, 2.0):
        nominal = 2.0 * stats.t.cdf(z, df=253) - 1.0
        band = 4.0 * math.sqrt(nominal * (1.0 - nominal) / seeds)
        coverage = np.mean(z_scores < z, axis=0)
        assert np.all(np.abs(coverage - nominal) < band), (z, nominal, coverage)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_ringdown_rejects_non_finite_time(value):
    t, v = _ringdown_trace()
    t[5] = value
    with pytest.raises(DomainError, match="^times must be finite$"):
        fit_kappa_ringdown(t, v)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_ringdown_rejects_non_finite_amplitude(value):
    t, v = _ringdown_trace()
    v[5] = value
    with pytest.raises(DomainError, match="^amplitudes must be finite$"):
        fit_kappa_ringdown(t, v)
