"""Tests for the energy-relaxation budget and dielectric-quality fitting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cqedkit import (
    CoherenceRecord,
    CpwTestStructure,
    DispersiveCoupling,
    DomainError,
    FilmProperties,
    FitFailureError,
    InsufficientDataError,
    LossModel,
    PurcellParams,
    ReadoutConfig,
    ResonatorMode,
    SpiralGeometry,
    TransmonParams,
    charging_energy,
    coupling_from_chi,
    dispersive_phase,
    dispersive_shift,
    fit_gaussian_1d,
    fit_kappa_offset,
    fit_qdiel,
    t1_budget,
    t1_dielectric,
    t1_purcell,
    t1_total,
    t2_bound_check,
    t2_from_t1,
)
from cqedkit.dataio import load_coherence_csv

TWO_PI = 2.0 * math.pi


def test_t1_dielectric_values():
    assert t1_dielectric(4.45e9, 1e6) == pytest.approx(35.8e-6, rel=2e-3)
    assert t1_dielectric(4.0e9, 746e3) == pytest.approx(29.7e-6, rel=1e-3)
    assert t1_dielectric(8.0e9, 1e6) == pytest.approx(
        0.5 * t1_dielectric(4.0e9, 1e6), rel=1e-12)
    with pytest.raises(DomainError):
        t1_dielectric(0.0, 1e6)
    with pytest.raises(DomainError):
        t1_dielectric(4e9, -1e6)


def test_t1_purcell_values():
    # the dispersive delta^2 / (g^2 kappa), 270 us at 1.5 GHz, times its
    # first correction 1 + 3 g^2 / delta^2; the next terms are below
    # 2 (g / delta)^4 + (kappa / delta)^2 relative
    g = TWO_PI * 50e6
    kappa = 3.333e6
    for detune_ghz in (1.5, 4.5, 15.0, 150.0):
        delta = TWO_PI * detune_ghz * 1e9
        dispersive = delta**2 / (g * g * kappa)
        ratio = (g / delta)**2
        assert t1_purcell(g, delta, kappa) == pytest.approx(
            dispersive * (1.0 + 3.0 * ratio),
            rel=2.0 * ratio * ratio + (kappa / delta)**2)
        assert t1_purcell(0.0, delta, kappa) == math.inf
    with pytest.raises(DomainError):
        t1_purcell(g, TWO_PI * 1.5e9, 0.0)


# (g, kappa) in units of the detuning grid's; the last two have g < kappa/4
PURCELL_SHAPES = [(1.0, 0.5), (0.3, 0.5), (3.0, 1.0), (0.2, 1.0), (0.1, 1.0)]
DETUNINGS = [0.0, 0.05, 0.3, 1.0, 3.0, 10.0, 30.0]


@pytest.mark.parametrize("g, kappa", PURCELL_SHAPES)
def test_t1_purcell_is_the_exact_eigenmode_decay(g, kappa):
    # -2 Im of the eigenvalue of [[delta, g], [g, -i kappa/2]] nearer the
    # bare qubit, on both sides of the resonator and with |delta| < g
    for delta in [-d for d in DETUNINGS[:0:-1]] + DETUNINGS:
        eigenvalues = np.linalg.eigvals(np.array([[delta, g],
                                                  [g, -0.5j * kappa]]))
        qubit_like = eigenvalues[np.argmin(np.abs(eigenvalues - delta))]
        assert 1.0 / t1_purcell(g, delta, kappa) == pytest.approx(
            -2.0 * qubit_like.imag, rel=1e-9), delta


@pytest.mark.parametrize("g, kappa", PURCELL_SHAPES[:3])
def test_t1_purcell_on_resonance_is_half_kappa(g, kappa):
    assert 1.0 / t1_purcell(g, 0.0, kappa) == pytest.approx(0.5 * kappa,
                                                            rel=1e-12)


@pytest.mark.parametrize("g, kappa", PURCELL_SHAPES)
def test_t1_purcell_is_even_in_the_detuning(g, kappa):
    for delta in DETUNINGS:
        assert t1_purcell(g, -delta, kappa) == t1_purcell(g, delta, kappa)


@pytest.mark.parametrize("delta", [0.0, TWO_PI * 1e9, 1e170])
def test_t1_purcell_is_finite_at_extreme_coupling(delta):
    # squared unscaled, g = 1e160 rad/s overflows to inf and then nan
    t1 = t1_purcell(1e160, delta, 3e6)
    assert 0.0 < t1 < math.inf
    if delta == 0.0:
        assert t1 == pytest.approx(2.0 / 3e6, rel=1e-12)


@pytest.mark.parametrize("detune_hz", [8.8e113, 3.4e115, 1e160])
def test_t1_purcell_keeps_its_digits_far_from_the_resonator(detune_hz):
    # scaled by the detuning, the rate's Im part is subnormal here: it read
    # 2.4e-10 to 1 relative off, or 0, where the dispersive T1 is finite
    g, kappa = TWO_PI * 50e6, 1.0 / 300e-9
    delta = TWO_PI * detune_hz
    assert t1_purcell(g, delta, kappa) == pytest.approx(
        delta / g * (delta / g) / kappa, rel=1e-12)


def test_t1_total_harmonic_combination():
    # dielectric limit 29.7 us combined with a Purcell limit near 270 us
    f_q = 4.0e9
    q_diel = 746e3
    diel = t1_dielectric(f_q, q_diel)
    kappa = 3.333e6
    f_r = 5.5e9
    delta = TWO_PI * (f_q - f_r)
    g = math.sqrt(delta**2 / (270e-6 * kappa))
    model = LossModel(q_diel=q_diel,
                      purcell=PurcellParams(g=g, f_r=f_r, kappa=kappa))
    purcell = t1_purcell(g, delta, kappa)
    assert purcell == pytest.approx(270e-6, rel=1e-2)
    total = t1_total(f_q, model)
    assert total == pytest.approx(1.0 / (1.0 / diel + 1.0 / purcell), rel=1e-12)
    assert total == pytest.approx(26.7e-6, rel=2e-3)


def test_t1_total_without_purcell_is_dielectric():
    model = LossModel(q_diel=1e6)
    assert t1_total(4.45e9, model) == pytest.approx(
        t1_dielectric(4.45e9, 1e6), rel=1e-15)


def test_t1_total_equal_rates_halves():
    # a Q_diel that makes the dielectric limit the Purcell limit; at 6 GHz
    # the qubit sits on the resonator, where the Purcell T1 is 2 / kappa
    g, f_r, kappa = 1e8, 6.0e9, 3e6
    for f_q in (4.0e9, 6.0e9):
        purcell = t1_purcell(g, TWO_PI * (f_q - f_r), kappa)
        q_diel = TWO_PI * f_q * purcell
        model = LossModel(q_diel=q_diel,
                          purcell=PurcellParams(g=g, f_r=f_r, kappa=kappa))
        assert t1_total(f_q, model) == pytest.approx(0.5 * purcell, rel=1e-12)
        assert t1_total(f_q, model) == pytest.approx(
            0.5 * t1_dielectric(f_q, q_diel), rel=1e-12)
    assert purcell == pytest.approx(2.0 / kappa, rel=1e-12)


@given(q_diel=st.floats(min_value=1e4, max_value=1e8),
       f_q=st.floats(min_value=1e9, max_value=8e9),
       g=st.floats(min_value=1e6, max_value=1e9),
       detune=st.floats(min_value=1e8, max_value=5e9),
       kappa=st.floats(min_value=1e5, max_value=1e8))
@settings(max_examples=200)
def test_t1_total_below_every_channel(q_diel, f_q, g, detune, kappa):
    model = LossModel(q_diel=q_diel,
                      purcell=PurcellParams(g=g, f_r=f_q + detune, kappa=kappa))
    total = t1_total(f_q, model)
    diel = t1_dielectric(f_q, q_diel)
    purcell = t1_purcell(g, TWO_PI * detune, kappa)
    assert total <= min(diel, purcell) * (1.0 + 1e-12)


PURCELL = PurcellParams(g=TWO_PI * 50e6, f_r=6.0e9, kappa=1.0 / 300e-9)


@pytest.mark.parametrize("purcell", [
    PURCELL,
    None,
    PurcellParams(g=0.0, f_r=6.0e9, kappa=1.0 / 300e-9),
], ids=["purcell", "no-purcell", "g-zero"])
def test_t1_budget_matches_scalar_channels_bitwise(purcell):
    # both sides of the readout mode and a point on it, at 6 GHz
    grid = np.linspace(3.5e9, 8.0e9, 91)
    assert 6.0e9 in grid
    model = LossModel(q_diel=746e3, purcell=purcell, gamma_phi=2e3)
    t1_diel, t1_p, total = t1_budget(grid, model)
    assert np.array_equal(t1_diel, [t1_dielectric(f, model.q_diel)
                                    for f in grid])
    if purcell is None:
        assert t1_p == (math.inf,) * grid.size
    else:
        assert np.array_equal(t1_p, [
            t1_purcell(purcell.g, TWO_PI * (f - purcell.f_r), purcell.kappa)
            for f in grid])
    assert np.array_equal(total, [t1_total(f, model) for f in grid])


def test_t1_budget_rejects_nonpositive_frequency():
    with pytest.raises(DomainError, match="^f_q must be positive$"):
        t1_budget(np.array([0.0, 5e9]), LossModel(q_diel=1e6, purcell=PURCELL))


def test_detuning_that_overflows_is_rejected():
    model = LossModel(q_diel=1e6, purcell=PURCELL)
    for call in (lambda: t1_total(1e308, model),
                 lambda: t1_budget([5e9, 1e308], model),
                 lambda: fit_qdiel([CoherenceRecord(f_q=f, t1=1e-5)
                                    for f in (5e9, 1e308)], purcell=PURCELL)):
        with pytest.raises(DomainError, match="^delta must be finite$"):
            call()


@pytest.mark.parametrize("gamma_phi", [0.0, 1e4])
def test_t2_from_t1_on_arrays_matches_scalars_bitwise(gamma_phi):
    t1 = np.array([1e-6, 25e-6, 3.7e-4, 1.23456789e-5])
    t2 = t2_from_t1(t1, gamma_phi)
    assert isinstance(t2, np.ndarray)
    assert np.array_equal(t2, [t2_from_t1(float(t), gamma_phi) for t in t1])
    with pytest.raises(DomainError, match="t1 must be positive"):
        t2_from_t1(np.array([1e-6, 0.0]), gamma_phi)


def test_t2_from_t1_exact_doubling():
    for t1 in (1e-6, 25e-6, 3.7e-4):
        assert t2_from_t1(t1) == 2.0 * t1
    assert t2_from_t1(25e-6, gamma_phi=1e4) == pytest.approx(
        1.0 / (0.5 / 25e-6 + 1e4), rel=1e-15)
    with pytest.raises(DomainError):
        t2_from_t1(0.0)
    with pytest.raises(DomainError):
        t2_from_t1(1e-6, gamma_phi=-1.0)


def test_t2_bound_check_landmarks():
    check = t2_bound_check(CoherenceRecord(f_q=4e9, t1=25e-6, t2e=47e-6))
    assert check.applicable and check.passed
    assert check.ratio == pytest.approx(0.94, rel=1e-12)

    exact = t2_bound_check(CoherenceRecord(f_q=4e9, t1=25e-6, t2e=50e-6))
    assert exact.passed and exact.ratio == pytest.approx(1.0, rel=1e-12)

    broken = t2_bound_check(CoherenceRecord(f_q=4e9, t1=25e-6, t2e=75e-6))
    assert broken.applicable and not broken.passed

    silent = t2_bound_check(CoherenceRecord(f_q=4e9, t1=25e-6))
    assert not silent.applicable and silent.passed and silent.ratio is None


def test_record_validation():
    with pytest.raises(DomainError):
        CoherenceRecord(f_q=-4e9, t1=25e-6)
    with pytest.raises(DomainError):
        CoherenceRecord(f_q=4e9, t1=0.0)
    with pytest.raises(DomainError):
        CoherenceRecord(f_q=4e9, t1=25e-6, t1_spread=0.0)
    with pytest.raises(DomainError):
        LossModel(q_diel=0.0)
    with pytest.raises(DomainError):
        PurcellParams(g=-1.0, f_r=6e9, kappa=3e6)


def test_records_are_immutable_named_tuples():
    record = CoherenceRecord(f_q=4e9, t1=25e-6)
    assert record == (4e9, 25e-6, None, None)
    f_q, t1, *_ = record
    assert (f_q, t1) == (4e9, 25e-6)
    with pytest.raises(AttributeError):
        record.t1 = 30e-6


# One valid instance per validated record, as keyword arguments; every
# float field is listed, so each one is checked for finiteness below.
VALID_FIELDS = {
    LossModel: dict(q_diel=746e3, gamma_phi=0.0),
    PurcellParams: dict(g=TWO_PI * 50e6, f_r=6.0e9, kappa=1.0 / 300e-9),
    CoherenceRecord: dict(f_q=4e9, t1=25e-6, t1_spread=1e-6, t2e=47e-6),
    FilmProperties: dict(lk_nominal=2.0, lk_low=2.0, lk_high=2.2,
                         geometric_l_per_square=0.0),
    SpiralGeometry: dict(line_width=2e-6, spiral_length=5e-3, feed_offset=20e-6),
    CpwTestStructure: dict(length=4e-3, l_per_length=4e-7,
                           c_per_length=1.6e-10),
    ResonatorMode: dict(f_r=6e9, q_coupling=1e4, q_internal=1e6),
    TransmonParams: dict(ej_total=9.8, ec=0.2278, flux=0.1),
    DispersiveCoupling: dict(g=TWO_PI * 50e6, delta=TWO_PI * 1.5e9,
                             alpha=-TWO_PI * 0.228e9, kappa=1.0 / 300e-9),
    ReadoutConfig: dict(epsilon=2e6, kappa=1.0 / 300e-9, chi=TWO_PI * 465e3,
                        tau_m=700e-9),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, field", [
    (cls, field) for cls, fields in VALID_FIELDS.items() for field in fields
], ids=lambda item: getattr(item, "__name__", item))
def test_dataclass_validators_reject_non_finite(cls, field, value):
    cls(**VALID_FIELDS[cls])
    with pytest.raises(DomainError, match=f"^{field} must be finite$"):
        cls(**{**VALID_FIELDS[cls], field: value})


LIBRARY_CALLS = {
    "charging_energy": (lambda v: charging_energy(v), "shunt_capacitance"),
    "dispersive_shift-g": (lambda v: dispersive_shift(v, 2e9, -3e8), "g"),
    "dispersive_shift-delta": (lambda v: dispersive_shift(1e8, v, -3e8), "delta"),
    "dispersive_shift-alpha": (lambda v: dispersive_shift(1e8, 2e9, v), "alpha"),
    "coupling_from_chi-chi": (lambda v: coupling_from_chi(v, 2e9, -3e8), "chi"),
    "coupling_from_chi-delta": (
        lambda v: coupling_from_chi(-1e5, v, -3e8), "delta"),
    "coupling_from_chi-alpha": (
        lambda v: coupling_from_chi(-1e5, 2e9, v), "alpha"),
    "dispersive_phase-chi": (lambda v: dispersive_phase(v, 3e6), "chi"),
    "dispersive_phase-kappa": (lambda v: dispersive_phase(1e6, v), "kappa"),
    "t1_dielectric-f_q": (lambda v: t1_dielectric(v, 1e6), "f_q"),
    "t1_dielectric-q_diel": (lambda v: t1_dielectric(4e9, v), "q_diel"),
    "t1_purcell-g": (lambda v: t1_purcell(v, TWO_PI * 2e9, 3e6), "g"),
    "t1_purcell-delta": (lambda v: t1_purcell(1e8, v, 3e6), "delta"),
    "t1_purcell-kappa": (lambda v: t1_purcell(1e8, TWO_PI * 2e9, v), "kappa"),
    "t1_total": (lambda v: t1_total(v, LossModel(q_diel=1e6)), "f_q"),
    "t1_budget": (lambda v: t1_budget([4e9, v], LossModel(q_diel=1e6)), "f_q"),
    "t2_from_t1-t1": (lambda v: t2_from_t1(np.array([30e-6, v])), "t1"),
    "t2_from_t1-gamma_phi": (lambda v: t2_from_t1(30e-6, v), "gamma_phi"),
    "fit_gaussian_1d": (
        lambda v: fit_gaussian_1d(np.append(np.arange(200.0), v)), "samples"),
    "fit_kappa_offset-offsets": (lambda v: fit_kappa_offset(
        [5e-6, v, 2e-5], [1e6, 8e5, 6e5]), "offsets"),
    "fit_kappa_offset-kappas": (lambda v: fit_kappa_offset(
        [5e-6, 1e-5, 2e-5], [1e6, v, 6e5]), "kappas"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("case", sorted(LIBRARY_CALLS))
def test_library_functions_reject_non_finite_arguments(case, value):
    call, name = LIBRARY_CALLS[case]
    with pytest.raises(DomainError, match=f"^{name} must be finite$"):
        call(value)


def _synthetic_records(q_diel, freqs, purcell=None, spread_frac=None, rng=None):
    records = []
    for f in freqs:
        t1 = t1_total(f, LossModel(q_diel=q_diel, purcell=purcell))
        if rng is not None and spread_frac:
            t1 = t1 * math.exp(spread_frac * rng.standard_normal())
        spread = None if spread_frac is None else t1 * spread_frac
        records.append(CoherenceRecord(f_q=f, t1=t1, t1_spread=spread))
    return records


def test_fit_qdiel_noiseless():
    freqs = np.linspace(3.5e9, 4.8e9, 8)
    result = fit_qdiel(_synthetic_records(1e6, freqs))
    assert result.converged
    assert result.params[0] == pytest.approx(1e6, rel=1e-4)
    # noiseless data leaves essentially no residual
    typical_t1 = t1_dielectric(4.0e9, 1e6)
    assert result.residual_norm < 1e-9 * typical_t1 * math.sqrt(len(freqs))


def test_fit_qdiel_noiseless_with_fixed_purcell():
    purcell = PurcellParams(g=TWO_PI * 50e6, f_r=6.0e9, kappa=3.333e6)
    freqs = np.linspace(3.5e9, 4.8e9, 8)
    result = fit_qdiel(_synthetic_records(746e3, freqs, purcell=purcell),
                       purcell=purcell)
    assert result.params[0] == pytest.approx(746e3, rel=1e-4)


def test_fit_qdiel_weight_rescaling_invariance():
    rng = np.random.default_rng(2)
    freqs = np.linspace(3.5e9, 4.8e9, 6)
    records = _synthetic_records(746e3, freqs, spread_frac=0.05, rng=rng)
    scaled = [CoherenceRecord(f_q=r.f_q, t1=r.t1, t1_spread=10.0 * r.t1_spread)
              for r in records]
    a = fit_qdiel(records)
    b = fit_qdiel(scaled)
    # the optimum is scale-free but the stopping point shifts slightly
    assert a.params[0] == pytest.approx(b.params[0], rel=1e-8)
    assert a.std_errors[0] == pytest.approx(b.std_errors[0], rel=1e-6)


def test_fit_qdiel_weighted_vs_uniform_differ():
    """A tight spread on one record must pull the weighted fit toward it."""
    freqs = [3.5e9, 4.8e9]
    t1s = [t1_dielectric(f, q) for f, q in zip(freqs, (700e3, 800e3))]
    uniform = fit_qdiel([CoherenceRecord(f_q=f, t1=t) for f, t in zip(freqs, t1s)])
    pinned = fit_qdiel([
        CoherenceRecord(f_q=freqs[0], t1=t1s[0], t1_spread=t1s[0] * 1e-4),
        CoherenceRecord(f_q=freqs[1], t1=t1s[1], t1_spread=t1s[1] * 0.5),
    ])
    assert pinned.params[0] == pytest.approx(700e3, rel=1e-2)
    assert abs(pinned.params[0] - 700e3) < abs(uniform.params[0] - 700e3)


def test_fit_qdiel_raises_when_the_solver_does_not_converge():
    """Records at the Purcell limit leave no dielectric loss to fit: the
    cost keeps falling as Q_diel grows, so its minimum is the bracket edge."""
    purcell = PurcellParams(g=TWO_PI * 50e6, f_r=6.0e9, kappa=3.333e6)
    records = [CoherenceRecord(f_q=f, t1=t1_purcell(
                   purcell.g, TWO_PI * (f - purcell.f_r), purcell.kappa))
               for f in np.linspace(3.5e9, 4.8e9, 4)]
    largest = max(TWO_PI * r.f_q * r.t1 for r in records)
    with pytest.raises(FitFailureError) as failure:
        fit_qdiel(records, purcell=purcell)
    assert str(failure.value) == (
        "Q_diel fit over 0.1 x the smallest to 1e3 x the largest omega_q*T1: "
        f"least-squares minimum lies at the upper edge of the bracket "
        f"({1e3 * largest:.6g})")


def test_fit_qdiel_rejects_a_purcell_limit_below_every_t1():
    """Records that outlive the Purcell limit fit no Q_diel at all: the
    search is not started."""
    purcell = PurcellParams(g=TWO_PI * 50e6, f_r=6.0e9, kappa=3.333e6)
    records = [CoherenceRecord(f_q=f, t1=1.01 * t1_purcell(
                   purcell.g, TWO_PI * (f - purcell.f_r), purcell.kappa))
               for f in np.linspace(3.5e9, 4.8e9, 4)]
    with pytest.raises(DomainError, match="^purcell limit is below T1 at every "
                                          "record, leaving no dielectric loss to fit$"):
        fit_qdiel(records, purcell=purcell)
    # one record the dielectric loss can explain is enough to fit
    records[0] = records[0]._replace(t1=0.5 * records[0].t1)
    assert fit_qdiel(records, purcell=purcell).params[0] > 0.0


def test_fit_qdiel_intervals_are_calibrated(tmp_path, demo_inputs):
    """The Q_diel fit's +-1 and +-2 sigma intervals cover the truth as stated.

    Seeded coherence tables from the demo generator (12 records with a 5 %
    ``t1_spread`` and the generator's Purcell channel, held fixed in the
    fit) go through the CSV loader as in ``fit-qdiel``. Coverage must match
    Student t's for n - 1 = 11 degrees of freedom within four binomial
    standard deviations.
    """
    seeds = 400
    z_scores = []
    for seed in range(seeds):
        path = demo_inputs.write_coherence(
            tmp_path, np.random.default_rng(seed).standard_normal)
        fit = fit_qdiel(load_coherence_csv(path), purcell=demo_inputs.PURCELL)
        z_scores.append(abs(fit.params[0] - demo_inputs.Q_DIEL) / fit.std_errors[0])
    z_scores = np.array(z_scores)
    for z in (1.0, 2.0):
        nominal = 2.0 * stats.t.cdf(z, df=11) - 1.0
        band = 4.0 * math.sqrt(nominal * (1.0 - nominal) / seeds)
        coverage = float(np.mean(z_scores < z))
        assert abs(coverage - nominal) < band, (z, nominal, coverage)


@pytest.mark.parametrize("spread", [1e-170, 1e-156, 1e160],
                         ids=["square-underflows", "weight-overflows",
                              "square-overflows"])
def test_fit_qdiel_rejects_a_spread_without_a_finite_weight(spread):
    """1/t1_spread^2 weights each record: a spread whose square underflows
    to 0 or whose inverse square overflows cannot weight it, nor can one
    whose square overflows, which would weight it 0."""
    records = [CoherenceRecord(f_q=f, t1=30e-6, t1_spread=s)
               for f, s in ((4e9, 1.5e-6), (4.5e9, spread))]
    with pytest.raises(DomainError, match="^t1_spread must give a finite, "
                                          "positive weight"):
        fit_qdiel(records)


def test_fit_qdiel_requires_two_records():
    with pytest.raises(InsufficientDataError):
        fit_qdiel([CoherenceRecord(f_q=4e9, t1=25e-6)])
