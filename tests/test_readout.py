"""Tests for closed-form SNR, IQ shot simulation and histogram analysis."""

import hashlib
import math
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cqedkit import (
    DegenerateDataError,
    DomainError,
    InsufficientDataError,
    ReadoutConfig,
    ShotSet,
    calibrate_epsilon,
    cavity_response,
    dispersive_phase,
    histogram_fit,
    integrated_signal,
    noise_sigma,
    separation_fidelity,
    simulate_shots,
    snr_asymptotic,
    snr_monte_carlo,
    snr_sweep,
    stream_shots,
)
from cqedkit import cli, cli_numeric, readout
from cqedkit.config import parse_config
from cqedkit.dataio import write_shots_csv

from conftest import shot_blocks

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "demo.cfg"

KAPPA = 1.0 / 300e-9
CHI = math.pi * 930e3          # half of the 930 kHz full shift, angular
TAU_REF = 700e-9
EPSILON = calibrate_epsilon(5.0, KAPPA, CHI, TAU_REF)


def _config(**overrides):
    values = dict(epsilon=EPSILON, kappa=KAPPA, chi=CHI, tau_m=TAU_REF,
                  n_shots=10_000, seed=0)
    values.update(overrides)
    return ReadoutConfig(**values)


def test_calibrated_snr_is_five():
    assert snr_asymptotic(_config()) == pytest.approx(5.0, rel=1e-12)
    # the calibrated amplitude itself is stable against refactors
    assert EPSILON == pytest.approx(4.4815e6, rel=1e-4)
    # a drive near 4.49e6 rad/s lands on the same marker within rounding
    rounded = _config(epsilon=4.4855e6)
    assert snr_asymptotic(rounded) == pytest.approx(5.0, rel=2e-3)


def test_snr_sqrt_time_scaling():
    base = snr_asymptotic(_config())
    assert snr_asymptotic(_config(tau_m=4.0 * TAU_REF)) == 2.0 * base
    assert snr_asymptotic(_config(epsilon=0.0)) == 0.0


@given(eps=st.floats(min_value=1e5, max_value=1e8),
       kappa=st.floats(min_value=1e5, max_value=1e8),
       chi=st.floats(min_value=1e4, max_value=1e8),
       tau=st.floats(min_value=1e-8, max_value=1e-4))
@settings(max_examples=100)
def test_snr_quadruple_tau_doubles(eps, kappa, chi, tau):
    cfg = ReadoutConfig(epsilon=eps, kappa=kappa, chi=chi, tau_m=tau)
    quad = ReadoutConfig(epsilon=eps, kappa=kappa, chi=chi, tau_m=4.0 * tau)
    assert snr_asymptotic(quad) == pytest.approx(2.0 * snr_asymptotic(cfg),
                                                 rel=1e-12)


def test_snr_maximized_at_half_kappa():
    """Brute-force grid: |sin 2 phi| peaks where chi equals kappa/2."""
    ratios = np.logspace(math.log10(0.05), math.log10(5.0), 301)
    snrs = [snr_asymptotic(_config(chi=r * KAPPA)) for r in ratios]
    best = int(np.argmax(snrs))
    half = int(np.argmin(np.abs(ratios - 0.5)))
    assert abs(best - half) <= 1


def test_calibrate_epsilon_rejects_zero_signal():
    with pytest.raises(DomainError):
        calibrate_epsilon(5.0, KAPPA, 0.0, TAU_REF)
    with pytest.raises(DomainError):
        calibrate_epsilon(-1.0, KAPPA, CHI, TAU_REF)


def test_cavity_response_limits():
    cfg = _config()
    assert cavity_response("g", cfg, 0.0) == 0.0
    # 80 cavity lifetimes in, the transient remnant is below double precision
    late = cavity_response("e", cfg, 80.0 / KAPPA)
    expected_mag = cfg.epsilon / math.hypot(0.5 * cfg.kappa, cfg.chi)
    assert abs(late) == pytest.approx(expected_mag, rel=1e-12)
    phi = dispersive_phase(cfg.chi, cfg.kappa)
    assert math.atan2(late.imag, late.real) == pytest.approx(-phi, abs=1e-9)
    early = cavity_response("g", cfg, 80.0 / KAPPA)
    assert math.atan2(early.imag, early.real) == pytest.approx(phi, abs=1e-9)


def test_cavity_response_chi_zero_states_identical():
    cfg = _config(chi=0.0)
    t = np.linspace(0.0, 2e-6, 11)
    assert np.array_equal(cavity_response("g", cfg, t),
                          cavity_response("e", cfg, t))


def test_cavity_response_domain():
    cfg = _config()
    with pytest.raises(DomainError):
        cavity_response("g", cfg, -1e-9)
    with pytest.raises(DomainError):
        cavity_response("x", cfg, 0.0)


def test_integrated_signal_matches_quadrature():
    """The ring-up integral agrees with a dense trapezoid of the response."""
    cfg = _config(transient=True)
    t = np.linspace(0.0, cfg.tau_m, 20_001)
    for state in ("g", "e"):
        trace = cavity_response(state, cfg, t)
        numeric = np.trapezoid(trace, t)
        assert integrated_signal(state, cfg) == pytest.approx(numeric,
                                                              rel=1e-8)


def test_integrated_signal_steady_branch():
    cfg = _config(transient=False)
    for state in ("g", "e"):
        steady = cavity_response(state, cfg, 1e3 / KAPPA)
        assert integrated_signal(state, cfg) == pytest.approx(
            steady * cfg.tau_m, rel=1e-9)


def test_noise_sigma_reproduces_closed_form():
    """Steady-state separation over sigma equals the closed-form SNR."""
    for tau in (100e-9, TAU_REF, 5e-6):
        cfg = _config(tau_m=tau)
        sep = abs(integrated_signal("e", cfg) - integrated_signal("g", cfg))
        assert sep / noise_sigma(cfg) == pytest.approx(snr_asymptotic(cfg),
                                                       rel=1e-12)
        assert noise_sigma(cfg) == pytest.approx(
            math.sqrt(tau / (2.0 * KAPPA)), rel=1e-15)


def test_simulate_shots_deterministic():
    a = simulate_shots(_config())
    b = simulate_shots(_config())
    assert np.array_equal(a.i_ground, b.i_ground)
    assert np.array_equal(a.q_excited, b.q_excited)
    c = simulate_shots(_config(seed=1))
    assert not np.array_equal(a.i_ground, c.i_ground)


def test_simulate_shots_partition_independent():
    base = simulate_shots(_config(n_shots=4097), partitions=1)
    for partitions in (2, 3, 8):
        split = simulate_shots(_config(n_shots=4097), partitions=partitions)
        assert np.array_equal(base.i_ground, split.i_ground)
        assert np.array_equal(base.q_ground, split.q_ground)
        assert np.array_equal(base.i_excited, split.i_excited)
        assert np.array_equal(base.q_excited, split.q_excited)


def _patch_blocks(monkeypatch, wrapper):
    """Route every block loop through ``wrapper(blocks, config, jobs)``,
    where ``blocks`` is the original generator."""
    blocks = readout._normal_blocks
    monkeypatch.setattr(readout, "_normal_blocks",
                        lambda config, jobs: wrapper(blocks, config, jobs))


def _shot_bytes(cfg, partitions):
    shots = simulate_shots(cfg, partitions=partitions)
    return [getattr(shots, name).tobytes()
            for name in ("i_ground", "q_ground", "i_excited", "q_excited")]


def _snr_hex(cfg, partitions):
    # the moment fit of simulate-readout; snr_monte_carlo draws no blocks
    return readout._moment_fit(cfg, partitions)[0].hex()


def _check_default_partitions_match_serial(monkeypatch, run):
    """130 jobs make two default workers (at most one per core); the result
    is the one drawn on one thread, bit for bit."""
    cfg = _config(n_shots=64 * 4096 + 1)    # 65 blocks per state, 130 jobs
    threads = []

    def recording(blocks, config, jobs):
        threads.append(threading.get_ident())
        yield from blocks(config, jobs)

    _patch_blocks(monkeypatch, recording)
    threaded = run(cfg, None)
    assert len(set(threads)) == min(readout._available_cores(), 2)
    assert threaded == run(cfg, 1)


def _check_reraises_failure_in_other_thread(monkeypatch, run):
    def failing(blocks, config, jobs):
        if jobs[0] != (0, 0, readout.SHOT_BLOCK):    # not the first chunk
            raise RuntimeError("stream failed")
        yield from blocks(config, jobs)

    _patch_blocks(monkeypatch, failing)
    with pytest.raises(RuntimeError, match="stream failed"):
        run(_config(n_shots=4097), 2)


def test_simulate_shots_default_partitions_match_serial(monkeypatch):
    _check_default_partitions_match_serial(monkeypatch, _shot_bytes)


def test_snr_monte_carlo_default_partitions_match_serial(monkeypatch):
    _check_default_partitions_match_serial(monkeypatch, _snr_hex)


def test_simulate_shots_reraises_failure_in_other_thread(monkeypatch):
    _check_reraises_failure_in_other_thread(monkeypatch, _shot_bytes)


def test_snr_monte_carlo_reraises_failure_in_other_thread(monkeypatch):
    _check_reraises_failure_in_other_thread(monkeypatch, _snr_hex)


def test_simulate_shots_shapes_and_sigma():
    cfg = _config(n_shots=5_000)
    shots = simulate_shots(cfg)
    assert len(shots.i_ground) == 5_000
    assert len(shots.q_excited) == 5_000
    # 5000 shots per quadrature: the sample width is within 1 % (1 sigma)
    assert np.std(shots.i_ground) == pytest.approx(noise_sigma(cfg), rel=0.05)
    with pytest.raises(DomainError):
        simulate_shots(cfg, partitions=0)
    with pytest.raises(DomainError):
        ReadoutConfig(epsilon=EPSILON, kappa=KAPPA, chi=CHI, tau_m=TAU_REF,
                      n_shots=1)


def test_shot_set_length_validation():
    with pytest.raises(DomainError):
        ShotSet(i_ground=np.zeros(3), q_ground=np.zeros(3),
                i_excited=np.zeros(4), q_excited=np.zeros(4))


def test_histogram_fit_calibrated_point():
    fit = histogram_fit(simulate_shots(_config()))
    assert fit.snr == pytest.approx(5.0, abs=0.15)


def test_histogram_fit_synthetic_clouds():
    rng = np.random.default_rng(0)
    n = 10_000
    angle = 0.3
    shots = ShotSet(
        i_ground=rng.standard_normal(n),
        q_ground=rng.standard_normal(n),
        i_excited=rng.standard_normal(n) + 5.0 * math.cos(angle),
        q_excited=rng.standard_normal(n) + 5.0 * math.sin(angle))
    assert histogram_fit(shots).snr == pytest.approx(5.0, abs=0.07)


def test_histogram_fit_rotation_invariance():
    shots = simulate_shots(_config())
    reference = histogram_fit(shots).snr
    for k in range(1, 9):
        angle = k * math.pi / 4.0
        c, s = math.cos(angle), math.sin(angle)
        rotated = ShotSet(
            i_ground=c * shots.i_ground - s * shots.q_ground,
            q_ground=s * shots.i_ground + c * shots.q_ground,
            i_excited=c * shots.i_excited - s * shots.q_excited,
            q_excited=s * shots.i_excited + c * shots.q_excited)
        assert histogram_fit(rotated).snr == pytest.approx(reference,
                                                           rel=1e-3)


def test_histogram_fit_no_signal():
    fit = histogram_fit(simulate_shots(_config(epsilon=0.0)))
    assert fit.snr < 0.05


def test_histogram_fit_identical_clouds():
    rng = np.random.default_rng(4)
    i = rng.standard_normal(500)
    q = rng.standard_normal(500)
    fit = histogram_fit(ShotSet(i_ground=i, q_ground=q, i_excited=i.copy(),
                                q_excited=q.copy()))
    assert fit.snr == 0.0


def test_histogram_fit_errors():
    rng = np.random.default_rng(4)
    small = ShotSet(i_ground=rng.standard_normal(50),
                    q_ground=rng.standard_normal(50),
                    i_excited=rng.standard_normal(50),
                    q_excited=rng.standard_normal(50))
    with pytest.raises(InsufficientDataError):
        histogram_fit(small)
    constant = ShotSet(i_ground=np.zeros(200), q_ground=np.zeros(200),
                       i_excited=np.ones(200), q_excited=np.zeros(200))
    with pytest.raises(DegenerateDataError):
        histogram_fit(constant)


# The library draws at 3 * 4096 + 1 shots per state and seed 0, recorded with
# numpy 2.4.6: sha256 of simulate_shots' four arrays, _moment_fit's SNR and
# width at partitions 1 and 2, sha256 of stream_shots' (state, block)
# bytes, and snr_monte_carlo's sampled SNR (chisquare and standard_normal).
# The golden corpus runs only the CLI, which never calls simulate_shots;
# these pin the library paths bit for bit.
BIT_PIN_NUMPY = "2.4.6"
BIT_PINS = {
    False: ("c4f05162f50ad49be74d39f7bd0f0ffd6fdd45a44f60c9770ac34b79c90607d8",
            ["0x1.412cfaceffd73p+2", "0x1.5aaf05a2a8a8fp-22"],
            "a45e22480d9e05bc07ef2fe5a04f11e6b803f9d5962de898813cea34a33f4145",
            "0x1.3f2521dddfcadp+2"),
    True: ("13e7fccebd6a417f0c869bc56862344ef40236edd66be8c8c0ca81306a5771a7",
           ["0x1.21471f6f2855bp+1", "0x1.5aafec958321cp-22"],
           "d65f2256dadbcdfa48d23ebca02993dc71b9ce5c745bee00f5d8aa371b0ae59d",
           "0x1.1f45c7ea6ea7fp+1"),
}


@pytest.mark.parametrize("transient", [False, True])
def test_library_draws_match_bit_pins(transient):
    cfg = _config(n_shots=3 * 4096 + 1, transient=transient)
    arrays_sha, fit_hex, stream_sha, sampled_hex = BIT_PINS[transient]
    drift = (f"drifted from the pin (recorded with numpy {BIT_PIN_NUMPY}, "
             f"running numpy {np.__version__})")
    shots = simulate_shots(cfg)
    digest = hashlib.sha256()
    for name in ("i_ground", "q_ground", "i_excited", "q_excited"):
        digest.update(getattr(shots, name).tobytes())
    assert digest.hexdigest() == arrays_sha, f"simulate_shots {drift}"
    for partitions in (1, 2):
        fit = readout._moment_fit(cfg, partitions=partitions)
        assert [value.hex() for value in fit] == fit_hex, f"_moment_fit {drift}"
    digest = hashlib.sha256()
    for state, block in stream_shots(cfg)[1]:
        digest.update(state.encode())
        digest.update(block.tobytes())
    assert digest.hexdigest() == stream_sha, f"stream_shots {drift}"
    assert snr_monte_carlo(cfg).hex() == sampled_hex, f"snr_monte_carlo {drift}"


def test_snr_monte_carlo_partition_independent():
    """The moment fit (SNR and pooled width) is bitwise the same whether its
    8 jobs run on 1, 2, 3 (chunks of 3, 3, 2) or 7 threads."""
    cfg = _config(n_shots=3 * 4096 + 1)
    base = [value.hex() for value in readout._moment_fit(cfg, partitions=1)]
    for partitions in (2, 3, 7):
        fit = readout._moment_fit(cfg, partitions=partitions)
        assert [value.hex() for value in fit] == base


@pytest.mark.parametrize("transient", [False, True])
def test_moment_fit_matches_histogram_fit(transient):
    """The moment path of simulate-readout reproduces the array path to
    rounding, and so the .9g SNR it reports, over 100 seeds and three sizes."""
    for seed in range(100):
        cfg = _config(n_shots=(100, 4097, 10_000)[seed % 3], seed=seed,
                      tau_m=TAU_REF * (1 + seed % 5), transient=transient)
        expected = histogram_fit(simulate_shots(cfg)).snr
        actual = readout._moment_fit(cfg)[0]
        assert actual == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert f"{actual:.9g}" == f"{expected:.9g}"


def _variance_error(x):
    """Squared standard error of a sample variance, (m4 - m2^2) / n."""
    d = x - x.mean()
    return ((d**4).mean() - (d**2).mean() ** 2) / len(x)


@pytest.mark.parametrize("n_shots, transient", [
    (100, False), (100, True), (4097, False), (10_000, False)])
def test_snr_monte_carlo_matches_shot_path_in_distribution(n_shots, transient):
    """The sampled SNR has the distribution of the SNR fitted to drawn
    shots: over 2000 seeds each, from disjoint ranges, a two-sample KS test
    does not reject at p < 0.001, and the means and the variances agree
    within 4 standard errors. About 6 s on a 2-core VM, all four cases."""
    def snrs(fit, seeds):
        return np.array([fit(_config(n_shots=n_shots, seed=seed,
                                     transient=transient)) for seed in seeds])

    sampled = snrs(snr_monte_carlo, range(2000))
    drawn = snrs(lambda cfg: readout._moment_fit(cfg)[0], range(2000, 4000))
    assert stats.ks_2samp(sampled, drawn).pvalue >= 1e-3
    mean_error = math.sqrt((sampled.var() + drawn.var()) / 2000)
    assert abs(sampled.mean() - drawn.mean()) < 4 * mean_error
    variance_error = math.sqrt(_variance_error(sampled) + _variance_error(drawn))
    assert abs(sampled.var() - drawn.var()) < 4 * variance_error


def test_snr_monte_carlo_samples_the_exact_moment_laws(monkeypatch):
    """Over 10 000 seeds at n = 100, each state's centroid is signal +
    sigma*z with z ~ N(0, I/n), and its covariance sigma^2*C with
    E[C] = I, var(C_11) = var(C_22) = 2/(n - 1) and var(C_12) = 1/(n - 1),
    the laws of Gaussian shots' sample moments, within 4 standard errors.
    A bias of order 1/n, which the SNR gate above cannot see, shows here."""
    moments = []
    monkeypatch.setattr(readout, "_snr_from_moments",
                        lambda centroids, covariances:
                        moments.append((centroids, covariances)) or (1.0, 1.0))
    n = 100
    sigma, signals = readout._shot_map(_config(n_shots=n))
    for seed in range(10_000):
        snr_monte_carlo(_config(n_shots=n, seed=seed))
    z = np.array([c for c, _ in moments]) - signals[..., 0]
    cov = np.array([v for _, v in moments]) / sigma**2
    draws = {"z_i": (z[..., 0] / sigma, 0.0, 1 / n),
             "z_q": (z[..., 1] / sigma, 0.0, 1 / n),
             "c_11": (cov[..., 0, 0], 1.0, 2 / (n - 1)),
             "c_22": (cov[..., 1, 1], 1.0, 2 / (n - 1)),
             "c_12": (cov[..., 0, 1], 0.0, 1 / (n - 1))}
    for name, (x, mean, variance) in draws.items():
        x = x.ravel()
        assert abs(x.mean() - mean) < 4 * math.sqrt(variance / len(x)), name
        assert abs(x.var() - variance) < 4 * math.sqrt(_variance_error(x)), name


def test_snr_monte_carlo_identical_clouds(monkeypatch):
    """Coinciding centroids give zero separation, along a fixed axis: in the
    SNR core directly, and for both states drawn from one stream."""
    covariances = np.array([np.eye(2), 2.0 * np.eye(2)])
    assert readout._snr_from_moments(np.ones((2, 2)), covariances) \
        == (0.0, math.sqrt(1.5))
    draw = readout._draw_block
    monkeypatch.setattr(readout, "_draw_block",
                        lambda config, state_index, index, out:
                        draw(config, 0, index, out))
    assert histogram_fit(simulate_shots(_config(chi=0.0, n_shots=500))).snr == 0.0


def test_snr_monte_carlo_errors():
    with pytest.raises(InsufficientDataError, match="at least 100 shots"):
        snr_monte_carlo(_config(n_shots=99))
    # tau_m this small makes the noise width underflow to zero
    flat = _config(tau_m=5e-324, n_shots=200)
    assert noise_sigma(flat) == 0.0
    with pytest.raises(DegenerateDataError):
        snr_monte_carlo(flat)
    with pytest.raises(DegenerateDataError):
        histogram_fit(simulate_shots(flat))
    # the integrated signal overflows to inf
    with pytest.raises(DomainError, match="centroids must be finite"):
        snr_monte_carlo(_config(epsilon=1e308, tau_m=1e10, n_shots=200))


def test_snr_sweep_memory_does_not_grow_with_shots():
    """3e5 shots per state would take 9.6 MB as clouds; the sampled
    moments hold no shot at all."""
    tracemalloc.start()
    try:
        snr_sweep(_config(n_shots=300_000), [175e-9, 700e-9])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def _array_shots_csv(cfg, path):
    """The array path: fit the clouds, divide them by the pooled width and
    write them; returns the fitted SNR."""
    shots = simulate_shots(cfg)
    fit = histogram_fit(shots)
    write_shots_csv(path, shot_blocks(ShotSet(
        i_ground=shots.i_ground / fit.sigma, q_ground=shots.q_ground / fit.sigma,
        i_excited=shots.i_excited / fit.sigma,
        q_excited=shots.q_excited / fit.sigma)))
    return fit.snr


def _within_ninth_digit(a: str, b: str) -> bool:
    """Two .9g numbers equal, or one unit of the ninth significant digit apart."""
    x, y = float(a), float(b)
    if x == y:
        return True
    unit = 10.0 ** (math.floor(math.log10(max(abs(x), abs(y)))) - 8)
    return abs(x - y) <= unit * (1.0 + 1e-9)


def test_stream_shots_matches_array_path_at_golden_seed(tmp_path, capsys):
    """simulate-readout on the demo config at the golden seed writes the
    shots.csv and snr_mc of the array path, byte for byte."""
    config = parse_config(DEMO_CONFIG)
    config.seed = 7
    snr = _array_shots_csv(cli_numeric._build_readout(config),
                           tmp_path / "array.csv")
    out = tmp_path / "out"
    assert cli.main(["simulate-readout", "--config", str(DEMO_CONFIG),
                     "--seed", "7", "--out", str(out)]) == 0
    assert (out / "shots.csv").read_bytes() == (tmp_path / "array.csv").read_bytes()
    summary = (out / "readout_summary.csv").read_text().splitlines()
    assert summary[1].split(",")[1] == f"{snr:.9g}"


@pytest.mark.parametrize("n_shots", [100, 4097, 10_000])
def test_stream_shots_matches_array_path(n_shots, tmp_path):
    """Over seeds 0-9 every streamed cell, and the SNR, is within one unit of
    the ninth significant digit of the array path's."""
    for seed in range(10):
        cfg = _config(n_shots=n_shots, seed=seed, transient=seed % 2 == 1)
        expected_snr = _array_shots_csv(cfg, tmp_path / "array.csv")
        snr, blocks = stream_shots(cfg)
        write_shots_csv(tmp_path / "stream.csv", blocks)
        assert _within_ninth_digit(f"{snr:.9g}", f"{expected_snr:.9g}")
        expected = (tmp_path / "array.csv").read_text().splitlines()
        actual = (tmp_path / "stream.csv").read_text().splitlines()
        assert len(actual) == len(expected) == 2 * n_shots + 1
        for line, reference in zip(actual, expected):
            if line != reference:
                state, *cells = line.split(",")
                ref_state, *ref_cells = reference.split(",")
                assert state == ref_state
                assert all(map(_within_ninth_digit, cells, ref_cells)), (
                    seed, line, reference)


def test_stream_shots_fits_before_drawing():
    """The moment fit raises when stream_shots is called, before a block is
    taken, so the command that calls it fails before writing."""
    with pytest.raises(InsufficientDataError):
        stream_shots(_config(n_shots=99))
    snr, blocks = stream_shots(_config(n_shots=4097))
    assert snr == readout._moment_fit(_config(n_shots=4097))[0]
    counts = [(state, block.shape) for state, block in blocks]
    assert counts == [("g", (2, 4096)), ("g", (2, 1)),
                      ("e", (2, 4096)), ("e", (2, 1))]


def test_simulate_readout_memory_does_not_grow_with_shots(tmp_path, capsys):
    """2e5 shots per state would take 12 MB as clouds, projections and the
    normalized copy; the two streamed passes hold one block each."""
    # a demo-size run first, so lazy imports and set-up are not counted
    assert cli.main(["simulate-readout", "--config", str(DEMO_CONFIG),
                     "--out", str(tmp_path / "warm")]) == 0
    path = tmp_path / "big.cfg"
    path.write_text(DEMO_CONFIG.read_text().replace(
        "n_shots = 10000", "n_shots = 200000"))
    argv = ["simulate-readout", "--config", str(path), "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "shots.csv").read_bytes().splitlines()) == 400_001
    assert peak < 2e6


def test_separation_fidelity_landmarks():
    assert separation_fidelity(5.0) == pytest.approx(0.99959, abs=1e-5)
    assert separation_fidelity(5.0) > 0.999
    assert separation_fidelity(0.0) == 0.0
    assert separation_fidelity(40.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        separation_fidelity(-0.1)


@given(lo=st.floats(min_value=0.0, max_value=8.0),
       gap=st.floats(min_value=1e-3, max_value=4.0))
@settings(max_examples=100)
def test_separation_fidelity_strictly_increasing(lo, gap):
    assert separation_fidelity(lo + gap) > separation_fidelity(lo)


def test_derive_seed_deterministic_and_distinct():
    derive_seed = readout._derive_seed
    assert derive_seed(7, 3) == derive_seed(7, 3)
    assert derive_seed(7, 3) != derive_seed(7, 4)
    assert derive_seed(7, 3) != derive_seed(8, 3)
    assert 0 <= derive_seed(0, 0) < 2**64


def test_snr_sweep_calibrated_rows():
    taus = [175e-9, 700e-9, 2800e-9]
    points = snr_sweep(_config(), taus)
    closed = [p.snr_closed_form for p in points]
    assert closed == pytest.approx([2.5, 5.0, 10.0], rel=1e-9)
    for point in points:
        assert point.fidelity == separation_fidelity(point.snr_closed_form)
        assert point.snr_monte_carlo == pytest.approx(point.snr_closed_form,
                                                      rel=0.05)
    # repeatable point-wise sub-seeding
    again = snr_sweep(_config(), taus)
    assert [p.snr_monte_carlo for p in again] \
        == [p.snr_monte_carlo for p in points]


def test_snr_sweep_domain():
    with pytest.raises(DomainError):
        snr_sweep(_config(), [])
    with pytest.raises(DomainError):
        snr_sweep(_config(), [700e-9, 0.0])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["epsilon", "kappa", "chi", "tau_m"])
def test_readout_config_rejects_non_finite(field, value):
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        _config(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("n_shots", 10000.0), ("n_shots", "10000"), ("n_shots", True),
    ("n_shots", np.float64(500.0)), ("seed", 1.5), ("seed", 1.0),
    ("seed", None), ("seed", False)])
def test_readout_config_rejects_non_integer(field, value):
    with pytest.raises(DomainError, match=f"{field} must be an integer"):
        _config(**{field: value})


@pytest.mark.parametrize("to_int", [int, np.int64, np.uint64, np.int32])
def test_readout_config_accepts_numpy_integers(to_int):
    cfg = _config(n_shots=to_int(500), seed=to_int(5))
    assert type(cfg.n_shots) is int and type(cfg.seed) is int
    assert snr_monte_carlo(cfg) == snr_monte_carlo(_config(n_shots=500, seed=5))
    # a narrow type whose block arithmetic would overflow
    assert _config(n_shots=np.uint8(200)).n_shots == 200


def test_snr_sweep_rejects_nan_tau():
    with pytest.raises(DomainError, match="^tau_values must be finite$"):
        snr_sweep(_config(), [700e-9, math.nan])


def test_transient_matches_finite_time_prediction():
    """Monte-Carlo shots with ring-up enabled follow the exact finite-time
    separation, which sits below the long-time closed form."""
    for ktau in (10.0, 24.0):
        cfg = _config(tau_m=ktau / KAPPA, n_shots=100_000, seed=3,
                      transient=True)
        predicted = abs(integrated_signal("e", cfg)
                        - integrated_signal("g", cfg)) / noise_sigma(cfg)
        fitted = histogram_fit(simulate_shots(cfg)).snr
        assert fitted == pytest.approx(predicted, rel=0.01)
        assert predicted < snr_asymptotic(cfg)


def test_transient_converges_to_closed_form():
    """The ring-up deficit shrinks as kappa*tau grows; by 24 decay times it
    is inside 5% and keeps shrinking."""
    deficits = []
    for ktau in (24.0, 40.0):
        cfg = _config(tau_m=ktau / KAPPA, n_shots=100_000, seed=3,
                      transient=True)
        fitted = histogram_fit(simulate_shots(cfg)).snr
        closed = snr_asymptotic(cfg)
        deficits.append(abs(fitted - closed) / closed)
        assert deficits[-1] < 0.05
    assert deficits[1] < deficits[0]
