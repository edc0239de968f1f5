"""Tests for the shared numerical kernels.

The least-squares solver is checked against cases with known exact optima
and against a nested grid-search oracle; erfc is checked against the
standard library implementation, which is computed by an unrelated method.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqedkit import (
    DegenerateDataError,
    DomainError,
    FitFailureError,
    InsufficientDataError,
    erfc,
    fit_gaussian_1d,
    least_squares,
    numeric_jacobian,
)
from cqedkit.fitting import EXP_DECAY, LINE


def test_line_exact_points():
    x = np.array([0.0, 1.0, 2.0])
    y = 2.0 * x + 1.0
    result = least_squares(LINE.fn, x, y, init=[0.5, 0.0], jac=LINE.jac)
    assert result.converged
    assert result.params == pytest.approx([2.0, 1.0], abs=1e-10)
    assert result.residual_norm < 1e-10
    # saturated fit: no residual variance to propagate
    assert np.all(result.std_errors == 0.0) or np.all(result.std_errors < 1e-10)


def test_exponential_round_trip():
    x = np.linspace(0.0, 5.0, 40)
    y = EXP_DECAY.fn(x, 3.0, 1.3, 0.2)
    result = least_squares(EXP_DECAY.fn, x, y, init=[2.0, 1.0, 0.0],
                           jac=EXP_DECAY.jac)
    assert result.converged
    assert result.params == pytest.approx([3.0, 1.3, 0.2], rel=1e-3 * 1e-3)


def _grid_search_1d(objective, lo, hi, rounds=6, points=201):
    """Nested 1D grid search, an optimizer-free oracle for the optimum."""
    for _ in range(rounds):
        grid = np.linspace(lo, hi, points)
        values = [objective(c) for c in grid]
        best = int(np.argmin(values))
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, points - 1)]
    return 0.5 * (lo + hi)


def test_matches_grid_search_oracle():
    """Perturbed quadratic data: both optimizers must find the same minimum."""
    x = np.linspace(0.0, 4.0, 21)
    bumps = np.cos(17.0 * x) * 0.05
    y = (x - 1.7) ** 2 + bumps

    def model(x, c):
        return (x - c) ** 2

    result = least_squares(model, x, y, init=[0.4])

    def objective(c):
        r = y - model(x, c)
        return float(np.dot(r, r))

    oracle = _grid_search_1d(objective, 0.5, 3.0)
    assert result.converged
    assert abs(result.params[0] - oracle) < 1e-6


def test_cost_trace_non_increasing():
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 4.0, 60)
    y = EXP_DECAY.fn(x, 2.0, 0.9, 0.1) + 0.02 * rng.standard_normal(x.size)
    result = least_squares(EXP_DECAY.fn, x, y, init=[1.0, 2.0, 0.0],
                           jac=EXP_DECAY.jac)
    trace = np.array(result.cost_trace)
    assert np.all(np.diff(trace) <= 0.0)
    assert trace[0] > trace[-1]


def test_weight_rescaling_invariance():
    rng = np.random.default_rng(11)
    x = np.linspace(0.0, 3.0, 30)
    y = LINE.fn(x, -1.2, 0.7) + 0.05 * rng.standard_normal(x.size)
    w = rng.uniform(0.5, 2.0, x.size)
    a = least_squares(LINE.fn, x, y, init=[0.0, 0.0], weights=w, jac=LINE.jac)
    b = least_squares(LINE.fn, x, y, init=[0.0, 0.0], weights=1000.0 * w,
                      jac=LINE.jac)
    assert a.params == pytest.approx(b.params, rel=1e-12)
    assert a.std_errors == pytest.approx(b.std_errors, rel=1e-9)


def test_iteration_cap_flags_non_convergence():
    x = np.linspace(0.0, 5.0, 50)
    y = EXP_DECAY.fn(x, 3.0, 1.3, 0.2)
    result = least_squares(EXP_DECAY.fn, x, y, init=[0.1, 20.0, 5.0],
                           jac=EXP_DECAY.jac, max_iterations=2)
    assert not result.converged
    assert result.iterations == 2


def test_insufficient_points():
    with pytest.raises(InsufficientDataError):
        least_squares(EXP_DECAY.fn, [1.0, 2.0], [1.0, 2.0], init=[1.0, 1.0, 0.0])


def test_non_finite_init_rejected():
    with pytest.raises(FitFailureError):
        least_squares(LINE.fn, [0.0, 1.0, 2.0], [0.0, 1.0, 2.0],
                      init=[math.nan, 0.0])


def test_rank_deficient_model_fails():
    """A parameter the model never uses leaves the normal matrix singular."""

    def model(x, a, b):
        return a * np.asarray(x, dtype=float)

    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 1.0, 20)
    y = 2.0 * x + 0.01 * rng.standard_normal(x.size)
    with pytest.raises(FitFailureError):
        least_squares(model, x, y, init=[1.0, 1.0])


def test_bad_weights_rejected():
    x = np.array([0.0, 1.0, 2.0])
    with pytest.raises(DomainError):
        least_squares(LINE.fn, x, x, init=[1.0, 0.0], weights=[1.0, 1.0])
    with pytest.raises(DomainError):
        least_squares(LINE.fn, x, x, init=[1.0, 0.0], weights=[0.0, 0.0, 0.0])


@pytest.mark.parametrize("model", [LINE, EXP_DECAY], ids=lambda m: m.name)
def test_analytic_jacobians_match_central_differences(model):
    x = np.linspace(0.1, 4.0, 25)
    theta = np.array([1.7, 0.8, 0.3][: model.n_params])
    analytic = np.asarray(model.jac(x, *theta), dtype=float)
    numeric = numeric_jacobian(model.fn, x, theta)
    scale = max(1.0, float(np.max(np.abs(analytic))))
    assert float(np.max(np.abs(analytic - numeric))) / scale <= 1e-6


def test_gaussian_estimate_standard_normal():
    rng = np.random.default_rng(0)
    est = fit_gaussian_1d(rng.standard_normal(10_000))
    assert abs(est.mean) < 0.02
    assert abs(est.sigma - 1.0) < 0.015
    assert est.mean_err == pytest.approx(est.sigma / 100.0, rel=1e-12)
    assert est.sigma_err == pytest.approx(est.sigma / math.sqrt(2e4), rel=1e-12)


@given(a=st.floats(min_value=-50.0, max_value=50.0).filter(lambda v: abs(v) >= 0.01),
       b=st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=50)
def test_gaussian_affine_equivariance(a, b):
    rng = np.random.default_rng(42)
    samples = rng.standard_normal(500)
    base = fit_gaussian_1d(samples)
    mapped = fit_gaussian_1d(a * samples + b)
    assert mapped.mean == pytest.approx(a * base.mean + b,
                                        abs=1e-12 * (1.0 + abs(a) + abs(b)))
    assert mapped.sigma == pytest.approx(abs(a) * base.sigma,
                                         abs=1e-12 * (1.0 + abs(a)))


def test_gaussian_insufficient_and_degenerate():
    with pytest.raises(InsufficientDataError):
        fit_gaussian_1d(np.zeros(99))
    with pytest.raises(DegenerateDataError):
        fit_gaussian_1d(np.full(200, 3.5))


def test_erfc_matches_stdlib_on_grid():
    for x in np.linspace(0.0, 6.0, 61):
        assert abs(erfc(float(x)) - math.erfc(float(x))) <= 1e-7


def test_erfc_frozen_point():
    assert erfc(2.5) == pytest.approx(4.0695e-4, abs=1e-7)
    assert erfc(0.0) == 1.0


def test_erfc_reflection_identity():
    for x in (0.5, 1.0, 2.0):
        assert abs(erfc(-x) - (2.0 - erfc(x))) <= 1e-7


@given(st.floats(min_value=-6.0, max_value=6.0))
def test_erfc_reflection_everywhere(x):
    assert abs(erfc(x) + erfc(-x) - 2.0) <= 2e-7
    assert 0.0 <= erfc(x) <= 2.0


def test_erfc_strictly_decreasing():
    # below about -5 the value saturates at 2.0 in double precision
    grid = np.linspace(-5.0, 6.0, 111)
    values = [erfc(float(x)) for x in grid]
    assert all(b < a for a, b in zip(values, values[1:]))


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_erfc_is_stdlib_for_finite_arguments(x):
    assert erfc(x) == math.erfc(x)


def test_erfc_rejects_non_finite():
    with pytest.raises(DomainError):
        erfc(math.inf)
    with pytest.raises(DomainError):
        erfc(math.nan)
