"""Tests for the shared numerical kernels.

The one-parameter least-squares solver is checked against cases with
known exact optima, a closed-form linear fit and a nested grid-search
oracle; erfc is checked against the standard library implementation,
which is computed by an unrelated method.
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
)
from cqedkit.fitting import exp_decay_jac


def exp_decay(x, amp, rate, offset):
    """The ring-down model that ``exp_decay_jac`` differentiates."""
    return amp * np.exp(-rate * np.asarray(x, dtype=float)) + offset


def line(x, a, b):
    return a * np.asarray(x, dtype=float) + b


def line_jac(x, a, b):
    x = np.asarray(x, dtype=float)
    return np.column_stack([x, np.ones_like(x)])


def through_origin(x, a):
    """The line a * x and its derivative in a."""
    x = np.asarray(x, dtype=float)
    return a * x, x


def test_line_exact_points():
    x = np.array([0.0, 1.0, 2.0])
    y = 2.0 * x
    result = least_squares(through_origin, x, y, (0.1, 10.0))
    assert result.converged
    assert result.params == pytest.approx([2.0], abs=1e-10)
    assert result.residual_norm < 1e-10
    # exact data: no residual variance to propagate
    assert max(result.std_errors) < 1e-10


def test_linear_model_lands_on_the_closed_form_optimum():
    """For a model linear in p the optimum and its error are closed-form."""
    rng = np.random.default_rng(4)
    x = np.linspace(0.5, 3.0, 30)
    y = 1.2 * x + 0.05 * rng.standard_normal(x.size)
    result = least_squares(through_origin, x, y, (0.1, 10.0))
    best = np.dot(x, y) / np.dot(x, x)
    cost = float(np.sum((y - best * x) ** 2))
    assert result.params[0] == pytest.approx(best, rel=4 * np.finfo(float).eps)
    assert result.residual_norm == pytest.approx(math.sqrt(cost), rel=1e-12)
    assert result.std_errors[0] == pytest.approx(
        math.sqrt(cost / (x.size - 1) / np.dot(x, x)), rel=1e-12)


def test_exponential_round_trip():
    """Variable projection: the amplitude is solved for each trial rate and
    held fixed in the model's derivative, which is still the cost's."""
    x = np.linspace(0.0, 5.0, 40)
    y = exp_decay(x, 3.0, 1.3, 0.0)

    def model(x, rate):
        decay = np.exp(-rate * x)
        amp = np.sum(decay * y, axis=-1, keepdims=True) / np.sum(
            decay * decay, axis=-1, keepdims=True)
        return amp * decay, -amp * x * decay

    result = least_squares(model, x, y, (0.01, 100.0))
    assert result.converged
    assert result.params[0] == pytest.approx(1.3, rel=1e-12)
    assert model(x, result.params[0])[0] == pytest.approx(y, abs=1e-12)


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
        return (x - c) ** 2, -2.0 * (x - c)

    result = least_squares(model, x, y, (0.1, 10.0))

    def objective(c):
        r = y - model(x, c)[0]
        return float(np.dot(r, r))

    oracle = _grid_search_1d(objective, 0.5, 3.0)
    assert result.converged
    assert abs(result.params[0] - oracle) < 1e-6


def test_weight_rescaling_invariance():
    rng = np.random.default_rng(11)
    x = np.linspace(0.0, 3.0, 30)
    y = 1.2 * x + 0.05 * rng.standard_normal(x.size)
    w = rng.uniform(0.5, 2.0, x.size)
    a = least_squares(through_origin, x, y, (0.1, 10.0), weights=w)
    b = least_squares(through_origin, x, y, (0.1, 10.0), weights=1000.0 * w)
    assert a.params == pytest.approx(b.params, rel=1e-12)
    assert a.std_errors == pytest.approx(b.std_errors, rel=1e-9)


def test_minimum_at_the_bracket_edge_fails():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(FitFailureError, match="edge of the bracket"):
        least_squares(through_origin, x, 2.0 * x, (3.0, 10.0))
    with pytest.raises(FitFailureError, match="edge of the bracket"):
        least_squares(through_origin, x, 2.0 * x, (0.1, 1.0))


def test_non_finite_cost_fails():
    def model(x, a):
        """Not a number for a < 1, the low part of the bracket."""
        return np.log(a - 1.0) * x, x / (a - 1.0)

    x = np.array([0.0, 1.0, 2.0])
    with pytest.raises(FitFailureError, match="not finite"), \
            np.errstate(invalid="ignore", divide="ignore"):
        least_squares(model, x, x, (0.1, 10.0))


def test_insufficient_points():
    with pytest.raises(InsufficientDataError):
        least_squares(through_origin, [], [], (0.1, 10.0))


@pytest.mark.parametrize("bracket", [(0.0, 1.0), (2.0, 1.0), (1.0, math.inf)])
def test_bad_bracket_rejected(bracket):
    with pytest.raises(DomainError, match="bracket"):
        least_squares(through_origin, [0.0, 1.0], [0.0, 1.0], bracket)


def test_bad_weights_rejected():
    x = np.array([0.0, 1.0, 2.0])
    with pytest.raises(DomainError):
        least_squares(through_origin, x, x, (0.1, 10.0), weights=[1.0, 1.0])
    with pytest.raises(DomainError):
        least_squares(through_origin, x, x, (0.1, 10.0),
                      weights=[0.0, 0.0, 0.0])


def central_differences(fn, x, theta):
    """Jacobian of ``fn(x, *theta)`` by central differences, per-parameter
    step sqrt(eps) * (1 + |theta_j|): the reference for analytic Jacobians."""
    base_step = math.sqrt(np.finfo(float).eps)
    cols = []
    for j in range(theta.size):
        step = base_step * (1.0 + abs(theta[j]))
        up = theta.copy()
        dn = theta.copy()
        up[j] += step
        dn[j] -= step
        cols.append((np.asarray(fn(x, *up), dtype=float)
                     - np.asarray(fn(x, *dn), dtype=float)) / (2.0 * step))
    return np.column_stack(cols)


@pytest.mark.parametrize("fn, jac, theta", [
    (line, line_jac, [1.7, 0.8]),
    (exp_decay, exp_decay_jac, [1.7, 0.8, 0.3]),
], ids=["line", "exp-decay"])
def test_analytic_jacobians_match_central_differences(fn, jac, theta):
    x = np.linspace(0.1, 4.0, 25)
    theta = np.array(theta)
    analytic = np.asarray(jac(x, *theta), dtype=float)
    numeric = central_differences(fn, x, theta)
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
