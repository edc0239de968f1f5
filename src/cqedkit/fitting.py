"""Shared numerical kernels: one-parameter least squares, Gaussian moments, erfc.

Each iterative fit has one nonlinear parameter: Q_diel, and the ring-down
rate, once its amplitude and offset are solved in closed form for each
rate (variable projection, Golub & Pereyra, SIAM J. Numer. Anal. 10, 413,
1973). ``least_squares`` searches that parameter within a bracket, and
``standard_errors`` gives the scaled inverse normal matrix's errors at the
optimum. ``straight_line`` is the closed-form line of the offset fit (in
log kappa) and of the ring-down's amplitude and offset.

The fits compute on plain Python floats, one point at a time. Their sums
are ``math.fsum``'s, correctly rounded, so no result depends on a
summation order. Only ``fit_gaussian_1d`` imports numpy, when called.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import mul, sub
from typing import Callable

from .errors import (
    DegenerateDataError,
    DomainError,
    FitFailureError,
    InsufficientDataError,
    require_finite,
    require_nonnegative,
)

SCAN_POINTS = 64
MIN_SAMPLES = 100  # fewest samples fit_gaussian_1d estimates from
EPS = sys.float_info.epsilon


@dataclass
class FitResult:
    """Outcome of a least-squares fit.

    ``params`` and ``std_errors`` are aligned tuples; ``residual_norm`` is
    the square root of the (weighted) sum of squared residuals at the
    optimum; ``iterations`` counts the derivative evaluations of the
    refinement. A fit that fails raises instead, so ``converged`` is always
    True.
    """

    params: tuple[float, ...]
    std_errors: tuple[float, ...]
    residual_norm: float
    iterations: int
    converged = True  # a class constant, not a field


def exp_decay_jac(x, amp, rate, offset):
    """Derivatives of amp * exp(-rate * x) + offset, the ring-down model, in
    amp, rate and offset: one (amp, rate, offset) row per point."""
    rows = []
    for xi in x:
        decay = math.exp(-rate * xi)
        rows.append((decay, -amp * xi * decay, 1.0))
    return rows


def _minor(matrix, i: int, j: int):
    """``matrix`` without row i and column j."""
    return [row[:j] + row[j + 1:] for k, row in enumerate(matrix) if k != i]


def _det(matrix) -> float:
    """Determinant by cofactor expansion along the first row."""
    if not matrix:
        return 1.0
    return math.fsum((-1) ** j * matrix[0][j] * _det(_minor(matrix, 0, j))
                     for j in range(len(matrix)))


def standard_errors(jmat, weights, cost: float) -> tuple[float, ...]:
    """Errors from ``s^2 * inv(J^T W J)``, ``s^2 = cost / dof``, J being n
    rows of p derivatives; the diagonal of the inverse is written out as
    each cofactor over the determinant.

    They are zero for an exactly saturated fit (``dof == 0`` or zero cost).
    """
    n_params = len(jmat[0])
    dof = len(jmat) - n_params
    if dof <= 0 or cost == 0.0:
        return (0.0,) * n_params
    normal = [[math.fsum(row[i] * (w * row[j]) for w, row in zip(weights, jmat))
               for j in range(n_params)] for i in range(n_params)]
    det = _det(normal)
    if det == 0.0:
        raise FitFailureError("normal matrix is singular at the optimum")
    scale = cost / dof
    return tuple(math.sqrt(max(scale * (_det(_minor(normal, i, i)) / det), 0.0))
                 for i in range(n_params))


def least_squares(model: Callable, x, y, bracket: tuple[float, float],
                  weights=None) -> FitResult:
    """Weighted least squares in one parameter p, searched within ``bracket``.

    ``model(x, p)`` returns the model values and their derivative in p at
    a float p, each a sequence aligned with ``y``; ``x`` is handed to it
    as given. It may solve linear coefficients for each p (variable
    projection) and hold them fixed in the derivative, which stays the
    cost's exact derivative because the residual is orthogonal to their
    columns.

    The cost is scanned at ``SCAN_POINTS`` log-spaced points of the bracket
    ``(low, high)``; between the neighbours of the smallest, Illinois regula
    falsi finds the root of its derivative to within rounding. A smallest
    cost at a bracket end, or a non-finite cost, raises FitFailureError.
    """
    y = [float(value) for value in y]
    w = [1.0] * len(y) if weights is None else [float(value) for value in weights]
    require_finite(x=x, y=y)
    require_nonnegative(weights=w)
    if not y:
        raise InsufficientDataError("no data points to fit")
    if len(w) != len(y):
        raise DomainError("weights must match the data length")
    if not any(wi > 0 for wi in w):
        raise DomainError("weights must have a positive entry")
    low, high = bracket
    if not 0.0 < low < high < math.inf:
        raise DomainError("bracket must satisfy 0 < low < high < inf")

    # map over operator functions keeps the per-point loops in C
    w_abs_y = list(map(mul, w, map(abs, y)))

    def cost(values):
        residuals = list(map(sub, y, values))
        return math.fsum(map(mul, w, map(mul, residuals, residuals)))

    def slope(p):
        """The cost's derivative in p, and a bound on its rounding error."""
        values, deriv = model(x, p)
        value = -2.0 * math.fsum(map(mul, map(mul, w, map(sub, y, values)), deriv))
        return value, 2.0 * EPS * math.fsum(map(mul, w_abs_y, map(abs, deriv)))

    # the bits of np.geomspace: powers of a linspace of logs, exact ends
    log_low = math.log10(low)
    step = (math.log10(high) - log_low) / (SCAN_POINTS - 1)
    grid = [low, *(10.0 ** (i * step + log_low)
                   for i in range(1, SCAN_POINTS - 1)), high]
    costs = [cost(model(x, p)[0]) for p in grid]
    if not all(map(math.isfinite, costs)):
        raise FitFailureError("least-squares cost is not finite across the bracket")
    best = costs.index(min(costs))
    if best in (0, SCAN_POINTS - 1):
        raise FitFailureError(
            f"least-squares minimum lies at the {('lower', 'upper')[best > 0]} "
            f"edge of the bracket ({grid[best]:.6g})")
    a, b = grid[best - 1], grid[best + 1]
    (slope_a, _), (slope_b, _) = slope(a), slope(b)
    if not slope_a < 0.0 < slope_b:
        raise FitFailureError("least-squares cost has no bracketed minimum")

    iterations = kept = 0
    while True:
        p = b - slope_b * (b - a) / (slope_b - slope_a)
        if not a < p < b:
            p = 0.5 * (a + b)
            if not a < p < b:
                break
        slope_p, rounding = slope(p)
        iterations += 1
        if abs(slope_p) <= rounding:
            a = p
            break
        # Illinois: an end kept twice running has its slope halved
        if slope_p < 0.0:
            a, slope_a = p, slope_p
            if kept < 0:
                slope_b *= 0.5
            kept = -1
        else:
            b, slope_b = p, slope_p
            if kept > 0:
                slope_a *= 0.5
            kept = 1

    values, deriv = model(x, a)
    cost_a = cost(values)
    return FitResult(
        params=(a,),
        std_errors=standard_errors([(d,) for d in deriv], w, cost_a),
        residual_norm=math.sqrt(cost_a),
        iterations=iterations,
    )


def straight_line(x, y) -> FitResult:
    """Least-squares line y = slope * x + intercept in closed form, for at
    least 3 points. Params ``(slope, intercept)``; their errors take
    ``s^2 = RSS / (n - 2)``, the convention of ``numpy.polyfit(cov=True)``.
    """
    n = len(x)
    x_mean = math.fsum(x) / n
    dx = [xi - x_mean for xi in x]
    sxx = math.fsum(d * d for d in dx)
    if sxx == 0.0:
        raise DegenerateDataError("x values have no spread")
    slope = math.fsum(d * yi for d, yi in zip(dx, y)) / sxx
    intercept = math.fsum(y) / n - slope * x_mean
    residuals = [yi - (slope * xi + intercept) for xi, yi in zip(x, y)]
    rss = math.fsum(r * r for r in residuals)
    s2 = rss / (n - 2)
    return FitResult(
        params=(slope, intercept),
        std_errors=(math.sqrt(s2 / sxx),
                    math.sqrt(s2 * (1.0 / n + x_mean * x_mean / sxx))),
        residual_norm=math.sqrt(rss),
        iterations=0,
    )


@dataclass(frozen=True)
class GaussianEstimate:
    mean: float
    sigma: float
    mean_err: float
    sigma_err: float


def fit_gaussian_1d(samples) -> GaussianEstimate:
    """Gaussian location/width from sample moments.

    Mean is the sample mean, sigma the bias-corrected standard deviation;
    their uncertainties are sigma/sqrt(n) and sigma/sqrt(2n).
    """
    import numpy as np

    values = np.asarray(samples, dtype=float)
    if values.ndim != 1:
        raise DomainError("samples must be one-dimensional")
    require_finite(samples=values)
    if values.size < MIN_SAMPLES:
        raise InsufficientDataError(
            f"need at least {MIN_SAMPLES} samples, got {values.size}")
    sigma = float(np.std(values, ddof=1))
    if sigma == 0.0:
        raise DegenerateDataError("samples have zero variance")
    n = values.size
    return GaussianEstimate(
        mean=float(np.mean(values)),
        sigma=sigma,
        mean_err=sigma / math.sqrt(n),
        sigma_err=sigma / math.sqrt(2.0 * n),
    )


def erfc(x: float) -> float:
    """Complementary error function (``math.erfc``) of a finite argument."""
    require_finite(x=x)
    return math.erfc(x)
