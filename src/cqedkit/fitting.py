"""Shared numerical kernels: one-parameter least squares, Gaussian moments, erfc.

Each iterative fit has one nonlinear parameter: Q_diel, and the ring-down
rate, once its amplitude and offset are solved in closed form for each
rate (variable projection, Golub & Pereyra, SIAM J. Numer. Anal. 10, 413,
1973). ``least_squares(cost, slope, bracket)`` searches that parameter
within a bracket and is nothing more: each fit supplies its own cost and
slope, and builds its Jacobian once, at the optimum, for
``standard_errors``, the scaled inverse normal matrix's errors.
``straight_line`` is the closed-form line of the offset fit, in log kappa.

The fits compute on plain Python floats, one point at a time. Their sums
are ``math.fsum``'s, correctly rounded, so no result depends on a
summation order. Only ``fit_gaussian_1d`` imports numpy, when called.
Results are named tuples: ``FitResult``, ``GaussianEstimate`` and
``least_squares``'s ``Optimum``.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Callable

from .errors import (
    DegenerateDataError,
    DomainError,
    FitFailureError,
    InsufficientDataError,
    require_finite,
)

SCAN_POINTS = 64
MIN_SAMPLES = 100  # fewest samples fit_gaussian_1d estimates from
EPS = sys.float_info.epsilon


class FitResult(namedtuple("FitResult",
                           "params std_errors residual_norm iterations")):
    """Outcome of a least-squares fit.

    ``params`` and ``std_errors`` are aligned tuples; ``residual_norm`` is
    the square root of the (weighted) sum of squared residuals at the
    optimum; ``iterations`` counts the derivative evaluations of the
    refinement. A fit that fails raises instead, so ``converged`` is always
    True.
    """

    __slots__ = ()
    converged = True  # a class constant, not a field


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


# The parameter ``least_squares`` stopped at, and its slope evaluations
Optimum = namedtuple("Optimum", "p iterations")


def least_squares(cost: Callable[[float], float],
                  slope: Callable[[float], tuple[float, float]],
                  bracket: tuple[float, float]) -> Optimum:
    """Minimise a least-squares ``cost(p)`` over one parameter p in ``bracket``.

    ``slope(p)`` returns the cost's derivative in p and a bound on that
    value's rounding error. The cost is scanned at ``SCAN_POINTS``
    log-spaced points of the bracket ``(low, high)``; between the
    neighbours of the smallest, Illinois regula falsi finds the root of the
    slope to within its bound. A smallest cost at a bracket end, a
    non-finite cost, or a slope that does not change sign between those
    neighbours raises FitFailureError. Errors are the caller's, from
    ``standard_errors`` at the optimum.
    """
    low, high = bracket
    if not 0.0 < low < high < math.inf:
        raise DomainError("bracket must satisfy 0 < low < high < inf")

    # the bits of np.geomspace: powers of a linspace of logs, exact ends
    log_low = math.log10(low)
    step = (math.log10(high) - log_low) / (SCAN_POINTS - 1)
    grid = [low, *(10.0 ** (i * step + log_low)
                   for i in range(1, SCAN_POINTS - 1)), high]
    costs = list(map(cost, grid))
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
    return Optimum(a, iterations)


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


class GaussianEstimate(namedtuple("GaussianEstimate",
                                  "mean sigma mean_err sigma_err")):
    """A Gaussian's location and width, each with its standard error."""

    __slots__ = ()


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
