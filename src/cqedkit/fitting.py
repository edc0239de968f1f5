"""Shared numerical kernels: one-parameter least squares, Gaussian moments, erfc.

Each iterative fit has one nonlinear parameter: Q_diel, and the ring-down
rate, once its amplitude and offset are solved in closed form for each
rate (variable projection, Golub & Pereyra, SIAM J. Numer. Anal. 10, 413,
1973). ``least_squares`` searches that parameter within a bracket, and
``standard_errors`` gives the scaled inverse normal matrix's errors at the
optimum. The offset fit is a closed-form straight line in log kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateDataError,
    DomainError,
    FitFailureError,
    InsufficientDataError,
    require_finite,
)

SCAN_POINTS = 64
MIN_SAMPLES = 100  # fewest samples fit_gaussian_1d estimates from
EPS = float(np.finfo(float).eps)


@dataclass
class FitResult:
    """Outcome of a least-squares fit.

    ``params`` and ``std_errors`` are aligned; ``residual_norm`` is the
    square root of the (weighted) sum of squared residuals at the optimum;
    ``iterations`` counts the derivative evaluations of the refinement.
    A fit that fails raises instead, so ``converged`` is always True.
    """

    params: np.ndarray
    std_errors: np.ndarray
    residual_norm: float
    iterations: int
    converged = True  # a class constant, not a field


def exp_decay_jac(x, amp, rate, offset):
    """Derivatives of amp * exp(-rate * x) + offset, the ring-down model, in
    amp, rate and offset, one column each."""
    x = np.asarray(x, dtype=float)
    decay = np.exp(-rate * x)
    return np.column_stack([decay, -amp * x * decay, np.ones_like(x)])


def standard_errors(jmat, weights, cost: float) -> np.ndarray:
    """Errors from ``s^2 * inv(J^T W J)``, ``s^2 = cost / dof``, J being (n, p).

    They are zero for an exactly saturated fit (``dof == 0`` or zero cost).
    """
    n_points, n_params = jmat.shape
    dof = n_points - n_params
    if dof <= 0 or cost == 0.0:
        return np.zeros(n_params)
    normal = jmat.T @ (weights[:, None] * jmat)
    try:
        covariance = (cost / dof) * np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        raise FitFailureError("normal matrix is singular at the optimum") from None
    return np.sqrt(np.clip(np.diag(covariance), 0.0, None))


def least_squares(model: Callable, x, y, bracket: tuple[float, float],
                  weights=None) -> FitResult:
    """Weighted least squares in one parameter p, searched within ``bracket``.

    ``model(x, p)`` returns the model values and their derivative in p, for
    a float p and for an (m, 1) column of them. It may solve linear
    coefficients for each p (variable projection) and hold them fixed in
    the derivative, which stays the cost's exact derivative because the
    residual is orthogonal to their columns.

    The cost is scanned at ``SCAN_POINTS`` log-spaced points of the bracket
    ``(low, high)``; between the neighbours of the smallest, Illinois regula
    falsi finds the root of its derivative to within rounding. A smallest
    cost at a bracket end, or a non-finite cost, raises FitFailureError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    require_finite(x=x, y=y, weights=w)
    if y.size == 0:
        raise InsufficientDataError("no data points to fit")
    if w.shape != y.shape:
        raise DomainError("weights must match the data length")
    if np.any(w < 0) or not np.any(w > 0):
        raise DomainError("weights must be nonnegative with at least one positive")
    low, high = bracket
    if not 0.0 < low < high < math.inf:
        raise DomainError("bracket must satisfy 0 < low < high < inf")

    def slope(p):
        """The cost's derivative in p, and a bound on its rounding error."""
        values, deriv = model(x, p)
        value = -2.0 * float(np.dot(w * (y - values), deriv))
        return value, 2.0 * EPS * float(np.dot(w * np.abs(y), np.abs(deriv)))

    grid = np.geomspace(low, high, SCAN_POINTS)
    costs = np.sum(w * (y - model(x, grid[:, None])[0]) ** 2, axis=-1)
    if not np.all(np.isfinite(costs)):
        raise FitFailureError("least-squares cost is not finite across the bracket")
    best = int(np.argmin(costs))
    if best in (0, grid.size - 1):
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
    cost = float(np.dot(w * (y - values), y - values))
    return FitResult(
        params=np.array([a]),
        std_errors=standard_errors(np.reshape(deriv, (-1, 1)), w, cost),
        residual_norm=math.sqrt(cost),
        iterations=iterations,
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
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("erfc requires a finite argument")
    return math.erfc(x)
