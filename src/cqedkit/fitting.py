"""Shared numerical kernels: damped least squares, Gaussian moment fits, erfc.

The least-squares solver is a damped Gauss-Newton iteration with a
Levenberg-style additive damping term. It is deliberately small: dense
normal equations, a required analytic Jacobian, and textbook standard
errors from the scaled inverse normal matrix. The ring-down fit (through
``exp_decay`` and ``exp_decay_jac``) and the Q_diel fit run through it;
the offset fit is a closed-form straight line in log kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateDataError,
    DomainError,
    FitFailureError,
    InsufficientDataError,
    require_finite,
)

MAX_ITERATIONS = 200
REL_REDUCTION_TOL = 1e-10
GRADIENT_TOL = 1e-8
_DAMPING_INIT_SCALE = 1e-3


@dataclass
class FitResult:
    """Outcome of a least-squares fit.

    ``params`` and ``std_errors`` are aligned; ``residual_norm`` is the
    square root of the (weighted) sum of squared residuals at the optimum.
    ``cost_trace`` records the objective at the start and after every
    accepted step, so callers can verify monotone descent.
    """

    params: np.ndarray
    std_errors: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int
    cost_trace: list[float] = field(default_factory=list, repr=False)


def exp_decay(x, amp, rate, offset):
    """The ring-down model amp * exp(-rate * x) + offset."""
    return amp * np.exp(-rate * np.asarray(x, dtype=float)) + offset


def exp_decay_jac(x, amp, rate, offset):
    """Derivatives of ``exp_decay`` in amp, rate and offset, one column each."""
    x = np.asarray(x, dtype=float)
    decay = np.exp(-rate * x)
    return np.column_stack([decay, -amp * x * decay, np.ones_like(x)])


def least_squares(
    model: Callable,
    x,
    y,
    init: Sequence[float],
    weights=None,
    *,
    jac: Callable,
    max_iterations: int = MAX_ITERATIONS,
) -> FitResult:
    """Weighted nonlinear least squares by damped Gauss-Newton iteration.

    Parameters
    ----------
    model : callable
        ``model(x, *theta) -> ndarray`` evaluated at the abscissae.
    x, y : array_like
        Data points. ``y`` sets the residuals ``y - model(x, *theta)``.
    init : sequence of float
        Initial parameter vector.
    weights : array_like, optional
        Per-point weights multiplying squared residuals. Defaults to 1.
        Parameter estimates are invariant under uniform rescaling of the
        weights, and so are the standard errors because the residual
        variance is rescaled by the same factor.
    jac : callable
        ``jac(x, *theta) -> (n, p) ndarray``, the derivative of the model.
    max_iterations : int
        Outer iteration cap; exceeding it returns a result flagged
        ``converged=False``.

    Returns
    -------
    FitResult
        Standard errors come from ``s^2 * inv(J^T W J)`` with
        ``s^2 = cost / (n - p)``; they are zero for an exactly saturated
        fit (``n == p`` or zero residual).

    Notes
    -----
    Damping starts at 1e-3 times the largest diagonal entry of the normal
    matrix, grows tenfold on every rejected step and shrinks tenfold on
    every accepted one. Iteration stops when the relative reduction of the
    objective falls below 1e-10 or the gradient norm scaled by the current
    objective falls below 1e-8.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    require_finite(x=x, y=y, weights=w)
    theta = np.array(init, dtype=float)
    n_params = theta.size
    if y.size < n_params:
        raise InsufficientDataError(
            f"{y.size} data points cannot constrain {n_params} parameters")
    if not np.all(np.isfinite(theta)):
        raise FitFailureError("initial guess contains non-finite values")
    if w.shape != y.shape:
        raise DomainError("weights must match the data length")
    if np.any(w < 0) or not np.any(w > 0):
        raise DomainError("weights must be nonnegative with at least one positive")

    def residual(th):
        return y - np.asarray(model(x, *th), dtype=float)

    r = residual(theta)
    if not np.all(np.isfinite(r)):
        raise FitFailureError("model is non-finite at the initial guess")
    cost = float(np.dot(w * r, r))
    trace = [cost]
    damping = None
    converged = False
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        jmat = np.asarray(jac(x, *theta), dtype=float)
        normal = jmat.T @ (w[:, None] * jmat)
        gradient = jmat.T @ (w * r)
        if damping is None:
            peak = float(np.max(np.diag(normal)))
            if peak <= 0.0 or not math.isfinite(peak):
                raise FitFailureError("normal matrix is degenerate at the initial guess")
            damping = _DAMPING_INIT_SCALE * peak
        if float(np.max(np.abs(gradient))) <= GRADIENT_TOL * (1.0 + cost):
            converged = True
            break

        for _ in range(60):
            try:
                step = np.linalg.solve(normal + damping * np.eye(n_params), gradient)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            trial = theta + step
            r_trial = residual(trial)
            cost_trial = float(np.dot(w * r_trial, r_trial))
            if math.isfinite(cost_trial) and cost_trial < cost:
                rel_drop = (cost - cost_trial) / max(cost, np.finfo(float).tiny)
                theta, r, cost = trial, r_trial, cost_trial
                trace.append(cost)
                damping /= 10.0
                break
            damping *= 10.0
        else:
            # No downhill step exists at any damping: already at a minimum
            # to working precision.
            converged = True
            break
        if rel_drop < REL_REDUCTION_TOL:
            converged = True
            break

    jmat = np.asarray(jac(x, *theta), dtype=float)
    normal = jmat.T @ (w[:, None] * jmat)
    dof = y.size - n_params
    if dof > 0 and cost > 0.0:
        try:
            covariance = (cost / dof) * np.linalg.inv(normal)
        except np.linalg.LinAlgError:
            raise FitFailureError("normal matrix is singular at the optimum") from None
        std_errors = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    else:
        std_errors = np.zeros(n_params)
    return FitResult(
        params=theta,
        std_errors=std_errors,
        residual_norm=math.sqrt(cost),
        converged=converged,
        iterations=iterations,
        cost_trace=trace,
    )


@dataclass(frozen=True)
class GaussianEstimate:
    mean: float
    sigma: float
    mean_err: float
    sigma_err: float


def fit_gaussian_1d(samples, min_samples: int = 100) -> GaussianEstimate:
    """Gaussian location/width from sample moments.

    Mean is the sample mean, sigma the bias-corrected standard deviation;
    their uncertainties are sigma/sqrt(n) and sigma/sqrt(2n).
    """
    values = np.asarray(samples, dtype=float)
    if values.ndim != 1:
        raise DomainError("samples must be one-dimensional")
    require_finite(samples=values)
    if values.size < min_samples:
        raise InsufficientDataError(
            f"need at least {min_samples} samples, got {values.size}")
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
