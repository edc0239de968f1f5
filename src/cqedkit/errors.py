"""Exception types shared across the package.

Every error the command-line front end reports maps to one of these; the
``slug`` attribute becomes the machine-parsable category in the single
``error: <slug>: <message>`` line printed on failure. ``require_finite``
is the shared finiteness guard of library arguments, and ``check_finite``
applies it to the fields of the dataclass validators.
"""

import numpy as np


class ToolError(Exception):
    """Base class for all errors raised by this package."""

    slug = "error"


class DomainError(ToolError, ValueError):
    """A physical parameter or argument is outside the model's domain."""

    slug = "domain"


class ConfigError(ToolError, ValueError):
    """A config file or input table failed to parse or validate."""

    slug = "config"


class InsufficientDataError(ToolError, ValueError):
    """Too few samples or records for the requested estimate."""

    slug = "insufficient-data"


class DegenerateDataError(ToolError, ValueError):
    """Data carries no usable variation (constant samples, zero variance)."""

    slug = "degenerate-data"


class FitFailureError(ToolError, RuntimeError):
    """A least-squares fit could not produce a usable result."""

    slug = "fit-failure"


def require_finite(**values) -> None:
    """Raise DomainError naming the first argument that holds a non-finite value.

    Each value may be a scalar or an array. Call it before any sign check:
    NaN compares false both ways, so ``x <= 0`` lets it through.
    """
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise DomainError(f"{name} must be finite")


def check_finite(obj, *names: str) -> None:
    """Raise DomainError naming the first field of ``obj`` that is not finite.

    Fields set to None (optional and absent) pass.
    """
    require_finite(**{name: getattr(obj, name) for name in names
                      if getattr(obj, name) is not None})
