"""Exception types shared across the package.

Every error the command-line front end reports maps to one of these; the
``slug`` attribute becomes the machine-parsable category in the single
``error: <slug>: <message>`` line printed on failure.

``require_finite``, ``require_positive`` and ``require_nonnegative`` are
the one domain guard of library arguments and record fields: each takes
the values by name and raises ``DomainError("<name> must be finite")``,
then ``"... must be positive"`` or ``"... must be nonnegative"``, for
the first value that breaks its rule. Rules that tie several values
together stay with the relation that needs them. ``not_utf8`` turns a
decode error in an input file into a ConfigError naming the file line.
"""

import math


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


class OutputError(ToolError, OSError):
    """The output directory cannot be created or an artifact not written."""

    slug = "output"


def not_utf8(path, exc: UnicodeDecodeError) -> ConfigError:
    """A ConfigError naming the file line of the first byte that is not UTF-8.

    A text reader decodes ahead of its consumer in chunks, so the offset
    in ``exc`` is not the file's; the raw bytes are decoded again to find it.
    """
    try:
        with open(path, "rb") as handle:
            handle.read().decode("utf-8")
    except UnicodeDecodeError as first:
        line = first.object.count(b"\n", 0, first.start) + 1
        return ConfigError(f"{path}: not UTF-8 text at line {line}: {first.reason}")
    except OSError:
        pass
    return ConfigError(f"{path}: not UTF-8 text: {exc.reason}")


def _require(values, word: str, holds) -> None:
    """Raise DomainError("<name> must be <word>") for the first value, not
    None, that ``holds`` is not true of in every entry. Python ints and
    floats (``np.float64`` is one) are tested without numpy, so the
    closed-form paths never import it."""
    for name, value in values.items():
        if value is None:
            continue
        if isinstance(value, (int, float)):
            ok = holds(value)
        else:
            import numpy as np
            ok = np.all(holds(np.asarray(value)))
        if not ok:
            raise DomainError(f"{name} must be {word}")


def require_finite(**values) -> None:
    """Raise DomainError naming the first value, scalar or array, not finite."""
    _require(values, "finite", lambda v: abs(v) < math.inf)


def require_positive(**values) -> None:
    """Each value is finite, and then positive; every value is tested for
    finiteness first, so NaN and inf are reported as not finite."""
    require_finite(**values)
    _require(values, "positive", lambda v: v > 0)


def require_nonnegative(**values) -> None:
    """Each value is finite, and then nonnegative."""
    require_finite(**values)
    _require(values, "nonnegative", lambda v: v >= 0)
