"""``errors.require_finite`` over every form of value it is handed."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqedkit.errors import DomainError, require_finite

FINITE = [1.5, -0.0, 0, 3, True, False, np.float64(2.0), np.int64(7),
          np.float32(1.0), np.array(1.0), np.array([1.0, 2.0]),
          np.zeros((2, 3)), [1.0, 2.0], np.array([], dtype=float)]

# Each form holding one non-finite value among finite ones where it can.
NON_FINITE_FORMS = {
    "float": float,
    "np.float64": np.float64,
    "np.float32": np.float32,
    "0-d array": np.array,
    "array": lambda bad: np.array([1.0, bad, 2.0]),
    "2-d array": lambda bad: np.array([[1.0, 2.0], [3.0, bad]]),
    "list": lambda bad: [1.0, bad],
}


@pytest.mark.parametrize("value", FINITE, ids=repr)
def test_finite_values_pass(value):
    require_finite(value=value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("form", sorted(NON_FINITE_FORMS))
def test_non_finite_value_names_the_first_such_argument(form, bad):
    with pytest.raises(DomainError, match=r"^second must be finite$"):
        require_finite(first=1.0, second=NON_FINITE_FORMS[form](bad),
                       third=math.nan)


def test_python_scalars_are_checked_without_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    script = """
import math, sys
from cqedkit.errors import DomainError, require_finite
require_finite(a=1.0, b=2, c=True)
try:
    require_finite(d=-math.inf)
except DomainError as exc:
    assert str(exc) == "d must be finite"
else:
    raise AssertionError("-inf passed")
assert "numpy" not in sys.modules
"""
    subprocess.run([sys.executable, "-c", script],
                   env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                   timeout=60)
