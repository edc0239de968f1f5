"""The domain guards over every form of value they are handed, and the
closed-form relations that rely on them to reject NaN and inf by name."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqedkit.errors import (DomainError, require_finite, require_nonnegative,
                            require_positive)
from cqedkit.readout import (ReadoutConfig, calibrate_epsilon, cavity_response,
                             separation_fidelity)
from cqedkit.resonator import (CpwTestStructure, FilmProperties,
                               archimedean_spiral_length, cpw_mode_frequency,
                               extract_lk_cpw, kappa_from_qc, kappa_offset_model,
                               q_c_from_kappa, resonance_frequency, squares,
                               total_inductance)

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


# The sign guards, each with a numpy statement of its rule.
SIGN_GUARDS = {
    "positive": (require_positive, lambda a: np.all(a > 0)),
    "nonnegative": (require_nonnegative, lambda a: np.all(a >= 0)),
}


@pytest.mark.parametrize("value", FINITE, ids=repr)
@pytest.mark.parametrize("word", sorted(SIGN_GUARDS))
def test_finite_values_meet_or_break_the_sign_rule(word, value):
    guard, rule = SIGN_GUARDS[word]
    if rule(np.asarray(value)):
        guard(value=value)
    else:
        with pytest.raises(DomainError, match=f"^value must be {word}$"):
            guard(value=value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("form", sorted(NON_FINITE_FORMS))
@pytest.mark.parametrize("word", sorted(SIGN_GUARDS))
def test_sign_guards_name_a_non_finite_value_before_any_sign(word, form, bad):
    # first breaks the sign rule, but every value is tested for finiteness first
    with pytest.raises(DomainError, match=r"^second must be finite$"):
        SIGN_GUARDS[word][0](first=-1.0, second=NON_FINITE_FORMS[form](bad),
                             third=math.nan)


@pytest.mark.parametrize("word, bad", [
    ("positive", 0.0), ("positive", -0.0), ("positive", -2),
    ("positive", np.int64(0)), ("positive", np.array(-1.0)),
    ("positive", np.array([3, 0, 5])), ("positive", [1.0, -2.0]),
    ("nonnegative", -1e-300), ("nonnegative", -1), ("nonnegative", np.int64(-1)),
    ("nonnegative", np.array([[2, 0], [-1, 4]])), ("nonnegative", [0.0, -2.0]),
], ids=repr)
def test_sign_guards_name_the_first_value_out_of_sign(word, bad):
    with pytest.raises(DomainError, match=f"^second must be {word}$"):
        SIGN_GUARDS[word][0](first=1.0, second=bad, third=-1.0)


@pytest.mark.parametrize("word", sorted(SIGN_GUARDS))
def test_sign_guards_pass_none_and_integer_arrays(word):
    guard = SIGN_GUARDS[word][0]
    guard(absent=None, ints=np.array([1, 2**62]), big=np.int64(2**62), py=10**400,
          empty=np.array([], dtype=np.int64))


def test_sign_guards_check_python_scalars_without_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    script = """
import math, sys
from cqedkit.errors import DomainError, require_nonnegative, require_positive
require_positive(a=1.0, b=2, c=True, d=None)
require_nonnegative(a=0.0, b=0, c=False)
for call, bad, text in ((require_positive, 0.0, "x must be positive"),
                        (require_nonnegative, -1, "x must be nonnegative"),
                        (require_positive, math.nan, "x must be finite")):
    try:
        call(x=bad)
    except DomainError as exc:
        assert str(exc) == text, exc
    else:
        raise AssertionError(f"{bad!r} passed")
assert "numpy" not in sys.modules
"""
    subprocess.run([sys.executable, "-c", script],
                   env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                   timeout=60)


_CPW = CpwTestStructure(length=4e-3, l_per_length=4.2e-7, c_per_length=1.6e-10)
_READOUT = ReadoutConfig(epsilon=1e6, kappa=3.3e6, chi=2.9e6, tau_m=7e-7)

# Closed-form relations that returned nan, 0.0 or inf, or failed under another
# name, for a non-finite argument: (call, the argument it names).
RELATIONS = {
    "archimedean_spiral_length": (
        lambda v: archimedean_spiral_length(v, 4e-6, 10.0), "start_radius"),
    "squares": (lambda v: squares(1e-3, v), "line_width"),
    "total_inductance": (lambda v: total_inductance(
        v, FilmProperties(lk_nominal=2.0, lk_low=1.8, lk_high=2.2)), "n_squares"),
    "resonance_frequency": (lambda v: resonance_frequency(v, 1e-15), "inductance"),
    "kappa_from_qc": (lambda v: kappa_from_qc(v, 1e4), "f_r"),
    "q_c_from_kappa": (lambda v: q_c_from_kappa(6e9, v), "kappa"),
    "kappa_offset_model": (
        lambda v: kappa_offset_model(v, 5e6, 1e-5), "feed_offset"),
    "cpw_mode_frequency": (
        lambda v: cpw_mode_frequency(_CPW, v, 1e-5), "lk_per_square"),
    "extract_lk_cpw": (lambda v: extract_lk_cpw(v, _CPW, 1e-5), "measured_f"),
    "calibrate_epsilon": (
        lambda v: calibrate_epsilon(5.0, 3.3e6, 2.9e6, v), "tau_m"),
    "cavity_response": (lambda v: cavity_response("g", _READOUT, v), "t"),
    "separation_fidelity": (separation_fidelity, "snr"),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=str)
@pytest.mark.parametrize("relation", sorted(RELATIONS))
def test_closed_form_relations_reject_non_finite_arguments_by_name(relation, bad):
    call, name = RELATIONS[relation]
    with pytest.raises(DomainError, match=f"^{name} must be finite$"):
        call(bad)
