"""Shared fixtures: the demo-input generator loaded as a module."""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def demo_inputs():
    """``scripts/make_demo_inputs.py``, whose writers give the seeded noise
    models the coverage tests draw from."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "make_demo_inputs.py"
    spec = importlib.util.spec_from_file_location("make_demo_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
