"""Start-up paths and the package's public names.

A bare ``import cqedkit`` and seven of the eight commands must run without
numpy: the closed-form ones (design-resonator, sweep-spiral, fit-lk) and
fit-kappa, fit-qdiel, budget-t1 and snr-sweep, which compute on plain
floats and, for snr-sweep, the stdlib's random stream. Each command loads
only the modules it uses, except that the two readout commands load
``coherence``, ``fitting`` and ``readout`` together, which is what a
tracer that looks those modules up after the first command relies on.
Only simulate-readout loads numpy; run as the first importer of numpy it
loads OpenBLAS with one thread, unless the caller sets
``OPENBLAS_NUM_THREADS``. The three scripts run without numpy as well.
No command loads ``dataclasses``, and none but simulate-readout, through
numpy, loads ``inspect`` or ``typing``: the records are named tuples.
``cqedkit`` resolves its public names on first access, and they must stay
the same names bound to the same objects.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import cqedkit
from cqedkit import cli

ROOT = Path(__file__).resolve().parents[1]
ENV = {key: value for key, value in os.environ.items()
       if key != "OPENBLAS_NUM_THREADS"}
ENV["PYTHONPATH"] = str(ROOT / "src")
# For ``python -S``, which skips site-packages and so the .pth files there,
# one of which may preload typing: numpy's directory goes on the path instead
BARE_ENV = dict(ENV, PYTHONPATH=os.pathsep.join(
    [str(ROOT / "src"), str(Path(np.__file__).resolve().parents[1])]))
# Stdlib modules that records built by dataclasses would load
RECORD_MODULES = {"dataclasses", "inspect", "typing"}

# Which config each command runs on: configs/demo.cfg, or the fits.cfg
# that scripts/make_demo_inputs.py writes.
CLOSED_FORM = {"design-resonator": "demo", "sweep-spiral": "demo",
               "fit-lk": "fits"}
NUMERIC = {"fit-kappa": "fits", "fit-qdiel": "fits", "budget-t1": "demo",
           "simulate-readout": "demo", "snr-sweep": "demo"}
# The numeric command that draws from numpy's streams; the rest run on
# plain floats.
READOUT = ("simulate-readout",)
# What each numeric command loads beyond what every command does
# (cli, config, dataio, resonator, svgplot, errors, floats)
OPTIONAL = {"numpy", "cqedkit.coherence", "cqedkit.fitting", "cqedkit.transmon",
            "cqedkit.readout"}
LOADS = {"fit-kappa": {"cqedkit.fitting"},
         "fit-qdiel": {"cqedkit.coherence", "cqedkit.fitting"},
         "budget-t1": {"cqedkit.coherence"},
         "simulate-readout": OPTIONAL, "snr-sweep": OPTIONAL - {"numpy"}}

# Runs ``python -m cqedkit <argv>`` as runpy does for -m, then reports the
# exit code, which of numpy, RECORD_MODULES and cqedkit's modules got
# loaded and how many OS threads are alive at exit (None without /proc).
PROBE = """
import json, os, runpy, sys
sys.argv[0] = "cqedkit"
try:
    runpy.run_module("cqedkit", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(
    name for name in sys.modules
    if name in ("numpy", "dataclasses", "inspect", "typing")
    or name.startswith("cqedkit.")),
    "threads": len(os.listdir("/proc/self/task"))
    if os.path.isdir("/proc/self/task") else None}))
"""

PUBLIC_NAMES = [
    "CoherenceRecord", "ConfigError", "CpwTestStructure",
    "DegenerateDataError", "DispersiveCoupling", "DomainError",
    "FilmProperties", "FitFailureError", "FitResult",
    "GaussianEstimate", "HistogramFit", "InsufficientDataError", "LossModel",
    "OutputError", "PurcellParams", "ReadoutConfig", "ResonatorMode", "RingdownFit",
    "ShotSet", "SpiralGeometry", "SweepPoint", "T2BoundCheck", "ToolError",
    "TransmonParams", "anharmonicity", "archimedean_spiral_length",
    "build_spiral", "calibrate_epsilon", "cavity_response",
    "charging_energy", "coherence", "coupling_from_chi",
    "cpw_mode_frequency", "dispersive_phase",
    "dispersive_shift", "erfc", "errors", "extract_lk_cpw",
    "fit_gaussian_1d", "fit_kappa_offset", "fit_kappa_ringdown",
    "fit_qdiel", "fitting", "flux_effective_ej", "frequency_band",
    "histogram_fit", "integrated_signal", "kappa_from_qc",
    "kappa_offset_model", "least_squares", "noise_sigma",
    "q_c_from_kappa", "readout", "resonance_frequency", "resonator",
    "separation_fidelity", "simulate_shots", "snr_asymptotic",
    "snr_monte_carlo", "snr_sweep", "squares", "stream_shots", "t1_budget",
    "t1_dielectric", "t1_purcell", "t1_total", "t2_bound_check",
    "t2_from_t1", "total_inductance", "transmon", "transmon_frequency",
]


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("inputs")
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_demo_inputs.py"),
                    str(inputs), "--seed", "3"],
                   env=ENV, check=True, capture_output=True, timeout=120)
    return {"demo": ROOT / "configs" / "demo.cfg", "fits": inputs / "fits.cfg"}


def _run_command(command, config, out, env=ENV, flags=()):
    done = subprocess.run(
        [sys.executable, *flags, "-c", PROBE, command, "--config", str(config),
         "--out", str(out), "--plots"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["code"] == 0, done.stderr
    return set(report["modules"]), report["threads"]


def test_command_tables_cover_every_command():
    assert set(CLOSED_FORM) | set(NUMERIC) == set(cli.COMMANDS)
    assert set(READOUT) < set(NUMERIC)


def test_import_cqedkit_loads_no_submodule_and_no_numpy():
    done = subprocess.run(
        [sys.executable, "-c",
         "import cqedkit, sys; print(sorted(name for name in sys.modules "
         "if name == 'numpy' or name.startswith('cqedkit.')))"],
        env=ENV, capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("command", sorted(CLOSED_FORM))
def test_closed_form_command_runs_without_numpy(command, configs, tmp_path):
    modules, _ = _run_command(command, configs[CLOSED_FORM[command]], tmp_path)
    assert not OPTIONAL & modules


@pytest.mark.parametrize("command", sorted(NUMERIC))
def test_numeric_command_loads_its_modules_together(command, configs, tmp_path):
    modules, _ = _run_command(command, configs[NUMERIC[command]], tmp_path)
    assert OPTIONAL & modules == LOADS[command]


@pytest.mark.parametrize("command", sorted({**CLOSED_FORM, **NUMERIC}))
def test_command_loads_no_dataclasses_inspect_or_typing(command, configs,
                                                        tmp_path):
    config = configs[{**CLOSED_FORM, **NUMERIC}[command]]
    modules, _ = _run_command(command, config, tmp_path, env=BARE_ENV,
                              flags=["-S"])
    # numpy itself loads inspect and typing
    banned = {"dataclasses"} if command in READOUT else RECORD_MODULES
    assert not banned & modules, sorted(banned & modules)


# Runs each command named in argv (as command=config pairs) through
# cli.main in this one process, then reports the exit codes and whether
# numpy got loaded.
IN_PROCESS = """
import json, sys
from cqedkit.cli import main
out, *runs = sys.argv[1:]
codes = {}
for run in runs:
    command, config = run.split("=", 1)
    codes[command] = main([command, "--config", config,
                           "--out", f"{out}/{command}", "--plots"])
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_numpy_free_commands_leave_numpy_unloaded(configs, tmp_path):
    # sweep-spiral also loads its measured points, as fit-kappa and
    # fit-qdiel load their inputs
    measured = configs["fits"].parent / "spiral_measured.csv"
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(configs["demo"].read_text(encoding="utf-8").replace(
        "[sweep]\n", f"[sweep]\nmeasured_csv = {measured}\n"), encoding="utf-8")
    runs = {command: str(configs[config])
            for command, config in {**CLOSED_FORM, **NUMERIC}.items()
            if command not in READOUT}
    runs["sweep-spiral"] = str(sweep)
    done = subprocess.run(
        [sys.executable, "-c", IN_PROCESS, str(tmp_path),
         *(f"{command}={config}" for command, config in runs.items())],
        env=ENV, capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"codes": dict.fromkeys(runs, 0), "numpy": False}, done.stderr
    assert len(runs) == 7
    assert "measured_points: 9" in (
        tmp_path / "sweep-spiral" / "report.txt").read_text(encoding="utf-8")


# Runs the script named in argv as ``python <script> <args>`` does, then
# reports its exit code and whether numpy got loaded.
SCRIPT_PROBE = """
import json, runpy, sys
sys.argv = sys.argv[1:]
code = None
try:
    runpy.run_path(sys.argv[0], run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("script, args", [
    ("make_demo_inputs.py", []),
    ("readout_tradeoff.py", ["--out"]),
])
def test_scripts_run_without_numpy(script, args, tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT_PROBE, str(ROOT / "scripts" / script),
         *args, str(tmp_path)],
        env=ENV, capture_output=True, text=True, check=True, timeout=120)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report == {"code": 0, "numpy": False}, done.stderr


HAS_PROC = os.path.isdir("/proc/self/task")
needs_openblas_threads = pytest.mark.skipif(
    not HAS_PROC or "openblas" not in np.show_config(mode="dicts")[
        "Build Dependencies"]["blas"]["name"],
    reason="counts OpenBLAS threads in /proc/self/task")


@needs_openblas_threads
@pytest.mark.parametrize("command", sorted(NUMERIC))
def test_numeric_command_ends_with_one_thread(command, configs, tmp_path):
    _, threads = _run_command(command, configs[NUMERIC[command]], tmp_path)
    assert threads == 1


@needs_openblas_threads
@pytest.mark.skipif(HAS_PROC and len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS caps its threads at the usable cores")
def test_callers_openblas_thread_count_is_honoured(configs, tmp_path):
    env = dict(ENV, OPENBLAS_NUM_THREADS="2")
    _, threads = _run_command("simulate-readout", configs["demo"], tmp_path,
                              env=env)
    assert threads == 2


def test_public_names_are_unchanged():
    assert cqedkit.__all__ == PUBLIC_NAMES


def test_each_public_name_is_its_defining_modules_object():
    for name in PUBLIC_NAMES:
        value = getattr(cqedkit, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"cqedkit.{name}"], name
        else:
            home = sys.modules[value.__module__]
            assert home.__name__.startswith("cqedkit."), name
            assert getattr(home, name) is value, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cqedkit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cqedkit.no_such_name
    from cqedkit import dataio   # a submodule outside __all__ still imports
    assert dataio is sys.modules["cqedkit.dataio"]
