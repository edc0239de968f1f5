"""Closed-loop benchmark of the cqedkit command line.

    python3 bench/run.py --workload cli-demo --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout (nothing needs installing or building).

``--trace 0`` drives the CLI as a user does: one ``python -m cqedkit``
subprocess per command, one client, closed loop (the next command starts
when the previous one has exited), and prints the end-to-end metrics.
``--trace 1`` runs the same commands in-process through
``cqedkit.cli.main``, alternating untraced and traced passes, and prints
the per-layer metrics (see tracing.py). Each run checks every output
outside the timed region (see checks.py); a failed check counts as a
failed invocation. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Run details (metadata,
CSV hashes, every sample, the spans) go to bench/work/results/.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from checks import IdentityLedger, check_outputs, csv_hashes
from tracing import Tracer, parse_importtime

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEMO_CFG = ROOT / "configs" / "demo.cfg"
MAKE_INPUTS = ROOT / "scripts" / "make_demo_inputs.py"
WORK = BENCH / "work"

SHOTS_DUMP_SHOTS = 100_000
MC_SWEEP_SHOTS = 1_000_000
# Readout setting of shots-dump and mc-sweep: demo.cfg's, fixed here so that
# edits to the demo config leave these workloads unchanged.
READOUT = {"kappa_inv_ns": "300", "two_chi_khz": "930", "tau_m_ns": "700",
           "target_snr": "5.0", "tau_list_ns": "175, 350, 700, 1400, 2800"}
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
PARTITION_REPEATS = 3
CHILD_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "cmd_latency_p50_ms": "ms",
    "cmd_latency_p90_ms": "ms",
    "cmds_per_s": "1/s",
    "shots_per_s": "1/s",
    "cpu_s_per_cmd": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: medians over traced passes of per-pass totals, except
# import.* (medians over fresh interpreters) and the partition timings.
_LAYER_STATS = {
    "config.parse_config": ["self_ms"],
    "cli.main": ["self_ms"],
    "dataio.write_csv": ["self_ms", "rows", "bytes"],
    "dataio.write_shots_csv": ["self_ms"],
    "dataio.load_ringdown_csv": ["self_ms", "rows"],
    "dataio.load_kappa_offset_csv": ["self_ms", "rows"],
    "dataio.load_coherence_csv": ["self_ms", "rows"],
    "readout.simulate_shots": ["self_ms", "shots"],
    "readout.histogram_fit": ["self_ms"],
    "readout.snr_sweep": ["self_ms"],
    "fitting.least_squares": ["self_ms", "calls", "iterations"],
    "fitting.fit_gaussian_1d": ["self_ms"],
    "fitting.erfc": ["calls", "self_ms"],
    "resonator.frequency_band": ["self_ms"],
    "resonator.fit_kappa_ringdown": ["self_ms"],
    "resonator.fit_kappa_offset": ["self_ms"],
    "coherence.fit_qdiel": ["self_ms", "calls"],
    "coherence.t1_total": ["self_ms", "calls"],
    "svgplot.SvgPlot.write": ["self_ms", "bytes"],
}
_STAT_UNITS = {"self_ms": "ms", "bytes": "bytes"}
PER_LAYER_UNITS = {
    "import.total_ms": "ms",
    "import.scipy_ms": "ms",
    "import.numpy_ms": "ms",
    "import.cqedkit_self_ms": "ms",
    **{f"{layer}.{stat}": _STAT_UNITS.get(stat, "count")
       for layer, stats in _LAYER_STATS.items() for stat in stats},
    "readout.simulate_shots.serial_ms": "ms",
    "readout.simulate_shots.partitioned_ms": "ms",
    "trace.errors": "count",
    "trace.spans": "count",
    "trace.overhead_ms": "ms",
}


class SetupError(RuntimeError):
    """The workload's inputs could not be produced."""


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Invocation:
    """One CLI command of a workload, with what its outputs are checked against."""

    command: str
    config: Path
    plots: bool
    shots_per_state: int = 0   # per state and tau; 0 for non-readout commands
    shots: int = 0             # Monte-Carlo shots: both states, every tau

    def argv(self, seed: int, outdir: Path) -> list[str]:
        return [self.command, "--config", str(self.config), "--seed",
                str(seed), "--out", str(outdir)] + (["--plots"] * self.plots)


def _readout_section(path: Path) -> dict[str, str]:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"))
    parser.read(path, encoding="utf-8")
    return dict(parser["readout"])


def _readout_invocation(command: str, config: Path, plots: bool) -> Invocation:
    values = _readout_section(config)
    per_state = int(float(values["n_shots"]))
    taus = len(values["tau_list_ns"].split(",")) if command == "snr-sweep" else 1
    return Invocation(command, config, plots, per_state, 2 * per_state * taus)


def _write_readout_config(dest: Path, n_shots: int) -> Path:
    parser = configparser.ConfigParser(interpolation=None)
    parser["readout"] = {**READOUT, "n_shots": str(n_shots)}
    path = dest / "readout.cfg"
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)
    return path


def make_inputs(workload: str, seed: int, dest: Path, env) -> list[Invocation]:
    """Generate a workload's inputs and configs under ``dest``."""
    dest.mkdir(parents=True)
    if workload == "cli-demo":
        fits = dest / "inputs"
        done = subprocess.run(
            [sys.executable, str(MAKE_INPUTS), str(fits), "--seed", str(seed)],
            env=env, cwd=dest, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise SetupError(f"make_demo_inputs.py failed: {done.stderr[-2000:]}")
        demo = [Invocation(c, DEMO_CFG, True) for c in
                ("design-resonator", "sweep-spiral", "budget-t1")]
        demo += [_readout_invocation(c, DEMO_CFG, True)
                 for c in ("simulate-readout", "snr-sweep")]
        return demo + [Invocation(c, fits / "fits.cfg", True)
                       for c in ("fit-lk", "fit-kappa", "fit-qdiel")]
    if workload == "shots-dump":
        config = _write_readout_config(dest, SHOTS_DUMP_SHOTS)
        return [_readout_invocation("simulate-readout", config, False)]
    if workload == "mc-sweep":
        config = _write_readout_config(dest, MC_SWEEP_SHOTS)
        return [_readout_invocation("snr-sweep", config, False)]
    raise ValueError(workload)


WORKLOADS = ("cli-demo", "shots-dump", "mc-sweep")


# ---------------------------------------------------------------- running

@dataclass
class Sample:
    command: str
    wall_s: float
    cpu_s: float = 0.0
    maxrss_kb: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class Run:
    """Everything one benchmark run measured and checked."""

    seed: int
    ledger: IdentityLedger = field(default_factory=IdentityLedger)
    samples: list[Sample] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)   # not tied to a sample
    attempted: int = 0
    failed: int = 0

    def verify(self, sample: Sample, invocation: Invocation, outdir: Path):
        """Check one invocation's outputs and count it."""
        if not sample.problems:
            sample.problems = (
                self.ledger.check(invocation.command, csv_hashes(outdir))
                + check_outputs(invocation.command, outdir,
                                invocation.shots_per_state))
        self.attempted += 1
        self.failed += bool(sample.problems)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(argv: list[str], command: str, log: Path, env) -> Sample:
    """One ``python -m cqedkit`` subprocess, timed, with its own rusage."""
    with open(log, "wb") as handle:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "cqedkit", *argv],
                                stdout=handle, stderr=subprocess.STDOUT,
                                env=env, cwd=log.parent)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = Sample(command, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:]
        sample.problems.append(f"{command}: exit {proc.returncode}: {tail}")
    return sample


def _fresh(outdir: Path) -> Path:
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    return outdir


def setup(workload: str, run: Run, run_dir: Path, env) -> list[Invocation]:
    """Generate inputs and make the first (warm-up) invocation, repeatedly.

    Each repeat builds the inputs afresh in its own directory and runs the
    workload's first command once, so caches fill before timing and any
    work moved into a first run shows in setup_s. Repeats must produce
    byte-identical outputs; the first repeat's inputs are used afterwards.
    """
    kept = None
    for repeat in range(SETUP_REPEATS):
        dest = run_dir / f"setup{repeat}"
        started = time.perf_counter()
        invocations = make_inputs(workload, run.seed, dest / "in", env)
        first = invocations[0]
        outdir = _fresh(dest / "out")
        sample = run_cli(first.argv(run.seed, outdir), first.command,
                         dest / "warmup.log", env)
        run.setup_s.append(time.perf_counter() - started)
        run.verify(sample, first, outdir)
        run.problems += sample.problems
        kept = kept or invocations
    return kept


def measure_cli(invocations, run: Run, seconds: float, run_dir: Path, env):
    """Closed loop of whole passes over the workload until ``seconds`` pass."""
    started = time.perf_counter()
    while True:
        for invocation in invocations:
            outdir = _fresh(run_dir / "out" / invocation.command)
            sample = run_cli(invocation.argv(run.seed, outdir),
                             invocation.command, run_dir / "cli.log", env)
            run.verify(sample, invocation, outdir)
            run.samples.append(sample)
        if time.perf_counter() - started >= seconds:
            return


def end_to_end_metrics(run: Run, invocations) -> dict[str, float]:
    latencies = [s.wall_s * 1e3 for s in run.samples]
    busy_s = sum(s.wall_s for s in run.samples)
    shots = {inv.command: inv.shots for inv in invocations}
    return {
        "setup_s": statistics.median(run.setup_s),
        "cmd_latency_p50_ms": statistics.median(latencies),
        "cmd_latency_p90_ms": _p90(latencies),
        "cmds_per_s": len(run.samples) / busy_s,
        "shots_per_s": sum(shots[s.command] for s in run.samples) / busy_s,
        "cpu_s_per_cmd": statistics.median(s.cpu_s for s in run.samples),
        "peak_rss_mb": max(s.maxrss_kb for s in run.samples) / 1024.0,
    }


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------- traced run

def import_cqedkit():
    """Import cqedkit from this checkout's src/ into the benchmark process."""
    sys.path.insert(0, str(SRC))
    import cqedkit.cli
    if SRC.resolve() not in Path(cqedkit.__file__).resolve().parents:
        raise SetupError(f"imported cqedkit from {cqedkit.__file__}, "
                         f"not from {SRC}")
    return cqedkit.cli


def call_main(main, argv) -> tuple[float, list[str]]:
    """Wall time of one in-process ``cli.main`` call and its problems."""
    sink = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except Exception as exc:   # a crash of the program is a failed invocation
        return time.perf_counter() - started, [f"{argv[0]}: raised {exc!r}"]
    wall = time.perf_counter() - started
    return wall, [] if code == 0 else [f"{argv[0]}: exit {code}: "
                                       f"{sink.getvalue().strip()[-300:]}"]


def measure_traced(invocations, run: Run, seconds: float, run_dir: Path,
                   cli, tracer: Tracer):
    """Alternate untraced and traced in-process passes for ``seconds``.

    Returns the untraced and traced pass times (s) and, for each traced
    pass, the invocation ids its spans carry.
    """
    untraced, traced, traced_ids = [], [], []
    started = time.perf_counter()
    while True:
        for tracing in (False, True):
            if tracing:
                tracer.install()
                first_id = tracer.invocations + 1
            pass_s = 0.0
            for invocation in invocations:
                outdir = _fresh(run_dir / "out" / invocation.command)
                wall, problems = call_main(cli.main,
                                           invocation.argv(run.seed, outdir))
                pass_s += wall
                sample = Sample(invocation.command, wall, problems=problems)
                run.verify(sample, invocation, outdir)
                run.samples.append(sample)
            if tracing:
                tracer.uninstall()
                traced.append(pass_s)
                traced_ids.append(range(first_id, first_id + len(invocations)))
            else:
                untraced.append(pass_s)
        if time.perf_counter() - started >= seconds:
            return untraced, traced, traced_ids


def import_breakdown(env) -> dict[str, float]:
    runs = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cqedkit"],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise SetupError(f"import cqedkit failed: {done.stderr[-2000:]}")
        runs.append(parse_importtime(done.stderr))
    return {f"import.{key}": statistics.median(r[key] for r in runs)
            for key in runs[0]}


def partition_evidence(seed: int, run: Run) -> dict[str, float]:
    """simulate_shots at the mc-sweep size, serial and on nproc partitions.

    The two results must be identical array for array.
    """
    import numpy as np
    from cqedkit import readout

    kappa = 1.0 / (float(READOUT["kappa_inv_ns"]) * 1e-9)
    chi = math.pi * float(READOUT["two_chi_khz"]) * 1e3
    tau_m = float(READOUT["tau_m_ns"]) * 1e-9
    epsilon = readout.calibrate_epsilon(float(READOUT["target_snr"]), kappa,
                                        chi, tau_m)
    config = readout.ReadoutConfig(epsilon=epsilon, kappa=kappa, chi=chi,
                                   tau_m=tau_m, n_shots=MC_SWEEP_SHOTS,
                                   seed=seed)
    nproc = len(os.sched_getaffinity(0))
    times = {1: [], nproc: []}
    for _ in range(PARTITION_REPEATS):
        shots = {}
        for partitions in times:
            started = time.perf_counter()
            shots[partitions] = readout.simulate_shots(config,
                                                       partitions=partitions)
            times[partitions].append(time.perf_counter() - started)
        run.attempted += 1
        if not all(np.array_equal(getattr(shots[1], name),
                                  getattr(shots[nproc], name))
                   for name in ("i_ground", "q_ground", "i_excited", "q_excited")):
            run.failed += 1
            run.problems.append(f"simulate_shots differs between 1 and "
                                f"{nproc} partitions")
    return {
        "readout.simulate_shots.serial_ms": 1e3 * statistics.median(times[1]),
        "readout.simulate_shots.partitioned_ms":
            1e3 * statistics.median(times[nproc]),
    }


def per_layer_metrics(tracer: Tracer, traced_ids, untraced, traced) -> dict:
    by_invocation = tracer.totals_by_invocation()
    passes = []
    for ids in traced_ids:
        totals: dict[str, float] = {}
        for invocation in ids:
            for key, value in by_invocation.get(invocation, {}).items():
                totals[key] = totals.get(key, 0.0) + value
        totals["trace.errors"] = sum(v for k, v in totals.items()
                                     if k.endswith(".errors"))
        totals["trace.spans"] = sum(v for k, v in totals.items()
                                    if k.endswith(".calls"))
        passes.append(totals)
    names = [f"{layer}.{stat}" for layer, stats in _LAYER_STATS.items()
             for stat in stats] + ["trace.errors", "trace.spans"]
    metrics = {name: statistics.median(p.get(name, 0.0) for p in passes)
               for name in names}
    metrics["trace.overhead_ms"] = 1e3 * (statistics.median(traced)
                                          - statistics.median(untraced))
    return metrics


# ---------------------------------------------------------------- reporting

def _tree_sha256(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def run_metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256(SRC),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def report(meta, run: Run, metrics: dict, units: dict, samples: int,
           extra: dict) -> None:
    """Write the run's details, print a summary and the result line.

    ``samples`` is how many timed commands (or traced passes) the metrics
    summarise.
    """
    meta["loadavg_end"] = os.getloadavg()
    correct = run.failed == 0 and not run.problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    problems = run.problems + [p for s in run.samples for p in s.problems]
    details = {
        "meta": meta,
        "result": result,
        "problems": problems[:50],
        "csv_sha256": run.ledger.reference,
        "setup_s": run.setup_s,
        "samples": [[s.command, s.wall_s, s.cpu_s, s.maxrss_kb, bool(s.problems)]
                    for s in run.samples],
        **extra,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = (f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    (results / name).write_text(json.dumps(details) + "\n", encoding="utf-8")

    print(f"meta: {json.dumps(meta)}")
    for metric, value in result["metrics"].items():
        print(f"{metric} = {value['value']:.6g} {value['unit']} (n={samples})")
    print(f"failed_frac = {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed}/{run.attempted})")
    for problem in problems[:10]:
        print(f"problem: {problem}")
    print(f"details: {results / name}")
    print(json.dumps(result))


# ---------------------------------------------------------------- main

def benchmark(args, run_dir: Path) -> None:
    meta = run_metadata(args)
    env = child_env()
    run = Run(seed=args.seed)
    invocations = setup(args.workload, run, run_dir, env)
    if not args.trace:
        measure_cli(invocations, run, args.seconds, run_dir, env)
        report(meta, run, end_to_end_metrics(run, invocations),
               END_TO_END_UNITS, len(run.samples), {})
        return

    cli = import_cqedkit()
    metrics = import_breakdown(env)
    metrics.update(partition_evidence(run.seed, run))
    tracer = Tracer()
    untraced, traced, traced_ids = measure_traced(
        invocations, run, args.seconds, run_dir, cli, tracer)
    run.problems += tracer.unaccounted_roots()
    metrics.update(per_layer_metrics(tracer, traced_ids, untraced, traced))
    report(meta, run, metrics, PER_LAYER_UNITS, len(traced),
           {"untraced_pass_s": untraced, "traced_pass_s": traced,
            "trace": tracer.dump()})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p) for p in (SRC / "cqedkit" / "__init__.py", DEMO_CFG,
                                MAKE_INPUTS) if not p.is_file()]
    if missing:
        print(f"error: not a cqedkit checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        benchmark(args, run_dir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
