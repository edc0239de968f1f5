"""Fast self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload for about a second in both modes and checks that

- a clean run is correct and reports exactly the metrics, with the units,
  that BENCHMARK.json declares for that mode;
- corrupting one output CSV of one invocation makes that invocation count
  as failed (failed_frac above 0) instead of crashing the run;
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SECONDS = "1"


def result_of(argv: list[str]) -> dict:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = run.main(argv)
    if code != 0:
        raise AssertionError(f"{argv}: exit {code}")
    return json.loads(captured.getvalue().strip().splitlines()[-1])


def check_metric_names(spec: dict) -> None:
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        for workload in run.WORKLOADS:
            result = result_of(["--workload", workload, "--seed", "3",
                                "--seconds", SECONDS, "--trace", trace])
            reported = {name: metric["unit"]
                        for name, metric in result["metrics"].items()}
            assert reported == declared, (workload, trace, reported, declared)
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            print(f"ok: {workload} --trace {trace}: {len(reported)} metrics")


def check_corruption_counts_as_failure() -> None:
    real_run_cli = run.run_cli
    calls = []

    def corrupting(argv, command, log, env):
        sample = real_run_cli(argv, command, log, env)
        calls.append(command)
        if len(calls) == 2:   # the second warm-up; the first is the reference
            outdir = Path(argv[argv.index("--out") + 1])
            target = sorted(outdir.glob("*.csv"))[0]
            data = bytearray(target.read_bytes())
            last_digit = max(i for i, byte in enumerate(data)
                             if chr(byte).isdigit())
            data[last_digit] = ord("1" if data[last_digit] != ord("1") else "2")
            target.write_bytes(bytes(data))
        return sample

    run.run_cli = corrupting
    try:
        result = result_of(["--workload", "shots-dump", "--seed", "3",
                            "--seconds", SECONDS, "--trace", "0"])
    finally:
        run.run_cli = real_run_cli
    assert result["failed"] >= 1 and not result["correct"], result
    print(f"ok: one corrupted CSV gives failed_frac = "
          f"{result['failed'] / result['attempted']:.3g}")


def check_bare_directory_fails() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli-demo",
             "--seed", "0", "--seconds", SECONDS, "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print(f"ok: bare directory exits {done.returncode} with no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_bare_directory_fails()
    check_corruption_counts_as_failure()
    check_metric_names(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
