"""Output checks for benchmark invocations, run outside the timed region.

Two kinds of check apply to every invocation:

- byte identity: the sha256 of every CSV an invocation wrote must equal
  the one the same command wrote the first time in this run (same seed,
  same inputs);
- physics: each command's result must agree with the truth its inputs were
  generated from, within a stated tolerance.

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

# Generated by scripts/make_demo_inputs.py: Q_DIEL and the ring-down kappa.
Q_DIEL_TRUE = 746e3
KAPPA_INV_NS_TRUE = 300.0
# Relative tolerances on the recovered values. The coherence table carries
# 5 % log-normal scatter on 12 points (about 1.5 % on the fitted Q_diel);
# the ring-down trace has 1 % amplitude noise on 256 points.
Q_DIEL_REL_TOL = 0.10
KAPPA_REL_TOL = 0.05
# Monte-Carlo SNR tolerance in standard deviations of the estimator.
SNR_SIGMAS = 6.0


def csv_hashes(outdir: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.glob("*.csv"))}


def _rows(path: Path) -> list[dict[str, float | str]]:
    with open(path, newline="", encoding="ascii") as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        raise ValueError(f"{path.name}: no data rows")
    return [{key: _number(value) for key, value in row.items()} for row in rows]


def _number(text: str) -> float | str:
    try:
        return float(text)
    except ValueError:
        return text


def snr_tolerance(snr: float, shots_per_state: int) -> float:
    """SNR_SIGMAS standard deviations of the separation-over-width estimate.

    With n shots per state the centroid difference contributes variance
    2/n and the pooled width snr^2/(4n), in units of the noise width.
    """
    return SNR_SIGMAS * math.sqrt((2.0 + 0.25 * snr * snr) / shots_per_state)


def _check_snr_rows(rows, shots_per_state: int) -> list[str]:
    problems = []
    for row in rows:
        closed, monte = row["snr_eq1"], row["snr_mc"]
        tol = snr_tolerance(closed, shots_per_state)
        if not abs(monte - closed) <= tol:
            problems.append(f"snr_mc {monte} differs from snr_eq1 {closed} "
                            f"by more than {tol:.4g}")
    return problems


def _near(name: str, value: float, truth: float, rel_tol: float) -> list[str]:
    if abs(value - truth) <= rel_tol * truth:
        return []
    return [f"{name} = {value} is not within {rel_tol:.0%} of {truth}"]


def check_design(outdir, _shots):
    row = _rows(outdir / "design.csv")[0]
    if not 0 < row["f_low_ghz"] <= row["f_nominal_ghz"] <= row["f_high_ghz"]:
        return [f"design.csv: band not ordered: {row}"]
    return []


def check_sweep_spiral(outdir, _shots):
    rows = _rows(outdir / "spiral_sweep.csv")
    nominal = [row["f_nominal_ghz"] for row in rows]
    if nominal != sorted(nominal, reverse=True):
        return ["spiral_sweep.csv: f_nominal_ghz does not fall with length"]
    return []


def check_budget_t1(outdir, _shots):
    rows = _rows(outdir / "t1_budget.csv")
    if any(not row["t1_total_us"] <= row["t1_dielectric_us"] for row in rows):
        return ["t1_budget.csv: t1_total_us exceeds t1_dielectric_us"]
    return []


def check_simulate_readout(outdir, shots_per_state):
    problems = _check_snr_rows(_rows(outdir / "readout_summary.csv"),
                               shots_per_state)
    with open(outdir / "shots.csv", "rb") as handle:
        lines = sum(chunk.count(b"\n") for chunk in iter(
            lambda: handle.read(1 << 20), b""))
    if lines != 2 * shots_per_state + 1:
        problems.append(f"shots.csv has {lines} lines, "
                        f"expected {2 * shots_per_state + 1}")
    return problems


def check_snr_sweep(outdir, shots_per_state):
    return _check_snr_rows(_rows(outdir / "snr_sweep.csv"), shots_per_state)


def check_fit_lk(outdir, _shots):
    lk = _rows(outdir / "lk_extraction.csv")[0]["lk_ph_sq"]
    if not (isinstance(lk, float) and math.isfinite(lk) and lk > 0.0):
        return [f"lk_extraction.csv: lk_ph_sq = {lk} is not a positive number"]
    return []


def check_fit_kappa(outdir, _shots):
    ring = _rows(outdir / "kappa_ringdown.csv")[0]
    _rows(outdir / "kappa_offset.csv")
    return _near("kappa_inv_ns", ring["kappa_inv_ns"], KAPPA_INV_NS_TRUE,
                 KAPPA_REL_TOL)


def check_fit_qdiel(outdir, _shots):
    params = _rows(outdir / "qdiel_params.csv")[0]
    problems = _near("q_diel", params["q_diel"], Q_DIEL_TRUE, Q_DIEL_REL_TOL)
    if params["converged"] != 1.0:
        problems.append("qdiel_params.csv: fit did not converge")
    return problems


CHECKS = {
    "design-resonator": check_design,
    "sweep-spiral": check_sweep_spiral,
    "budget-t1": check_budget_t1,
    "simulate-readout": check_simulate_readout,
    "snr-sweep": check_snr_sweep,
    "fit-lk": check_fit_lk,
    "fit-kappa": check_fit_kappa,
    "fit-qdiel": check_fit_qdiel,
}


def check_outputs(command: str, outdir: Path, shots_per_state: int) -> list[str]:
    """Physics checks for one invocation; a missing or unreadable file fails."""
    try:
        return CHECKS[command](outdir, shots_per_state)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"{command}: unreadable output: {exc!r}"]


class IdentityLedger:
    """First-seen CSV hashes per command; later invocations must match."""

    def __init__(self):
        self.reference: dict[str, dict[str, str]] = {}

    def check(self, key: str, hashes: dict[str, str]) -> list[str]:
        first = self.reference.setdefault(key, hashes)
        if hashes == first:
            return []
        changed = sorted(name for name in set(first) | set(hashes)
                         if first.get(name) != hashes.get(name))
        return [f"{key}: bytes differ from the first invocation: "
                f"{', '.join(changed)}"]
