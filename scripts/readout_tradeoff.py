"""Map the validity domain of the steady-state readout SNR law.

The closed-form SNR treats the cavity as settled for the whole
integration window. With the transient included, the pointer states
spend the first few cavity lifetimes converging, so short windows lose
separation. This script sweeps the window length and reports the ratio
of the exact transient SNR (the mean separation of the integrated
pointer signals over the noise width) to the closed form, and the
window at which that ratio reaches 0.95: how many cavity lifetimes are
needed before the steady-state law is trustworthy. Nothing is sampled,
so the output depends on no seed.

    python3 scripts/readout_tradeoff.py --out tradeoff-out
"""

import argparse
import math
from pathlib import Path

from cqedkit import (ReadoutConfig, calibrate_epsilon, dataio, integrated_signal,
                     noise_sigma, separation_fidelity, snr_asymptotic)
from cqedkit.svgplot import SvgPlot

KAPPA = 1.0 / 300e-9
CHI = math.pi * 930e3
TAU_REF = 700e-9
EPSILON = calibrate_epsilon(5.0, KAPPA, CHI, TAU_REF)
LEVEL = 0.95


def snr_pair(kappa_tau: float) -> tuple[float, float]:
    """Closed-form and exact transient SNR for a window of kappa_tau lifetimes."""
    config = ReadoutConfig(epsilon=EPSILON, kappa=KAPPA, chi=CHI,
                           tau_m=kappa_tau / KAPPA, transient=True)
    separation = integrated_signal("e", config) - integrated_signal("g", config)
    return snr_asymptotic(config), abs(separation) / noise_sigma(config)


def crossing(lo: float, hi: float) -> float:
    """The kappa*tau in [lo, hi] where exact / closed reaches LEVEL, by
    bisection down to adjacent floats; it is below LEVEL at lo, not at hi."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        closed, exact = snr_pair(mid)
        lo, hi = (mid, hi) if exact / closed < LEVEL else (lo, mid)
    return hi


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="tradeoff-out")
    args = parser.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    kappa_tau_grid = [2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0]
    rows = []
    print(f"{'kappa*tau':>9} {'tau_ns':>8} {'snr_closed':>10} "
          f"{'snr_exact':>9} {'ratio':>7} {'fidelity':>9}")
    for kappa_tau in kappa_tau_grid:
        closed, exact = snr_pair(kappa_tau)
        tau_ns = kappa_tau / KAPPA * 1e9
        fidelity = separation_fidelity(exact)
        rows.append([kappa_tau, tau_ns, closed, exact, exact / closed, fidelity])
        print(f"{kappa_tau:9.1f} {tau_ns:8.1f} {closed:10.3f} "
              f"{exact:9.3f} {exact / closed:7.4f} {fidelity:9.6f}")

    dataio.write_csv(outdir / "tradeoff.csv",
                     ["kappa_tau", "tau_ns", "snr_closed", "snr_exact",
                      "ratio", "fidelity_exact"], rows)

    plot = SvgPlot("kappa * tau", "transient SNR / closed-form SNR",
                   "steady-state law accuracy vs integration window")
    plot.add_line([r[0] for r in rows], [r[4] for r in rows])
    plot.add_line([r[0] for r in rows], [1.0] * len(rows), color="#999999")
    plot.write(outdir / "tradeoff.svg")

    worst = min(rows, key=lambda r: r[4])
    print(f"\nwrote {outdir / 'tradeoff.csv'} and {outdir / 'tradeoff.svg'}")
    print(f"largest deficit: ratio {worst[4]:.3f} at kappa*tau {worst[0]:.0f}")
    # the first grid interval over which the ratio rises through LEVEL
    bracket = next(((lo[0], hi[0]) for lo, hi in zip(rows, rows[1:])
                    if lo[4] < LEVEL <= hi[4]), None)
    if bracket is not None:
        print(f"ratio reaches {LEVEL} at kappa*tau {crossing(*bracket):.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
