"""Map the validity domain of the steady-state readout SNR law.

The closed-form SNR treats the cavity as settled for the whole
integration window. With the transient simulated, the pointer states
spend the first few cavity lifetimes converging, so short windows lose
separation. This script sweeps the window length and reports the ratio
of transient Monte-Carlo SNR to the closed form, which shows how many
cavity lifetimes are needed before the steady-state law is trustworthy.

    python3 scripts/readout_tradeoff.py --out tradeoff-out
"""

import argparse
import math
from pathlib import Path

from cqedkit import (
    ReadoutConfig,
    calibrate_epsilon,
    dataio,
    separation_fidelity,
    snr_sweep,
)
from cqedkit.readout import MIN_SHOTS
from cqedkit.svgplot import SvgPlot

KAPPA = 1.0 / 300e-9
CHI = math.pi * 930e3


def base_config(n_shots: int, seed: int) -> ReadoutConfig:
    tau_ref = 700e-9
    epsilon = calibrate_epsilon(5.0, KAPPA, CHI, tau_ref)
    return ReadoutConfig(epsilon=epsilon, kappa=KAPPA, chi=CHI,
                         tau_m=tau_ref, n_shots=n_shots, seed=seed,
                         transient=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="tradeoff-out")
    parser.add_argument("--shots", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    if args.shots < MIN_SHOTS:
        parser.error(f"--shots must be at least {MIN_SHOTS}, got {args.shots}")
    if not 0 <= args.seed < 2**64:
        parser.error(f"--seed must be in [0, 2**64), got {args.seed}")

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    config = base_config(args.shots, args.seed)

    kappa_tau_grid = [2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0]
    # snr_sweep samples each window under its own sub-seed, so the ratios
    # carry independent Monte-Carlo errors
    points = snr_sweep(config, [kt / KAPPA for kt in kappa_tau_grid])
    rows = []
    print(f"{'kappa*tau':>9} {'tau_ns':>8} {'snr_closed':>10} "
          f"{'snr_mc':>8} {'ratio':>7} {'fidelity_mc':>12}")
    for kappa_tau, point in zip(kappa_tau_grid, points):
        tau, closed = point.tau_m, point.snr_closed_form
        mc = point.snr_monte_carlo
        ratio = mc / closed
        rows.append([kappa_tau, tau * 1e9, closed, mc, ratio,
                     separation_fidelity(mc)])
        print(f"{kappa_tau:9.1f} {tau * 1e9:8.1f} {closed:10.3f} "
              f"{mc:8.3f} {ratio:7.4f} {separation_fidelity(mc):12.6f}")

    dataio.write_csv(outdir / "tradeoff.csv",
                     ["kappa_tau", "tau_ns", "snr_closed", "snr_mc",
                      "ratio", "fidelity_mc"], rows)

    plot = SvgPlot("kappa * tau", "transient SNR / closed-form SNR",
                   "steady-state law accuracy vs integration window")
    plot.add_line([r[0] for r in rows], [r[4] for r in rows])
    plot.add_line([r[0] for r in rows], [1.0] * len(rows), color="#999999")
    plot.write(outdir / "tradeoff.svg")

    worst = min(rows, key=lambda r: r[4])
    good = [r for r in rows if r[4] >= 0.95]
    print(f"\nwrote {outdir / 'tradeoff.csv'} and {outdir / 'tradeoff.svg'}")
    print(f"largest deficit: ratio {worst[4]:.3f} at kappa*tau {worst[0]:.0f}")
    if good:
        print(f"within 5% of the closed form from kappa*tau "
              f"{good[0][0]:.0f} onward")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
