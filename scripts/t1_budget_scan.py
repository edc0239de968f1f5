"""Scan the relaxation budget of a tunable qubit against a readout cavity.

For each dielectric quality factor the script tabulates T1 across the
tuning range, once with only dielectric loss and once adding Purcell
decay through a cavity at 6 GHz, and locates the frequency where the two
channels contribute equally. Useful when picking how close to the cavity
a qubit can be parked before readout wiring dominates its lifetime.

    python3 scripts/t1_budget_scan.py --out budget-out
"""

import argparse
import math
from pathlib import Path

from cqedkit import LossModel, PurcellParams, dataio, floats, t1_budget
from cqedkit.svgplot import SvgPlot

TWO_PI = 2.0 * math.pi
PURCELL = PurcellParams(g=TWO_PI * 50e6, f_r=6.0e9, kappa=1.0 / 300e-9)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="budget-out")
    parser.add_argument("--f-min-ghz", type=float, default=3.5)
    parser.add_argument("--f-max-ghz", type=float, default=5.8)
    parser.add_argument("--points", type=int, default=101)
    args = parser.parse_args()
    if args.points < 1:
        parser.error(f"--points must be at least 1, got {args.points}")
    if not 0.0 < args.f_min_ghz <= args.f_max_ghz:
        parser.error(f"need 0 < --f-min-ghz <= --f-max-ghz, got "
                     f"{args.f_min_ghz} and {args.f_max_ghz}")

    grid = floats.linspace(args.f_min_ghz * 1e9, args.f_max_ghz * 1e9,
                           args.points)
    f_ghz = [f / 1e9 for f in grid]
    q_values = [0.5e6, 746e3, 1.0e6]
    budgets = [(t1_budget(grid, LossModel(q_diel=q_diel))[2],
                t1_budget(grid, LossModel(q_diel=q_diel, purcell=PURCELL)))
               for q_diel in q_values]

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    plot = SvgPlot("qubit frequency (GHz)", "T1 (us)",
                   "relaxation budget with and without Purcell decay")
    print(f"{'q_diel':>9} {'t1_us at f_min':>14} {'t1_us at f_max':>14} "
          f"{'purcell dominates above':>24}")
    for q_diel, (t1_bare, (t1_diel, t1_purcell, t1_loaded)) in zip(
            q_values, budgets):
        bare_us = [t1 * 1e6 for t1 in t1_bare]
        loaded_us = [t1 * 1e6 for t1 in t1_loaded]
        rows += ([q_diel, *row] for row in zip(f_ghz, bare_us, loaded_us))
        plot.add_line(f_ghz, bare_us, color="#999999")
        plot.add_line(f_ghz, loaded_us)
        # lowest grid frequency where Purcell loss exceeds dielectric loss
        crossing = next((f for f, purcell, diel
                         in zip(f_ghz, t1_purcell, t1_diel) if purcell < diel),
                        None)
        label = ("never in range" if crossing is None
                 else f"{crossing:.2f} GHz")
        print(f"{q_diel:9.3g} {loaded_us[0]:14.1f} {loaded_us[-1]:14.1f} "
              f"{label:>24}")

    dataio.write_csv(outdir / "budget_scan.csv",
                     ["q_diel", "f_q_ghz", "t1_dielectric_only_us",
                      "t1_with_purcell_us"], rows)
    plot.write(outdir / "budget_scan.svg")
    print(f"\nwrote {outdir / 'budget_scan.csv'} and {outdir / 'budget_scan.svg'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
