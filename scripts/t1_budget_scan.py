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

import numpy as np

from cqedkit import LossModel, PurcellParams, dataio, t1_budget
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

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = np.linspace(args.f_min_ghz * 1e9, args.f_max_ghz * 1e9, args.points)
    f_ghz = grid / 1e9
    q_values = [0.5e6, 746e3, 1.0e6]

    tables = []
    plot = SvgPlot("qubit frequency (GHz)", "T1 (us)",
                   "relaxation budget with and without Purcell decay")
    print(f"{'q_diel':>9} {'t1_us at f_min':>14} {'t1_us at f_max':>14} "
          f"{'purcell dominates above':>24}")
    for q_diel in q_values:
        # t1_budget returns tuples of floats; as arrays they scale in one step
        *_, t1_bare = map(np.array, t1_budget(grid, LossModel(q_diel=q_diel)))
        t1_diel, t1_purcell, t1_loaded = map(np.array, t1_budget(
            grid, LossModel(q_diel=q_diel, purcell=PURCELL)))
        tables.append(np.column_stack([np.full(grid.size, q_diel), f_ghz,
                                       t1_bare * 1e6, t1_loaded * 1e6]))
        plot.add_line(f_ghz, t1_bare * 1e6, color="#999999")
        plot.add_line(f_ghz, t1_loaded * 1e6)
        # lowest grid frequency where Purcell loss exceeds dielectric loss
        purcell_wins = np.nonzero(t1_purcell < t1_diel)[0]
        label = (f"{grid[purcell_wins[0]] / 1e9:.2f} GHz" if purcell_wins.size
                 else "never in range")
        print(f"{q_diel:9.3g} {t1_loaded[0] * 1e6:14.1f} "
              f"{t1_loaded[-1] * 1e6:14.1f} {label:>24}")

    dataio.write_csv(outdir / "budget_scan.csv",
                     ["q_diel", "f_q_ghz", "t1_dielectric_only_us",
                      "t1_with_purcell_us"], np.vstack(tables))
    plot.write(outdir / "budget_scan.svg")
    print(f"\nwrote {outdir / 'budget_scan.csv'} and {outdir / 'budget_scan.svg'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
