"""Generate synthetic measurement CSVs plus a config that fits them.

Writes four input files (spiral resonance survey, coupling ring-down
trace, coupling vs feed offset, and a coherence table) into a target
directory together with ``fits.cfg``, which references the last three by
relative path. The survey, ``spiral_measured.csv``, is for a ``[sweep]
measured_csv`` key, which overlays it on ``sweep-spiral``'s plot.
Afterwards the fit commands can be replayed directly:

    python3 scripts/make_demo_inputs.py demo-data
    python3 -m cqedkit fit-kappa --config demo-data/fits.cfg
    python3 -m cqedkit fit-qdiel --config demo-data/fits.cfg
    python3 -m cqedkit fit-lk    --config demo-data/fits.cfg
"""

import argparse
import math
import random
from functools import partial
from pathlib import Path

from cqedkit import (
    FilmProperties,
    LossModel,
    PurcellParams,
    SpiralGeometry,
    dataio,
    floats,
    frequency_band,
    t1_total,
    t2_from_t1,
)
from cqedkit.coherence import TWO_PI

# The generated coherence table includes a Purcell channel; fits.cfg
# declares it too (kappa in [readout]), so fit-qdiel recovers Q_DIEL
# unbiased. Each number is stated once, in the config's units, and
# PURCELL converts it as the CLI does, to the same bits.
Q_DIEL = 746e3
G_MHZ, F_R_GHZ, KAPPA_INV_NS = 50, 6.0, 300
PURCELL = PurcellParams(g=TWO_PI * G_MHZ * 1e6, f_r=F_R_GHZ * 1e9,
                        kappa=1.0 / (KAPPA_INV_NS * 1e-9))
# The coupling-vs-offset law and the coherence table's lognormal T1
# spread; the ring-down decays at the readout kappa, PURCELL.kappa
KAPPA0, D0 = 2.5e7, 12e-6
SIGMA_LN = 0.05

FITS_CFG = f"""\
[lk]
cpw_length_um = 4000
l_per_m_nh = 400
c_per_m_pf = 160
measured_f_ghz = 4.176
line_width_um = 2

[kappa_fit]
trace_csv = ringdown.csv
offset_csv = kappa_offset.csv

[loss]
q_diel = {Q_DIEL!r}
coherence_csv = coherence.csv
purcell_g_mhz = {G_MHZ!r}
purcell_f_r_ghz = {F_R_GHZ!r}

[readout]
kappa_inv_ns = {KAPPA_INV_NS!r}

[run]
seed = 7
"""


# Each writer draws its noise from ``normal``, a zero-argument callable
# that returns one standard normal, one call per row: ``main`` passes the
# stdlib's stream, and a caller may pass any other, such as
# ``np.random.default_rng(seed).standard_normal``.

def write_spiral_survey(outdir: Path, normal) -> Path:
    film = FilmProperties(lk_nominal=2.0, lk_low=2.0, lk_high=2.2)
    rows = []
    for length_um in floats.linspace(2000.0, 6000.0, 9):
        geometry = SpiralGeometry(line_width=2e-6, spiral_length=length_um * 1e-6,
                                  feed_offset=20e-6)
        _, f_nominal, _ = frequency_band(geometry, film, 85e-15)
        measured = f_nominal * (1.0 + 0.004 * normal())
        rows.append([length_um, measured / 1e9])
    return dataio.write_csv(outdir / "spiral_measured.csv",
                            ["spiral_length_um", "f_measured_ghz"], rows)


def write_ringdown(outdir: Path, normal) -> Path:
    rows = [[t, math.exp(-0.5 * PURCELL.kappa * t) + 0.05 + 0.01 * normal()]
            for t in floats.linspace(0.0, 3e-6, 256)]
    return dataio.write_csv(outdir / "ringdown.csv", ["t_s", "v_amplitude"],
                            rows)


def write_kappa_offset(outdir: Path, normal) -> Path:
    rows = [[offset * 1e6,
             KAPPA0 * math.exp(-offset / D0) * (1.0 + 0.02 * normal())]
            for offset in floats.linspace(5e-6, 45e-6, 6)]
    return dataio.write_csv(outdir / "kappa_offset.csv",
                            ["d_um", "kappa_per_s"], rows)


def write_coherence(outdir: Path, normal) -> Path:
    model = LossModel(q_diel=Q_DIEL, purcell=PURCELL)
    rows = []
    for f_q in floats.linspace(3.5e9, 4.8e9, 12):
        t1 = t1_total(f_q, model) * math.exp(SIGMA_LN * normal())
        t2e = 0.94 * t2_from_t1(t1)
        rows.append([f_q / 1e9, t1 * 1e6, SIGMA_LN * t1 * 1e6, t2e * 1e6])
    return dataio.write_csv(outdir / "coherence.csv",
                            ["f_q_ghz", "t1_us", "t1_spread_us", "t2e_us"],
                            rows)


def write_inputs(outdir: Path, normal) -> list[Path]:
    """The four CSVs, drawn in this order from ``normal``, and ``fits.cfg``,
    written to the existing directory ``outdir``; returns their paths."""
    written = [write(outdir, normal) for write in (
        write_spiral_survey, write_ringdown, write_kappa_offset,
        write_coherence)]
    config = outdir / "fits.cfg"
    config.write_text(FITS_CFG, encoding="ascii")
    return [*written, config]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", nargs="?", default="demo-data",
                        help="directory for the generated files")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error(f"--seed must be in [0, 2**64), got {args.seed}")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    # floats.normal draws through random() alone, so a seed writes the
    # same files on every Python version
    written = write_inputs(outdir, partial(floats.normal, random.Random(args.seed)))
    for path in written:
        print(f"wrote {path}")
    print(f"next: python3 -m cqedkit fit-qdiel --config {written[-1]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
