"""Generate synthetic measurement CSVs plus a config that fits them.

Writes four input files (spiral resonance survey, coupling ring-down
trace, coupling vs feed offset, and a coherence table) into a target
directory together with ``fits.cfg``, which references them by relative
path. Afterwards the fit commands can be replayed directly:

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
    build_spiral,
    dataio,
    floats,
    frequency_band,
    t1_total,
    t2_from_t1,
)

# The generated coherence table includes a Purcell channel; fits.cfg
# declares it too (kappa in [readout]), so fit-qdiel recovers Q_DIEL unbiased.
Q_DIEL = 746e3
PURCELL = PurcellParams(g=2.0 * math.pi * 50e6, f_r=6.0e9, kappa=1.0 / 300e-9)

FITS_CFG = """\
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
q_diel = 746e3
coherence_csv = coherence.csv
purcell_g_mhz = 50
purcell_f_r_ghz = 6.0

[readout]
kappa_inv_ns = 300

[run]
seed = 7
"""


# Each writer draws its noise from ``normal``, a zero-argument callable
# that returns one standard normal, one call per row: ``main`` passes the
# stdlib's stream, and a caller may pass any other, such as
# ``np.random.default_rng(seed).standard_normal``.

def write_spiral_survey(outdir: Path, normal) -> Path:
    film = FilmProperties(lk_nominal=2.0, lk_low=2.0, lk_high=2.2)
    base = build_spiral(disk_radius=40e-6, line_width=2e-6, gap=2e-6,
                        feed_offset=20e-6, turns=20.0)
    rows = []
    for length_um in floats.linspace(2000.0, 6000.0, 9):
        geometry = SpiralGeometry(**{**base._asdict(),
                                     "spiral_length": length_um * 1e-6})
        _, f_nominal, _ = frequency_band(geometry, film, 85e-15)
        measured = f_nominal * (1.0 + 0.004 * normal())
        rows.append([length_um, measured / 1e9])
    return dataio.write_csv(outdir / "spiral_measured.csv",
                            ["spiral_length_um", "f_measured_ghz"], rows)


def write_ringdown(outdir: Path, normal, kappa=1.0 / 300e-9) -> Path:
    rows = [[t, math.exp(-0.5 * kappa * t) + 0.05 + 0.01 * normal()]
            for t in floats.linspace(0.0, 3e-6, 256)]
    return dataio.write_csv(outdir / "ringdown.csv", ["t_s", "v_amplitude"],
                            rows)


def write_kappa_offset(outdir: Path, normal, kappa0=2.5e7, d0=12e-6) -> Path:
    rows = [[offset * 1e6,
             kappa0 * math.exp(-offset / d0) * (1.0 + 0.02 * normal())]
            for offset in floats.linspace(5e-6, 45e-6, 6)]
    return dataio.write_csv(outdir / "kappa_offset.csv",
                            ["d_um", "kappa_per_s"], rows)


def write_coherence(outdir: Path, normal, sigma_ln=0.05) -> Path:
    model = LossModel(q_diel=Q_DIEL, purcell=PURCELL)
    rows = []
    for f_q in floats.linspace(3.5e9, 4.8e9, 12):
        t1 = t1_total(f_q, model) * math.exp(sigma_ln * normal())
        t2e = 0.94 * t2_from_t1(t1)
        rows.append([f_q / 1e9, t1 * 1e6, sigma_ln * t1 * 1e6, t2e * 1e6])
    return dataio.write_csv(outdir / "coherence.csv",
                            ["f_q_ghz", "t1_us", "t1_spread_us", "t2e_us"],
                            rows)


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
    normal = partial(floats.normal, random.Random(args.seed))
    written = [write(outdir, normal) for write in (
        write_spiral_survey, write_ringdown, write_kappa_offset,
        write_coherence)]
    config = outdir / "fits.cfg"
    config.write_text(FITS_CFG, encoding="ascii")
    written.append(config)

    for path in written:
        print(f"wrote {path}")
    print(f"next: python3 -m cqedkit fit-qdiel --config {config}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
