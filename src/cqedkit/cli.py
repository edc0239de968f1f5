"""Command-line front end.

    cqedkit <command> --config <path> [--seed N] [--out DIR] [--plots]

Commands: design-resonator, sweep-spiral, fit-lk, fit-kappa, fit-qdiel,
budget-t1, simulate-readout, snr-sweep.

Commands compute; ``main`` writes. Each ``cmd_*`` takes the resolved
config and returns its report lines plus an ordered map from file name to
artifact: a ``(header, rows)`` table, an ``SvgPlot``, or for
``shots.csv`` the iterator of ``(state, block)`` pairs that
``readout.stream_shots`` returns, which draws the shots only as
``main`` writes them. ``main`` writes the tables and the shots, the plots
only with ``--plots`` (or ``[run] emit_plots``), and last a plain-text
report that echoes the resolved configuration, overrides included, and
the tool version, then lists the results and the artifacts in map order;
the report alone is enough to repeat the run. A command that fails writes
no artifacts, and a failed write removes the files the run wrote. Failures
print a single ``error: <category>: <message>`` line and exit 1.

The closed-form commands (design-resonator, sweep-spiral, fit-lk) live
here and, with the parser, the writers and the report, run without
numpy. The numeric ones live in ``cli_numeric``, which ``main`` imports
only to run one of them. If that import is the first to load numpy, it
loads OpenBLAS with one thread unless ``OPENBLAS_NUM_THREADS`` is set.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Iterator
from dataclasses import replace
from pathlib import Path

from . import __version__, dataio, resonator
from .config import SCHEMA, RunConfig, check_value, parse_config, render_resolved
from .errors import OutputError, ToolError
from .svgplot import SvgPlot


# ---------------------------------------------------------------- builders

def _build_film(values) -> resonator.FilmProperties:
    return resonator.FilmProperties(
        lk_nominal=values["lk_nominal_ph_sq"],
        lk_low=values["lk_low_ph_sq"],
        lk_high=values["lk_high_ph_sq"],
        geometric_l_per_square=values["geometric_l_per_square_ph_sq"],
    )


def _build_geometry(values) -> resonator.SpiralGeometry:
    length = values["spiral_length_um"]
    return resonator.build_spiral(
        disk_radius=values["disk_radius_um"] * 1e-6,
        line_width=values["line_width_um"] * 1e-6,
        gap=values["gap_um"] * 1e-6,
        feed_offset=values["feed_offset_um"] * 1e-6,
        turns=values["turns"],
        spiral_length=None if length is None else length * 1e-6,
    )


# ---------------------------------------------------------------- commands

def cmd_design_resonator(config: RunConfig):
    geometry = _build_geometry(config.require("geometry"))
    film = _build_film(config.require("film"))
    res = config.require("resonator")
    c_total = res["c_total_ff"] * 1e-15
    n_squares = resonator.squares(geometry.spiral_length, geometry.line_width)
    inductance = resonator.total_inductance(n_squares, film)
    f_low, f_nominal, f_high = resonator.frequency_band(geometry, film, c_total)
    band = 1.0 - f_low / f_high

    columns = {
        "squares": n_squares,
        "inductance_nominal_nh": inductance * 1e9,
        "f_low_ghz": f_low / 1e9,
        "f_nominal_ghz": f_nominal / 1e9,
        "f_high_ghz": f_high / 1e9,
        "fractional_band": band,
    }
    lines = [f"{name}: {value:.6g}" for name, value in columns.items()]

    kappa = None
    if res["kappa0_per_s"] is not None and res["d0_um"] is not None:
        kappa = resonator.kappa_offset_model(
            geometry.feed_offset, res["kappa0_per_s"], res["d0_um"] * 1e-6)
        lines.append(f"kappa_from_offset_per_s: {kappa:.6g}")
    elif res["q_coupling"] is not None:
        kappa = resonator.kappa_from_qc(f_nominal, res["q_coupling"])
        lines.append(f"kappa_from_qc_per_s: {kappa:.6g}")
    if kappa is not None:
        mode = resonator.ResonatorMode(
            f_nominal, resonator.q_c_from_kappa(f_nominal, kappa),
            res["q_internal"])
        lines.append(f"kappa_inv_ns: {1e9 / kappa:.6g}")
        lines.append(f"over_coupled: {str(mode.over_coupled).lower()}")
        columns.update(kappa_per_s=kappa, kappa_inv_ns=1e9 / kappa)
    return lines, {"design.csv": (list(columns), [list(columns.values())])}


def cmd_sweep_spiral(config: RunConfig):
    base_geometry = _build_geometry(config.require("geometry"))
    film = _build_film(config.require("film"))
    c_total = config.require("resonator")["c_total_ff"] * 1e-15
    sweep = config.require("sweep")
    start, stop = sweep["length_min_um"], sweep["length_max_um"]
    # the bits of np.linspace: i * step + start, the last point exactly stop
    step = (stop - start) / (sweep["points"] - 1)
    lengths_um = [i * step + start for i in range(sweep["points"] - 1)]
    lengths_um.append(stop)
    rows = []
    for length_um in lengths_um:
        geometry = replace(base_geometry, spiral_length=length_um * 1e-6)
        band = resonator.frequency_band(geometry, film, c_total)
        rows.append([length_um, *(f / 1e9 for f in band)])
    _, f_low, f_nominal, f_high = zip(*rows)
    lines = [f"points: {len(rows)}",
             f"f_nominal_ghz_range: {f_nominal[-1]:.6g} .. {f_nominal[0]:.6g}"]

    plot = SvgPlot("spiral length (um)", "frequency (GHz)",
                   "resonance band vs spiral length")
    plot.add_band(lengths_um, f_low, f_high)
    plot.add_line(lengths_um, f_nominal, color="#30609f")
    if sweep["measured_csv"] is not None:
        measured = dataio.load_resonator_csv(
            config.input_path(sweep["measured_csv"]))
        lines.append(f"measured_points: {len(measured[0])}")
        plot.add_scatter(measured[0], measured[1], color="#b5512d")
    table = (["spiral_length_um", "f_low_ghz", "f_nominal_ghz", "f_high_ghz"],
             rows)
    return lines, {"spiral_sweep.csv": table, "spiral_sweep.svg": plot}


def cmd_fit_lk(config: RunConfig):
    values = config.require("lk")
    structure = resonator.CpwTestStructure(
        length=values["cpw_length_um"] * 1e-6,
        l_per_length=values["l_per_m_nh"] * 1e-9,
        c_per_length=values["c_per_m_pf"] * 1e-12,
        termination=values["termination"],
    )
    lk = resonator.extract_lk_cpw(
        measured_f=values["measured_f_ghz"] * 1e9,
        structure=structure,
        line_width=values["line_width_um"] * 1e-6,
        geometric_l_per_square=values["geometric_l_per_square_ph_sq"],
    )
    table = (["measured_f_ghz", "lk_ph_sq"], [[values["measured_f_ghz"], lk]])
    return [f"lk_ph_sq: {lk:.6g}"], {"lk_extraction.csv": table}


COMMANDS = {
    "design-resonator": cmd_design_resonator,
    "sweep-spiral": cmd_sweep_spiral,
    "fit-lk": cmd_fit_lk,
}
# Run by cli_numeric.COMMANDS; named here so that parsing needs no numpy.
NUMERIC_COMMANDS = ("fit-kappa", "fit-qdiel", "budget-t1", "simulate-readout",
                    "snr-sweep")


def _command(name: str):
    if name in COMMANDS:
        return COMMANDS[name]
    if "numpy" not in sys.modules:
        # cqedkit's BLAS products are far too small for OpenBLAS to thread
        # and it runs its own drawing threads, so an idle BLAS worker only
        # burns CPU. Set before numpy loads; a caller's own value wins.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import cli_numeric
    return cli_numeric.COMMANDS[name]


def _write_all(outdir: Path, files: dict) -> None:
    """Write each file under a ``.partial`` name, then move all into place.

    The shots still stream to disk. Any failure removes every file this
    run wrote, so a failed run leaves no artifact behind; an OSError
    becomes an OutputError naming the path.
    """
    written = []
    path = outdir
    try:
        for name, artifact in files.items():
            path = outdir / f"{name}.partial"
            written.append(path)
            if isinstance(artifact, str):
                path.write_text(artifact, encoding="utf-8")
            elif isinstance(artifact, SvgPlot):
                artifact.write(path)
            elif isinstance(artifact, Iterator):
                dataio.write_shots_csv(path, artifact)
            else:
                dataio.write_csv(path, *artifact)
        for name in files:
            path = outdir / name
            os.replace(outdir / f"{name}.partial", path)
            written.append(path)
    except BaseException as exc:
        for done in written:
            with contextlib.suppress(OSError):
                done.unlink()
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cqedkit",
        description="Design and analysis tools for kinetic-inductance "
                    "readout circuits.")
    parser.add_argument("command",
                        choices=sorted([*COMMANDS, *NUMERIC_COMMANDS]))
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the [run] seed")
    parser.add_argument("--out", default=None,
                        help="override the output directory")
    parser.add_argument("--plots", action="store_true",
                        help="emit SVG plots where the command has one")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
        if args.seed is not None:
            config.seed = check_value("--seed", SCHEMA["run"]["seed"], args.seed)
        if args.out is not None:
            config.output_dir = Path(args.out)
        if args.plots:
            config.emit_plots = True
        outdir = config.output_dir
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OutputError(f"cannot create output directory {outdir}: "
                              f"{exc.strerror or exc}") from exc
        lines, artifacts = _command(args.command)(config)
        if not config.emit_plots:
            artifacts = {name: artifact for name, artifact in artifacts.items()
                         if not isinstance(artifact, SvgPlot)}
        names = [*artifacts, "report.txt"]
        report = [
            f"tool: cqedkit {__version__}",
            f"command: {args.command}",
            f"config: {config.source}",
            f"seed: {config.seed}",
            "",
            "# resolved configuration (usable as a config file)",
            render_resolved(config).rstrip(),
            "",
            "# results",
            *lines,
            "",
            "# artifacts",
            *names,
        ]
        _write_all(outdir, {**artifacts, "report.txt": "\n".join(report) + "\n"})
    except ToolError as exc:
        print(f"error: {exc.slug}: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(f"wrote {', '.join(names)} to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
