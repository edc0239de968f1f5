"""Layered key-value run configuration.

Files use INI-style sections of ``key = value`` pairs. Unknown sections or
keys are errors; missing optional keys take the defaults listed below.
Units follow the device vocabulary: GHz, MHz, kHz, um, fF, ns, us, pH per
square. Conversion to SI happens exactly once, inside the command
builders.

Sections and keys (defaults in parentheses, '-' marks required keys):

[geometry]   disk_radius_um -, line_width_um -, gap_um -, turns -,
             feed_offset_um (20)
[film]       lk_nominal_ph_sq (2.0), lk_low_ph_sq (lk_nominal),
             lk_high_ph_sq (lk_nominal), geometric_l_per_square_ph_sq (0)
[resonator]  c_total_ff -, q_coupling (none), q_internal (1e6)
[sweep]      length_min_um -, length_max_um -, points (25, at least 2),
             measured_csv (none)
[lk]         cpw_length_um -, l_per_m_nh -, c_per_m_pf -,
             measured_f_ghz -, line_width_um -,
             geometric_l_per_square_ph_sq (0)
[kappa_fit]  trace_csv (none), offset_csv (none); at least one required
[loss]       q_diel (for budget-t1; fit-qdiel fits it), f_q_min_ghz (3.5),
             f_q_max_ghz (4.8),
             points (25, at least 2 unless f_q_min_ghz = f_q_max_ghz),
             gamma_phi_per_s (0), coherence_csv (for fit-qdiel),
             purcell_g_mhz and purcell_f_r_ghz (none; both or neither,
             and a Purcell channel takes kappa from [readout] kappa_inv_ns)
[readout]    kappa_inv_ns (300), two_chi_khz (930), tau_m_ns (700),
             target_snr (5.0, sets the drive amplitude),
             n_shots (10000), transient (false),
             tau_list_ns (175, 350, 700, 1400, 2800)
[run]        seed (0, at most 2**64 - 1), output_dir (cqedkit-out),
             emit_plots (false)

Every float and float-list value must be finite: nan and +-inf are
rejected at parse time, naming the key. This includes
``[loss] q_diel``; write negligible dielectric loss as a large finite
value (say 1e12) rather than inf. Rules that a model holds (the film band
order lk_low <= lk_nominal <= lk_high, turns >= 1) are checked where a
command builds that model, and the error names the keys (``naming_keys``).

A str value must read back whole from the resolved config that
``render_resolved`` writes into each report: one line, with no '#' or ';'
at its start or after a space. ``--out`` is held to ``[run]
output_dir``'s rule and its errors name it. ``Key`` and
``RunConfig`` are named tuples; the command line applies its overrides to
a RunConfig with ``_replace``, after checking them.
"""

from __future__ import annotations

import configparser
import contextlib
import math
import re
from collections import namedtuple
from pathlib import Path

from .errors import ConfigError, DomainError, not_utf8

DEFAULT_OUTPUT_DIR = "cqedkit-out"

_REQUIRED = object()


class Key(namedtuple("Key", "parse default bound maximum",
                     defaults=(_REQUIRED, None, None))):
    """How a config key or CSV column is read: ``parse`` is float, int,
    bool, str or float_list; ``default`` is ``_REQUIRED`` for a required key;
    ``bound`` (positive or nonnegative) and ``maximum`` hold for every
    entry, unless None."""

    __slots__ = ()

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


SCHEMA: dict[str, dict[str, Key]] = {
    "geometry": {
        "disk_radius_um": Key("float", bound="positive"),
        "line_width_um": Key("float", bound="positive"),
        "gap_um": Key("float", bound="positive"),
        "feed_offset_um": Key("float", default=20.0, bound="nonnegative"),
        "turns": Key("float", bound="positive"),
    },
    "film": {
        "lk_nominal_ph_sq": Key("float", default=2.0, bound="positive"),
        "lk_low_ph_sq": Key("float", default=None, bound="positive"),
        "lk_high_ph_sq": Key("float", default=None, bound="positive"),
        "geometric_l_per_square_ph_sq": Key("float", default=0.0, bound="nonnegative"),
    },
    "resonator": {
        "c_total_ff": Key("float", bound="positive"),
        "q_coupling": Key("float", default=None, bound="positive"),
        "q_internal": Key("float", default=1e6, bound="positive"),
    },
    "sweep": {
        "length_min_um": Key("float", bound="positive"),
        "length_max_um": Key("float", bound="positive"),
        "points": Key("int", default=25, bound="positive"),
        "measured_csv": Key("str", default=None),
    },
    "lk": {
        "cpw_length_um": Key("float", bound="positive"),
        "l_per_m_nh": Key("float", bound="nonnegative"),
        "c_per_m_pf": Key("float", bound="positive"),
        "measured_f_ghz": Key("float", bound="positive"),
        "line_width_um": Key("float", bound="positive"),
        "geometric_l_per_square_ph_sq": Key("float", default=0.0, bound="nonnegative"),
    },
    "kappa_fit": {
        "trace_csv": Key("str", default=None),
        "offset_csv": Key("str", default=None),
    },
    "loss": {
        "q_diel": Key("float", default=None, bound="positive"),
        "f_q_min_ghz": Key("float", default=3.5, bound="positive"),
        "f_q_max_ghz": Key("float", default=4.8, bound="positive"),
        "points": Key("int", default=25, bound="positive"),
        "gamma_phi_per_s": Key("float", default=0.0, bound="nonnegative"),
        "coherence_csv": Key("str", default=None),
        "purcell_g_mhz": Key("float", default=None, bound="nonnegative"),
        "purcell_f_r_ghz": Key("float", default=None, bound="positive"),
    },
    "readout": {
        "kappa_inv_ns": Key("float", default=300.0, bound="positive"),
        "two_chi_khz": Key("float", default=930.0),
        "tau_m_ns": Key("float", default=700.0, bound="positive"),
        "target_snr": Key("float", default=5.0, bound="nonnegative"),
        "n_shots": Key("int", default=10_000, bound="positive"),
        "transient": Key("bool", default=False),
        "tau_list_ns": Key("float_list", bound="positive",
                           default=(175.0, 350.0, 700.0, 1400.0, 2800.0)),
    },
    "run": {
        # numpy's seed streams take an unsigned 64-bit integer
        "seed": Key("int", default=0, bound="nonnegative", maximum=2**64 - 1),
        "output_dir": Key("str", default=None),
        "emit_plots": Key("bool", default=False),
    },
}

# What configparser cuts from a value: a line break ends it, and a comment
# prefix at its start or after a space starts an inline comment
_CUT = re.compile(r"\n|(?:^|\s)[#;]")


def parse_value(label: str, spec: Key, text: str):
    """``text`` parsed as the key's type and checked by ``check_value``;
    errors name ``label``, a config key, option or CSV cell. A str must
    read back whole from the resolved config that ``render_resolved``
    writes."""
    text = text.strip()
    if spec.parse == "str" and _CUT.search(text):
        raise ConfigError(
            f"{label}: must be one line, with no '#' or ';' at its start or "
            f"after a space, got {text!r}: configparser would not read it "
            f"back whole")
    try:
        if spec.parse == "float":
            value = float(text)
        elif spec.parse == "int":
            value = int(text, 10)
        elif spec.parse == "bool":
            try:
                value = configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
            except KeyError:
                raise ValueError(text)
        elif spec.parse == "float_list":
            items = [piece for piece in text.replace(",", " ").split() if piece]
            if not items:
                raise ValueError("empty list")
            value = tuple(float(piece) for piece in items)
        else:
            value = text
    except ValueError:
        raise ConfigError(
            f"{label}: cannot parse {text!r} as {spec.parse}") from None
    return check_value(label, spec, value)


def check_value(label: str, spec: Key, value):
    """``value``, if every entry is finite (floats only: ``math.isfinite``
    overflows on a huge int), within the key's bound and at most its
    maximum; otherwise a ConfigError naming ``label``, the key, option or
    cell that set it."""
    for item in value if spec.parse == "float_list" else (value,):
        if isinstance(item, float) and not math.isfinite(item):
            raise ConfigError(f"{label}: must be finite, got {item}")
        if (spec.bound == "positive" and item <= 0
                or spec.bound == "nonnegative" and item < 0):
            raise ConfigError(f"{label}: must be {spec.bound}, got {item}")
        if spec.maximum is not None and item > spec.maximum:
            raise ConfigError(f"{label}: must be at most {spec.maximum}, got {item}")
    return value


@contextlib.contextmanager
def naming_keys(keys: dict[str, str]):
    """A DomainError raised in the block, raised again as a ConfigError
    naming the keys its value came from.

    ``keys`` maps the word that leads the library's text, the name of the
    value it rejects, to those keys, and "" to the keys of any other text.
    """
    try:
        yield
    except DomainError as exc:
        raise ConfigError(
            f"{keys.get(str(exc).split()[0], keys[''])}: {exc}") from None


class RunConfig(namedtuple("RunConfig",
                           "source sections seed output_dir emit_plots")):
    """Fully resolved configuration: the config file's path, every present
    section but ``[run]`` as a dict of dicts, and the keys of ``[run]``,
    with defaults filled. The command line overrides the last three
    through ``_replace``."""

    __slots__ = ()

    def require(self, section: str) -> dict:
        if section not in self.sections:
            raise ConfigError(
                f"missing required config section [{section}]")
        return self.sections[section]

    def input_path(self, path_text: str) -> Path:
        """An input file named in the config, relative to the config file."""
        path = Path(path_text)
        if not path.is_absolute():
            path = self.source.parent / path
        return path

def _resolve_section(name: str, raw: dict[str, str]) -> dict[str, object]:
    schema = SCHEMA[name]
    unknown = [key for key in raw if key not in schema]
    if unknown:
        raise ConfigError(
            f"[{name}]: unknown key(s) {', '.join(sorted(unknown))}")
    resolved: dict[str, object] = {}
    for key, spec in schema.items():
        if key in raw:
            resolved[key] = parse_value(f"[{name}] {key}", spec, raw[key])
        elif spec.required:
            raise ConfigError(f"[{name}]: missing required key {key}")
        else:
            resolved[key] = spec.default
    return resolved


def _cross_validate(name: str, values: dict[str, object]) -> None:
    if name == "film":
        for key in ("lk_low_ph_sq", "lk_high_ph_sq"):
            if values[key] is None:
                values[key] = values["lk_nominal_ph_sq"]
    elif name == "sweep":
        if values["length_min_um"] >= values["length_max_um"]:
            raise ConfigError(
                "[sweep]: length_min_um must be below length_max_um")
        if values["points"] < 2:
            raise ConfigError(
                f"[sweep] points: must be at least 2 to span length_min_um "
                f"to length_max_um, got {values['points']}")
    elif name == "kappa_fit":
        if values["trace_csv"] is None and values["offset_csv"] is None:
            raise ConfigError(
                "[kappa_fit]: set trace_csv and/or offset_csv")
    elif name == "loss":
        f_min, f_max = values["f_q_min_ghz"], values["f_q_max_ghz"]
        if f_min > f_max:
            raise ConfigError(
                "[loss]: f_q_min_ghz must not exceed f_q_max_ghz")
        if values["points"] < 2 and f_min != f_max:
            raise ConfigError(
                f"[loss] points: must be at least 2 unless f_q_min_ghz "
                f"equals f_q_max_ghz, got {values['points']}")
        if (values["purcell_g_mhz"] is None) != (values["purcell_f_r_ghz"] is None):
            raise ConfigError(
                "[loss]: a Purcell channel needs purcell_g_mhz and purcell_f_r_ghz")


def parse_config(path) -> RunConfig:
    """Parse and validate a config file into a RunConfig.

    Raises ConfigError with a line number on syntax errors, and with the
    offending key and constraint on validation errors.
    """
    path = Path(path)
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from exc
    except configparser.ParsingError as exc:
        first = exc.errors[0] if getattr(exc, "errors", None) else None
        line = first[0] if first else "?"
        raise ConfigError(f"{path}: parse error at line {line}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: parse error: {exc}") from exc

    sections: dict[str, dict[str, object]] = {}
    for name in parser.sections():
        if name not in SCHEMA:
            raise ConfigError(f"unknown config section [{name}]")
        resolved = _resolve_section(name, dict(parser[name]))
        _cross_validate(name, resolved)
        sections[name] = resolved
    loss = sections.get("loss", {})
    if loss.get("purcell_g_mhz") is not None and "readout" not in sections:
        raise ConfigError("[loss]: a Purcell channel needs [readout] kappa_inv_ns")

    run = sections.pop("run", None) or _resolve_section("run", {})
    return RunConfig(
        source=path,
        sections=sections,
        seed=run["seed"],
        output_dir=Path(run["output_dir"] or DEFAULT_OUTPUT_DIR),
        emit_plots=run["emit_plots"],
    )


def render_resolved(config: RunConfig) -> str:
    """Render the fully resolved configuration as reusable INI text.

    Floats are written in their shortest round-trip form (``str`` equals
    ``repr`` for floats), so parsing the text back gives equal values.
    """
    sections = {**config.sections, "run": {
        "seed": config.seed, "output_dir": str(config.output_dir),
        "emit_plots": config.emit_plots}}
    lines = []
    for name in SCHEMA:
        if name not in sections:
            continue
        lines.append(f"[{name}]")
        for key, value in sections[name].items():   # in SCHEMA order
            if value is None:
                continue
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, tuple):
                text = ", ".join(map(str, value))
            else:
                text = str(value)
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)
