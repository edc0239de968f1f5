"""In-memory spans around cqedkit's layer boundaries, recorded from outside.

``Tracer.install`` replaces each function named in ``LAYERS`` by a wrapper
that records a span (name, start, end, parent, invocation) and the layer's
work counts. The replacement is made everywhere the original object is
bound inside the cqedkit package, so names imported with ``from x import
f`` (``readout.fit_gaussian_1d``, ``readout.erfc``, ``cli.parse_config``)
are traced at the place the caller looks them up. ``cli.main`` is the root
span; each root span starts a new invocation id.

Also here: the ``python -X importtime`` parser behind the ``import.*``
layer metrics.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(path) -> int:
    return os.path.getsize(path)


def _rows_loaded(result) -> int:
    return len(result[0]) if isinstance(result, tuple) else len(result)


# Layer name -> counter(args, kwargs, result) giving that call's work counts.
# Every layer also counts calls, errors and self time.
LAYERS = {
    "cli.main": None,
    "config.parse_config": None,
    "dataio.write_csv": lambda a, kw, res: {
        "rows": len(_arg(a, kw, 2, "rows")), "bytes": _file_bytes(res)},
    "dataio.write_shots_csv": None,
    "dataio.load_ringdown_csv": lambda a, kw, res: {"rows": _rows_loaded(res)},
    "dataio.load_kappa_offset_csv": lambda a, kw, res: {"rows": _rows_loaded(res)},
    "dataio.load_coherence_csv": lambda a, kw, res: {"rows": _rows_loaded(res)},
    "readout.simulate_shots": lambda a, kw, res: {
        "shots": len(res.i_ground) + len(res.i_excited)},
    "readout.histogram_fit": None,
    "readout.snr_sweep": None,
    "fitting.least_squares": lambda a, kw, res: {"iterations": res.iterations},
    "fitting.fit_gaussian_1d": None,
    "fitting.erfc": None,
    "resonator.frequency_band": None,
    "resonator.fit_kappa_ringdown": None,
    "resonator.fit_kappa_offset": None,
    "coherence.fit_qdiel": None,
    "coherence.t1_total": None,
    "svgplot.SvgPlot.write": lambda a, kw, res: {"bytes": _file_bytes(res)},
}


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    invocation: int
    start_ns: int
    end_ns: int = 0
    error: bool = False


PACKAGE = "cqedkit"


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self):
        self.spans: list[Span] = []
        # (invocation, "layer.stat") -> summed count
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self._stack: list[Span] = []
        self.invocations = 0
        self._restore: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- wrapping

    def _wrap(self, name, fn, counter):
        spans, counts, stack = self.spans, self.counts, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                self.invocations += 1
            span = Span(len(spans),
                        parent.span_id if parent else None, name,
                        parent.invocation if parent else self.invocations,
                        clock())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end_ns = clock()
                stack.pop()
            if counter is not None:
                for stat, value in counter(args, kwargs, result).items():
                    counts[span.invocation, f"{name}.{stat}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer wherever the package binds it."""
        modules = [module for key, module in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, counter in LAYERS.items():
            module_name, *owner_path, attr = name.split(".")
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            targets = [owner] if owner_path else modules
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._restore.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    # -------------------------------------------------------------- analysis

    def self_times(self) -> dict[int, int]:
        """span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = {}
        for span in self.spans:
            covered, cursor = 0, span.start_ns
            for child in sorted(children[span.span_id], key=lambda s: s.start_ns):
                lo = max(child.start_ns, cursor)
                hi = min(child.end_ns, span.end_ns)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.span_id] = span.end_ns - span.start_ns - covered
        return out

    def unaccounted_roots(self) -> list[str]:
        """Root spans whose descendants' self times do not sum to their length."""
        self_ns = self.self_times()
        totals = defaultdict(int)
        for span in self.spans:
            totals[span.invocation] += self_ns[span.span_id]
        return [f"invocation {span.invocation}: self times sum to "
                f"{totals[span.invocation]} ns, root lasts "
                f"{span.end_ns - span.start_ns} ns"
                for span in self.spans
                if span.parent is None
                and totals[span.invocation] != span.end_ns - span.start_ns]

    def totals_by_invocation(self) -> dict[int, dict[str, float]]:
        """invocation -> per-layer calls, errors, self_ms and work counts."""
        self_ns = self.self_times()
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            totals = out[span.invocation]
            totals[f"{span.name}.calls"] += 1
            totals[f"{span.name}.errors"] += span.error
            totals[f"{span.name}.self_ms"] += self_ns[span.span_id] / 1e6
        for (invocation, key), value in self.counts.items():
            out[invocation][key] += value
        return out

    def dump(self) -> dict:
        return {
            "spans": [[s.span_id, s.parent, s.name, s.invocation,
                       s.start_ns, s.end_ns, s.error] for s in self.spans],
            "span_fields": ["id", "parent", "name", "invocation",
                            "start_ns", "end_ns", "error"],
            "counts": [[inv, key, value]
                       for (inv, key), value in sorted(self.counts.items())],
        }


# ------------------------------------------------------------------ imports

def parse_importtime(stderr: str) -> dict[str, float]:
    """``import.*`` metrics (ms) from ``python -X importtime -c "import cqedkit"``.

    ``total_ms`` is the cumulative time of importing cqedkit;
    ``<top>_ms`` for numpy and scipy sums the cumulative time of each
    subtree rooted in that top-level package and not nested in either (so
    numpy modules first imported by scipy count towards scipy);
    ``cqedkit_self_ms`` sums the self time of cqedkit's own modules.
    """
    entries = []  # (depth, top-level name, self_us, cumulative_us)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        # One space after the bar, then two per nesting level.
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip().split(".")[0],
                        int(self_us), int(cumulative_us)))
    # -X importtime prints children before their parent, so walk backwards
    # to know each entry's ancestors.
    metrics = {"total_ms": 0.0, "numpy_ms": 0.0, "scipy_ms": 0.0,
               "cqedkit_self_ms": 0.0}
    ancestors: list[str] = []
    for depth, top, self_us, cumulative_us in reversed(entries):
        del ancestors[depth:]
        if depth == 0 and top == PACKAGE:
            metrics["total_ms"] += cumulative_us / 1000.0
        if top == PACKAGE:
            metrics["cqedkit_self_ms"] += self_us / 1000.0
        if top in ("numpy", "scipy") and not {"numpy", "scipy"} & set(ancestors):
            metrics[f"{top}_ms"] += cumulative_us / 1000.0
        ancestors.append(top)
    return metrics
