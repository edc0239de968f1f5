"""Minimal deterministic SVG line/scatter plots.

Just enough for the figure-like outputs: polyline series, scatter markers,
a filled band, linear axes with five ticks each. Points with a non-finite
coordinate are left out. No external plotting dependency, and the output
bytes depend only on the data handed in.
"""

from __future__ import annotations

import math
from pathlib import Path

WIDTH = 640
HEIGHT = 480
MARGIN_LEFT = 78
MARGIN_RIGHT = 24
MARGIN_TOP = 28
MARGIN_BOTTOM = 56
N_TICKS = 5

_COLORS = ("#30609f", "#b5512d", "#3c8048", "#7b5aa0")


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def _axis(low: float, high: float, pad: float) -> tuple[float, float]:
    """Axis ends for data from ``low`` to ``high``, padded by ``pad`` of the
    span unless that span overflows; one value widens by 1, or by a quarter
    of it where 1 rounds away."""
    if low == high:
        half = 1.0 if abs(low) < 2.0**52 else 0.25 * abs(low)
        low, high = low - half, high + half
    padded = low - pad * (high - low), high + pad * (high - low)
    return padded if math.isfinite(padded[1] - padded[0]) else (low, high)


class SvgPlot:
    """Accumulates series, then writes one self-contained SVG file."""

    def __init__(self, x_label: str, y_label: str, title: str):
        self.x_label = x_label
        self.y_label = y_label
        self.title = title
        self._series = []   # (kind, xs, ys, ys2, color)
        self._color_index = 0

    def _next_color(self) -> str:
        color = _COLORS[self._color_index % len(_COLORS)]
        self._color_index += 1
        return color

    def _add(self, kind: str, color: str | None, xs, ys, ys2=None):
        """Keep the points whose coordinates are all finite.

        A series left without points is dropped; it still takes its colour,
        so the colours of the other series do not depend on the data.
        """
        color = color or self._next_color()
        columns = [xs, ys] if ys2 is None else [xs, ys, ys2]
        points = [point for point in zip(*(map(float, c) for c in columns))
                  if all(map(math.isfinite, point))]
        if points:
            xs, ys, *rest = map(list, zip(*points))
            self._series.append((kind, xs, ys, rest[0] if rest else None, color))

    def add_line(self, xs, ys, color: str | None = None):
        self._add("line", color, xs, ys)

    def add_scatter(self, xs, ys, color: str | None = None):
        self._add("scatter", color, xs, ys)

    def add_band(self, xs, y_low, y_high):
        self._add("band", None, xs, y_low, y_high)

    def _limits(self):
        xs = [x for _, sx, *_ in self._series for x in sx]
        ys = [y for _, _, sy, sy2, _ in self._series for y in sy + (sy2 or [])]
        if not xs:
            raise ValueError("no data series to plot")
        return (*_axis(min(xs), max(xs), 0.04), *_axis(min(ys), max(ys), 0.06))

    def write(self, path) -> Path:
        path = Path(path)
        x_min, x_max, y_min, y_max = self._limits()
        plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

        def px(x):
            return MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

        def py(y):
            return MARGIN_TOP + (y_max - y) / (y_max - y_min) * plot_h

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
            f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" '
            f'height="{plot_h}" fill="none" stroke="#404040" stroke-width="1"/>',
            f'<text x="{WIDTH / 2:g}" y="{MARGIN_TOP - 9}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{self.title}</text>',
        ]

        for k in range(N_TICKS):
            frac = k / (N_TICKS - 1)
            x_val = x_min + frac * (x_max - x_min)
            y_val = y_min + frac * (y_max - y_min)
            x_pos = px(x_val)
            y_pos = py(y_val)
            parts.append(
                f'<line x1="{x_pos:.2f}" y1="{MARGIN_TOP + plot_h}" '
                f'x2="{x_pos:.2f}" y2="{MARGIN_TOP + plot_h + 5}" '
                f'stroke="#404040" stroke-width="1"/>')
            parts.append(
                f'<text x="{x_pos:.2f}" y="{MARGIN_TOP + plot_h + 19}" '
                f'text-anchor="middle" font-family="sans-serif" '
                f'font-size="11">{_fmt(x_val)}</text>')
            parts.append(
                f'<line x1="{MARGIN_LEFT - 5}" y1="{y_pos:.2f}" '
                f'x2="{MARGIN_LEFT}" y2="{y_pos:.2f}" '
                f'stroke="#404040" stroke-width="1"/>')
            parts.append(
                f'<text x="{MARGIN_LEFT - 8}" y="{y_pos:.2f}" dy="0.32em" '
                f'text-anchor="end" font-family="sans-serif" '
                f'font-size="11">{_fmt(y_val)}</text>')

        parts.append(
            f'<text x="{MARGIN_LEFT + plot_w / 2:g}" y="{HEIGHT - 12}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="13">{self.x_label}</text>')
        parts.append(
            f'<text x="16" y="{MARGIN_TOP + plot_h / 2:g}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 16 {MARGIN_TOP + plot_h / 2:g})">'
            f'{self.y_label}</text>')

        for kind, xs, ys, ys2, color in self._series:
            if kind == "band":
                forward = [f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys2)]
                backward = [f"{px(x):.2f},{py(y):.2f}"
                            for x, y in zip(reversed(xs), reversed(ys))]
                parts.append(
                    f'<polygon points="{" ".join(forward + backward)}" '
                    f'fill="{color}" fill-opacity="0.25" stroke="none"/>')
            elif kind == "line":
                points = " ".join(f"{px(x):.2f},{py(y):.2f}"
                                  for x, y in zip(xs, ys))
                parts.append(
                    f'<polyline points="{points}" fill="none" '
                    f'stroke="{color}" stroke-width="1.6"/>')
            else:
                for x, y in zip(xs, ys):
                    parts.append(
                        f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" '
                        f'fill="{color}"/>')
        parts.append("</svg>")
        path.write_text("\n".join(parts) + "\n", encoding="ascii")
        return path
