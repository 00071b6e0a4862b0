"""Tiny standalone SVG charts.

Every plot the pipeline emits is a self-contained SVG next to a CSV of
the underlying numbers, so nothing here tries to be a plotting library:
fixed canvas, linear scales, a handful of marks.
"""

from __future__ import annotations

import math
from itertools import groupby
from typing import Mapping, Sequence

import numpy as np

WIDTH, HEIGHT = 640, 420
MARGIN = {"left": 64, "right": 20, "top": 36, "bottom": 48}
HISTOGRAM_BINS = 20

PALETTE = ("#1f6fb2", "#d1495b", "#3a9e6e", "#8e6cb8", "#c98a2d", "#5b5b5b")


def _escape(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


class _Canvas:
    def __init__(self, title: str, xlabel: str, ylabel: str,
                 xlim: tuple[float, float], ylim: tuple[float, float]):
        self.parts: list[str] = []
        self.xlim = self._pad(xlim)
        self.ylim = self._pad(ylim)
        self.x0 = MARGIN["left"]
        self.x1 = WIDTH - MARGIN["right"]
        self.y0 = HEIGHT - MARGIN["bottom"]
        self.y1 = MARGIN["top"]
        self.parts.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">'
        )
        self.parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
        self.parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">'
            f"{_escape(title)}</text>"
        )
        self._axes(xlabel, ylabel)

    @staticmethod
    def _pad(lim: tuple[float, float]) -> tuple[float, float]:
        lo, hi = float(lim[0]), float(lim[1])
        if hi <= lo:
            hi = lo + 1.0
        span = hi - lo
        return lo - 0.05 * span, hi + 0.05 * span

    def sx(self, x: float) -> float:
        lo, hi = self.xlim
        return self.x0 + (x - lo) / (hi - lo) * (self.x1 - self.x0)

    def sy(self, y: float) -> float:
        lo, hi = self.ylim
        return self.y0 + (y - lo) / (hi - lo) * (self.y1 - self.y0)

    def _axes(self, xlabel: str, ylabel: str) -> None:
        p = self.parts
        p.append(
            f'<line x1="{self.x0}" y1="{self.y0}" x2="{self.x1}" y2="{self.y0}" stroke="black"/>'
        )
        p.append(
            f'<line x1="{self.x0}" y1="{self.y0}" x2="{self.x0}" y2="{self.y1}" stroke="black"/>'
        )
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv = self.xlim[0] + frac * (self.xlim[1] - self.xlim[0])
            yv = self.ylim[0] + frac * (self.ylim[1] - self.ylim[0])
            xs, ys = self.sx(xv), self.sy(yv)
            p.append(f'<line x1="{xs:.1f}" y1="{self.y0}" x2="{xs:.1f}" y2="{self.y0 + 4}" stroke="black"/>')
            p.append(
                f'<text x="{xs:.1f}" y="{self.y0 + 18}" text-anchor="middle">{xv:.3g}</text>'
            )
            p.append(f'<line x1="{self.x0 - 4}" y1="{ys:.1f}" x2="{self.x0}" y2="{ys:.1f}" stroke="black"/>')
            p.append(
                f'<text x="{self.x0 - 8}" y="{ys + 4:.1f}" text-anchor="end">{yv:.3g}</text>'
            )
        p.append(
            f'<text x="{(self.x0 + self.x1) / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle">'
            f"{_escape(xlabel)}</text>"
        )
        p.append(
            f'<text x="16" y="{(self.y0 + self.y1) / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {(self.y0 + self.y1) / 2:.1f})">{_escape(ylabel)}</text>'
        )

    def legend(self, labels: Sequence[str]) -> None:
        for i, label in enumerate(labels):
            x = self.x1 - 150
            y = self.y1 + 8 + 16 * i
            self.parts.append(
                f'<rect x="{x}" y="{y}" width="10" height="10" fill="{PALETTE[i % len(PALETTE)]}"/>'
            )
            self.parts.append(
                f'<text x="{x + 14}" y="{y + 9}">{_escape(label)}</text>'
            )

    def render(self, path) -> None:
        self.parts.append("</svg>")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.parts) + "\n")


def _limits(all_values) -> tuple[float, float]:
    arr = np.asarray(list(all_values), dtype=np.float64)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return (0.0, 1.0)
    return float(arr.min()), float(arr.max())


def scatter_svg(
    groups: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    path,
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """One dot series per named group."""
    xs_all = [x for xs, _ in groups.values() for x in xs]
    ys_all = [y for _, ys in groups.values() for y in ys]
    canvas = _Canvas(title, xlabel, ylabel, _limits(xs_all), _limits(ys_all))
    for i, (label, (xs, ys)) in enumerate(groups.items()):
        color = PALETTE[i % len(PALETTE)]
        for x, y in zip(xs, ys):
            canvas.parts.append(
                f'<circle cx="{canvas.sx(x):.1f}" cy="{canvas.sy(y):.1f}" r="2.5" '
                f'fill="{color}" fill-opacity="0.6"/>'
            )
    canvas.legend(list(groups))
    canvas.render(path)


def histogram_svg(
    groups: Mapping[str, Sequence[float]],
    path,
    title: str,
    xlabel: str,
) -> None:
    """Overlaid per-group histograms with HISTOGRAM_BINS shared bins."""
    values_all = [v for vs in groups.values() for v in vs]
    lo, hi = _limits(values_all)
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
    heights = {label: np.histogram(vs, bins=edges)[0] for label, vs in groups.items() if len(vs)}
    top = max((h.max() for h in heights.values()), default=1)
    canvas = _Canvas(title, xlabel, "count", (lo, hi), (0.0, float(top)))
    for i, (label, hist) in enumerate(heights.items()):
        color = PALETTE[i % len(PALETTE)]
        for b in range(HISTOGRAM_BINS):
            if hist[b] == 0:
                continue
            x_left = canvas.sx(edges[b])
            x_right = canvas.sx(edges[b + 1])
            y_top = canvas.sy(float(hist[b]))
            canvas.parts.append(
                f'<rect x="{x_left:.1f}" y="{y_top:.1f}" width="{x_right - x_left:.1f}" '
                f'height="{canvas.sy(0.0) - y_top:.1f}" fill="{color}" fill-opacity="0.45"/>'
            )
    canvas.legend(list(groups))
    canvas.render(path)


def bars_svg(
    labels: Sequence[str],
    series: Mapping[str, Sequence[float]],
    path,
    title: str,
    ylabel: str,
) -> None:
    """Grouped vertical bars, one cluster per label."""
    n = len(labels)
    canvas = _Canvas(title, "", ylabel, (0.0, float(n)),
                     (0.0, max((max(vs) for vs in series.values()), default=1.0)))
    m = max(len(series), 1)
    for i, (name, values) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        for j, value in enumerate(values):
            x_left = canvas.sx(j + 0.1 + 0.8 * i / m)
            x_right = canvas.sx(j + 0.1 + 0.8 * (i + 1) / m)
            y_top = canvas.sy(float(value))
            canvas.parts.append(
                f'<rect x="{x_left:.1f}" y="{y_top:.1f}" width="{max(x_right - x_left - 1, 1):.1f}" '
                f'height="{canvas.sy(0.0) - y_top:.1f}" fill="{color}"/>'
            )
    for j, label in enumerate(labels):
        canvas.parts.append(
            f'<text x="{canvas.sx(j + 0.5):.1f}" y="{canvas.y0 + 32}" '
            f'text-anchor="middle">{_escape(label)}</text>'
        )
    canvas.legend(list(series))
    canvas.render(path)


def lines_svg(
    x_values: Sequence[float],
    series: Mapping[str, Sequence[float]],
    path,
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """One polyline per named series over shared x values; a NaN value
    (a missing point) breaks its series' line and gets no marker."""
    ys_all = [y for vs in series.values() for y in vs]
    canvas = _Canvas(title, xlabel, ylabel, _limits(x_values), _limits(ys_all))
    for i, (label, values) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        runs = groupby(zip(x_values, values), key=lambda point: math.isfinite(point[1]))
        for run in (list(run) for finite, run in runs if finite):
            points = " ".join(f"{canvas.sx(x):.1f},{canvas.sy(y):.1f}" for x, y in run)
            canvas.parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
            canvas.parts.extend(
                f'<circle cx="{canvas.sx(x):.1f}" cy="{canvas.sy(y):.1f}" r="3" fill="{color}"/>'
                for x, y in run
            )
    canvas.legend(list(series))
    canvas.render(path)
