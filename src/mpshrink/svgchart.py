"""A tiny static SVG line-chart writer: axes, tick labels, polylines, a
legend and an optional dashed reference line. Just enough for risk curves;
output is deterministic for identical inputs.
"""

from __future__ import annotations

import math
from html import escape

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 18
_MARGIN_TOP = 38
_MARGIN_BOTTOM = 50


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _fmt(v) -> str:
    """A coordinate: an int as is, any other number at two decimals."""
    return str(v) if isinstance(v, int) else f"{v:.2f}"


def _line(x1, y1, x2, y2, stroke: str = "#333", width: int = 1, extra: str = "") -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{width}"{extra}/>'
    )


def _text(x, y, body: str, size: int, fill: str, anchor: str = "middle", extra: str = "") -> str:
    """anchor "" leaves text-anchor out."""
    anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}"{anchor_attr} font-family="sans-serif" '
        f'font-size="{size}" fill="{fill}"{extra}>{escape(body)}</text>'
    )


def line_chart(
    series: list[tuple[str, list[float], list[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    ref_y: float | None = None,
    ref_label: str = "",
) -> str:
    """Render labeled (xs, ys) series as a _WIDTH x _HEIGHT SVG document string.

    ref_y draws a dashed horizontal reference line (e.g. the risk of the
    unshrunk estimator). Series colors cycle through a fixed palette.
    """
    if not series:
        raise ValueError("at least one series is required")
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys] + ([] if ref_y is None else [ref_y])
    if not xs_all:
        raise ValueError("series contain no points")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(_text(_WIDTH // 2, 22, title, 15, "#222"))
    # axes
    ax_bottom = _MARGIN_TOP + plot_h
    ax_right = _MARGIN_LEFT + plot_w
    parts.append(_line(_MARGIN_LEFT, ax_bottom, ax_right, ax_bottom))
    parts.append(_line(_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_LEFT, ax_bottom))
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(_line(x, ax_bottom, x, ax_bottom + 5))
        parts.append(_text(x, ax_bottom + 19, f"{t:.4g}", 11, "#333"))
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(_line(_MARGIN_LEFT - 5, y, _MARGIN_LEFT, y))
        parts.append(_text(_MARGIN_LEFT - 8, y + 4, f"{t:.4g}", 11, "#333", "end"))
    if xlabel:
        parts.append(_text(_MARGIN_LEFT + plot_w // 2, _HEIGHT - 12, xlabel, 12, "#222"))
    if ylabel:
        mid_y = _MARGIN_TOP + plot_h // 2
        rotate = f' transform="rotate(-90 16 {mid_y})"'
        parts.append(_text(16, mid_y, ylabel, 12, "#222", extra=rotate))
    if ref_y is not None:
        y = py(ref_y)
        parts.append(_line(_MARGIN_LEFT, y, ax_right, y, "#888", extra=' stroke-dasharray="6 4"'))
        if ref_label:
            parts.append(_text(ax_right - 4, y - 5, ref_label, 11, "#666", "end"))
    for i, (label, xs, ys) in enumerate(series):
        if len(xs) != len(ys):
            raise ValueError(f"series {label!r}: {len(xs)} x values vs {len(ys)} y values")
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
    # legend, top right inside the plot
    legend_x = ax_right - 150
    legend_y = _MARGIN_TOP + 10
    row_h = 17
    parts.append(
        f'<rect x="{legend_x - 8}" y="{legend_y - 12}" width="150" '
        f'height="{row_h * len(series) + 10}" fill="white" fill-opacity="0.85" '
        f'stroke="#ccc" stroke-width="0.5"/>'
    )
    for i, (label, _, _) in enumerate(series):
        y = legend_y + i * row_h
        parts.append(_line(legend_x, y, legend_x + 22, y, PALETTE[i % len(PALETTE)], 2))
        parts.append(_text(legend_x + 28, y + 4, label, 11, "#222", ""))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
