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


def _fmt(v: float) -> str:
    return f"{v:.2f}"


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
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("series contain no points")
    if ref_y is not None:
        ys_all = ys_all + [ref_y]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_lo -= pad
    y_hi += pad

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
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15" fill="#222">{escape(title)}</text>'
        )
    # axes
    ax_bottom = _MARGIN_TOP + plot_h
    ax_right = _MARGIN_LEFT + plot_w
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{ax_bottom}" x2="{ax_right}" y2="{ax_bottom}" '
        f'stroke="#333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" y2="{ax_bottom}" '
        f'stroke="#333" stroke-width="1"/>'
    )
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{ax_bottom}" x2="{_fmt(x)}" y2="{ax_bottom + 5}" '
            f'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{ax_bottom + 19}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="#333">{t:.4g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{_fmt(y)}" x2="{_MARGIN_LEFT}" y2="{_fmt(y)}" '
            f'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#333">{t:.4g}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_LEFT + plot_w / 2:.0f}" y="{_HEIGHT - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" fill="#222">{escape(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" fill="#222" '
            f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.0f})">{escape(ylabel)}</text>'
        )
    if ref_y is not None:
        y = py(ref_y)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{_fmt(y)}" x2="{ax_right}" y2="{_fmt(y)}" '
            f'stroke="#888" stroke-width="1" stroke-dasharray="6 4"/>'
        )
        if ref_label:
            parts.append(
                f'<text x="{ax_right - 4}" y="{_fmt(y - 5)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11" fill="#666">{escape(ref_label)}</text>'
            )
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
        color = PALETTE[i % len(PALETTE)]
        y = legend_y + i * row_h
        parts.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 22}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 28}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="11" fill="#222">{escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
