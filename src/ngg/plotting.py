"""Standalone SVG line charts, no plotting library involved.

The emitted SVG is deliberately plain: axes and ticks are <line> elements,
each data series is exactly one <path>, the legend is <rect> swatches plus
<text>. That keeps charts diffable, greppable in tests, and free of any
renderer dependency. A leading <desc> element carries machine-readable
"key=value;..." metadata (kind, y-scale, series count).
"""

from __future__ import annotations

import math
from html import escape

import numpy as np

from .errors import InvalidParamError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f")

_W, _H = 760, 480
_ML, _MR, _MT, _MB = 78, 24, 46, 58


def _nice_step(span: float, target: int) -> float:
    raw = span / max(target, 1)
    if not math.isfinite(raw):
        raise InvalidParamError("the values span more than the float range")
    mag = 10.0 ** math.floor(math.log10(raw))
    norm = raw / mag
    if norm < 1.5:
        factor = 1.0
    elif norm < 3.0:
        factor = 2.0
    elif norm < 7.0:
        factor = 5.0
    else:
        factor = 10.0
    return factor * mag


def _axis_range(lo: float, hi: float) -> tuple:
    """The drawn range for values from lo to hi. One narrower than 16 float steps
    at its magnitude (where a subnormal range's tick step underflows to 0) is
    widened by 0.5 on each side, or by 16 steps where 0.5 is less."""
    least = 16 * math.ulp(max(abs(lo), abs(hi)))
    pad = max(0.5, least)
    return (lo, hi) if hi - lo >= least else (lo - pad, hi + pad)


def _linear_ticks(lo: float, hi: float, target: int = 5) -> list:
    step = _nice_step(hi - lo, target)
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + step * 1e-9 and math.isfinite(t):  # hi may round up to inf
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list:
    lo_d = math.floor(math.log10(lo))
    hi_d = math.ceil(math.log10(hi))
    return [10.0 ** d for d in range(lo_d, hi_d + 1)]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _column_extremes(px: np.ndarray, ys: np.ndarray) -> list:
    """Indices of the points to draw: of each run of consecutive points in one
    whole-pixel column, the first, lowest, highest and last, in order."""
    bounds = [0, *(np.flatnonzero(np.diff(np.floor(px))) + 1).tolist(), len(px)]
    return [i for a, b in zip(bounds, bounds[1:]) for i in sorted(
        {a, a + int(ys[a:b].argmin()), a + int(ys[a:b].argmax()), b - 1})]


def render_line_chart(series, *, title: str = "", xlabel: str = "",
                      ylabel: str = "", log_y: bool = False,
                      desc: str = "") -> str:
    """Render [(label, xs, ys), ...] to an SVG document string.

    Every value must be finite, and every y positive for log_y, which makes the
    y axis log10 with decade ticks. Of consecutive points in one whole-pixel
    column only the first, lowest, highest and last are drawn.
    """
    if not series or any(len(xs) == 0 or len(xs) != len(ys)
                         for _, xs, ys in series):
        raise InvalidParamError("each series needs matching non-empty x/y data")
    data = [(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
            for _, xs, ys in series]
    if not all(np.isfinite(col).all() for xy in data for col in xy):
        raise InvalidParamError("every x and y value must be finite")
    xs_all, ys_all = (np.concatenate(col).tolist() for col in zip(*data))
    if log_y and not 1e-323 < min(ys_all) <= max(ys_all) <= 1e308:
        raise InvalidParamError("log-scale y requires values in (1e-323, 1e308]")

    x_lo, x_hi = _axis_range(min(xs_all), max(xs_all))
    if log_y:
        y_ticks = _log_ticks(min(ys_all), max(ys_all))
        y_lo, y_hi = _axis_range(math.log10(y_ticks[0]), math.log10(y_ticks[-1]))
        y_pos = math.log10
    else:
        y_lo, y_hi = _axis_range(min(ys_all), max(ys_all))
        pad = (y_hi - y_lo) * 0.04
        y_lo, y_hi = y_lo - pad, y_hi + pad
        y_ticks = _linear_ticks(y_lo, y_hi)
        y_pos = lambda v: v
    x_ticks = _linear_ticks(x_lo, x_hi, target=6)

    px_w = _W - _ML - _MR
    px_h = _H - _MT - _MB

    def sx(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * px_w

    def sy(v: float) -> float:
        return _MT + (y_hi - y_pos(v)) / (y_hi - y_lo) * px_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f"<desc>{escape(desc, False)}</desc>" if desc else "<desc></desc>",
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
    ]
    axis = 'stroke="#333" stroke-width="1"'
    out.append(f'<line x1="{_ML}" y1="{_MT + px_h}" x2="{_ML + px_w}" '
               f'y2="{_MT + px_h}" {axis}/>')
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + px_h}" {axis}/>')

    for t in x_ticks:
        if not (x_lo - 1e-12 <= t <= x_hi + 1e-12):
            continue
        x = sx(t)
        out.append(f'<line x1="{x:.2f}" y1="{_MT + px_h}" x2="{x:.2f}" '
                   f'y2="{_MT + px_h + 5}" {axis}/>')
        out.append(f'<text x="{x:.2f}" y="{_MT + px_h + 20}" '
                   f'text-anchor="middle">{_fmt(t)}</text>')
    for t in y_ticks:
        y = sy(t)
        if not (_MT - 1 <= y <= _MT + px_h + 1):
            continue
        out.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" '
                   f'y2="{y:.2f}" {axis}/>')
        out.append(f'<text x="{_ML - 9}" y="{y + 4:.2f}" '
                   f'text-anchor="end">{_fmt(t)}</text>')

    if title:
        out.append(f'<text x="{_W / 2}" y="24" text-anchor="middle" '
                   f'font-size="15">{escape(title, False)}</text>')
    if xlabel:
        out.append(f'<text x="{_ML + px_w / 2}" y="{_H - 14}" '
                   f'text-anchor="middle">{escape(xlabel, False)}</text>')
    if ylabel:
        out.append(f'<text x="20" y="{_MT + px_h / 2}" text-anchor="middle" '
                   f'transform="rotate(-90 20 {_MT + px_h / 2})">'
                   f'{escape(ylabel, False)}</text>')

    for k, (xs, ys) in enumerate(data):
        color = PALETTE[k % len(PALETTE)]
        px = sx(xs)
        keep = _column_extremes(px, ys)
        pts = " L ".join(f"{x:.2f},{sy(y):.2f}"
                         for x, y in zip(px[keep].tolist(), ys[keep].tolist()))
        out.append(f'<path d="M {pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.6"/>')

    ly = _MT + 8
    for k, (label, _, _) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        out.append(f'<rect x="{_ML + px_w - 150}" y="{ly - 9}" width="18" '
                   f'height="4" fill="{color}"/>')
        out.append(f'<text x="{_ML + px_w - 126}" y="{ly - 2}">'
                   f'{escape(str(label), False)}</text>')
        ly += 17

    out.append("</svg>")
    return "\n".join(out) + "\n"
