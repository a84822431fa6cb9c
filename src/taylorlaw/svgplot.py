"""Standalone SVG rendering of a log-log mean-variance fit.

The plot shows ln(variance) against ln(mean): one circle per pair used by
the fit, the fitted straight line, and small square markers in the margin
for pairs that have no finite log-log position (zero or negative mean or
variance). The caption embeds the fitted coefficient, exponent, r-squared
and the fit's dropped-pair count.

The fitted line is the only ``<line>`` element in the file and every used
pair is a ``<circle>``, so documents can be audited by element counts.
"""

from __future__ import annotations

import math

import numpy as np

from ._fmt import sig12
from .errors import InsufficientDataError
from .extraction import MVSeries
from .fitting import PowerLawFit, usable_mask

_W, _H = 640, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 72, 24, 24, 96
_TICKS = 5


def _px(value: float, lo: float, hi: float, out_lo: float, out_hi: float) -> float:
    return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)


def _padded(lo: float, hi: float) -> tuple[float, float, float]:
    """Widen ``[lo, hi]`` by 5% each side (to +-1 if empty); return it and the pad."""
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad, pad


def emit_svg_plot(series: MVSeries, fit: PowerLawFit, path: str) -> None:
    """Write the log-log scatter-and-line plot of ``fit`` over ``series``.

    ``fit`` must have been produced from ``series``; the caption repeats
    the fit's own bookkeeping. I/O failures propagate as OSError.
    """
    plottable = usable_mask(series.means, series.variances)
    if plottable.sum() < 2:
        raise InsufficientDataError(
            "plotting needs at least 2 pairs with positive mean and variance"
        )
    xs = np.log(series.means[plottable])
    ys = np.log(series.variances[plottable])

    x_lo, x_hi, x_pad = _padded(float(xs.min()), float(xs.max()))
    ln_a = math.log(fit.a)
    line_y = (ln_a + fit.b * x_lo, ln_a + fit.b * x_hi)
    y_lo, y_hi, y_pad = _padded(
        min(float(ys.min()), *line_y), max(float(ys.max()), *line_y)
    )

    px_r = (_LEFT, _W - _RIGHT)
    py_r = (_H - _BOTTOM, _TOP)

    def to_px(x: float) -> float:
        return _px(x, x_lo, x_hi, *px_r)

    def to_py(y: float) -> float:
        return _px(y, y_lo, y_hi, *py_r)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        "  <title>log-log mean-variance fit</title>",
        f'  <rect width="{_W}" height="{_H}" fill="white"/>',
    ]

    axis_path = [
        f"M {_LEFT} {_TOP} L {_LEFT} {_H - _BOTTOM} L {_W - _RIGHT} {_H - _BOTTOM}"
    ]
    labels = []
    for tick in np.linspace(x_lo + x_pad, x_hi - x_pad, _TICKS):
        tx = to_px(float(tick))
        axis_path.append(f"M {tx:.2f} {_H - _BOTTOM} l 0 6")
        labels.append(
            f'  <text x="{tx:.2f}" y="{_H - _BOTTOM + 22}" text-anchor="middle" '
            f'font-size="12">{float(tick):.3g}</text>'
        )
    for tick in np.linspace(y_lo + y_pad, y_hi - y_pad, _TICKS):
        ty = to_py(float(tick))
        axis_path.append(f"M {_LEFT} {ty:.2f} l -6 0")
        labels.append(
            f'  <text x="{_LEFT - 10}" y="{ty:.2f}" text-anchor="end" '
            f'dominant-baseline="middle" font-size="12">{float(tick):.3g}</text>'
        )
    parts.append(
        f'  <path d="{" ".join(axis_path)}" stroke="black" fill="none" '
        'stroke-width="1"/>'
    )
    parts.extend(labels)
    parts.append(
        f'  <text x="{(px_r[0] + px_r[1]) / 2:.2f}" y="{_H - _BOTTOM + 44}" '
        'text-anchor="middle" font-size="14">ln mean</text>'
    )
    parts.append(
        f'  <text x="20" y="{(py_r[0] + py_r[1]) / 2:.2f}" text-anchor="middle" '
        f'font-size="14" transform="rotate(-90 20 {(py_r[0] + py_r[1]) / 2:.2f})">'
        "ln variance</text>"
    )

    parts.append(
        f'  <line x1="{to_px(x_lo):.2f}" y1="{to_py(line_y[0]):.2f}" '
        f'x2="{to_px(x_hi):.2f}" y2="{to_py(line_y[1]):.2f}" '
        'stroke="#c0392b" stroke-width="2"/>'
    )
    for x, y in zip(xs, ys):
        parts.append(
            f'  <circle class="used" cx="{to_px(float(x)):.2f}" '
            f'cy="{to_py(float(y)):.2f}" r="4" fill="#2c5f8a"/>'
        )
    margin = ~plottable
    for mean, variance in zip(
        series.means[margin].tolist(), series.variances[margin].tolist()
    ):
        if mean > 0:
            mx = min(max(to_px(math.log(mean)), px_r[0]), px_r[1])
            my = _H - _BOTTOM + 4.0
        elif variance > 0:
            mx = _LEFT - 20.0
            my = min(max(to_py(math.log(variance)), py_r[1]), py_r[0]) - 4.0
        else:
            mx = _LEFT - 20.0
            my = _H - _BOTTOM + 4.0
        parts.append(
            f'  <rect class="dropped" x="{mx:.2f}" y="{my:.2f}" width="8" '
            'height="8" fill="#999999"/>'
        )

    caption = (
        f"variance = a * mean^b: a={sig12(fit.a)}, b={sig12(fit.b)}, "
        f"r_squared={sig12(fit.r_squared)}, used: {fit.n_used}, "
        f"dropped: {fit.n_dropped}"
    )
    parts.append(
        f'  <text x="{_W / 2:.2f}" y="{_H - 16}" text-anchor="middle" '
        f'font-size="13">{caption}</text>'
    )
    parts.append("</svg>")

    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(parts) + "\n")
