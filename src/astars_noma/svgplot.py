"""Minimal self-contained SVG line plots.

CSV files are the data contract; these plots are a convenience for eyeballing
sweeps without pulling in a rendering stack.  Linear or log-10 y axis,
one polyline per series, auto-scaled ticks.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from pathlib import Path
from typing import TextIO

_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 36, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#17becf", "#7f7f7f", "#bcbd22"]


def write_whole(path: Path, write: Callable[[TextIO], object]) -> None:
    """Write a UTF-8 text file whole or not at all: write fills a temporary
    file in the same directory, renamed over path only once complete."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline="", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / count
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * abs(hi):
        out.append(t)
        t += step
    return out


def write_line_plot(path: str | Path, title: str, xlabel: str, ylabel: str,
                    series: list[tuple[str, list[float], list[float]]],
                    logy: bool = False) -> Path:
    """Write one SVG, whole or not at all, with a polyline per (label, xs,
    ys) series.

    With logy, nonpositive y values are dropped from the plot (they cannot
    be placed on a log axis); a series with no positive values is skipped.
    """
    path = Path(path)
    pts = []
    for label, xs, ys in series:
        keep = [(x, y) for x, y in zip(xs, ys)
                if y is not None and (not logy or y > 0.0)]
        if keep:
            pts.append((label, keep))
    if not pts:
        write_whole(path, lambda fh: fh.write("<svg xmlns='http://www.w3.org/2000/svg'/>\n"))
        return path
    all_x = [x for _, kp in pts for x, _ in kp]
    all_y = [y for _, kp in pts for _, y in kp]
    x_lo, x_hi = min(all_x), max(all_x)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if logy:
        y_lo, y_hi = math.log10(min(all_y)), math.log10(max(all_y))
    else:
        y_lo, y_hi = min(all_y), max(all_y)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    iw = _WIDTH - _MARGIN_L - _MARGIN_R
    ih = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * iw

    def py(y: float) -> float:
        yv = math.log10(y) if logy else y
        return _MARGIN_T + (1.0 - (yv - y_lo) / (y_hi - y_lo)) * ih

    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{_WIDTH}' height='{_HEIGHT}' "
        f"font-family='sans-serif' font-size='11'>",
        f"<rect x='{_MARGIN_L}' y='{_MARGIN_T}' width='{iw}' height='{ih}' "
        "fill='white' stroke='#444'/>",
        f"<text x='{_WIDTH/2:.1f}' y='18' text-anchor='middle' font-size='13'>{title}</text>",
        f"<text x='{_MARGIN_L + iw/2:.1f}' y='{_HEIGHT-10}' text-anchor='middle'>{xlabel}</text>",
        f"<text x='16' y='{_MARGIN_T + ih/2:.1f}' text-anchor='middle' "
        f"transform='rotate(-90 16 {_MARGIN_T + ih/2:.1f})'>{ylabel}</text>",
    ]
    for t in _ticks(x_lo, x_hi):
        parts.append(f"<line x1='{px(t):.1f}' y1='{_MARGIN_T+ih}' x2='{px(t):.1f}' "
                     f"y2='{_MARGIN_T+ih+4}' stroke='#444'/>")
        parts.append(f"<text x='{px(t):.1f}' y='{_MARGIN_T+ih+16}' "
                     f"text-anchor='middle'>{t:g}</text>")
    if logy:
        lo_exp = math.ceil(y_lo)
        hi_exp = math.floor(y_hi)
        y_ticks = [(10.0 ** e, f"1e{e:d}") for e in range(lo_exp, hi_exp + 1)]
    else:
        y_ticks = [(t, f"{t:g}") for t in _ticks(y_lo, y_hi)]
    for val, label in y_ticks:
        parts.append(f"<line x1='{_MARGIN_L-4}' y1='{py(val):.1f}' x2='{_MARGIN_L}' "
                     f"y2='{py(val):.1f}' stroke='#444'/>")
        parts.append(f"<text x='{_MARGIN_L-8}' y='{py(val)+4:.1f}' "
                     f"text-anchor='end'>{label}</text>")
    for i, (label, keep) in enumerate(pts):
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in keep)
        parts.append(f"<polyline points='{coords}' fill='none' stroke='{color}' "
                     "stroke-width='1.6'/>")
        ly = _MARGIN_T + 14 + 14 * i
        parts.append(f"<line x1='{_MARGIN_L+8}' y1='{ly-4}' x2='{_MARGIN_L+30}' "
                     f"y2='{ly-4}' stroke='{color}' stroke-width='1.6'/>")
        parts.append(f"<text x='{_MARGIN_L+34}' y='{ly}'>{label}</text>")
    parts.append("</svg>")
    write_whole(path, lambda fh: fh.write("\n".join(parts) + "\n"))
    return path
