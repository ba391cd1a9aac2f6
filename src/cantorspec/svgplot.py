"""Self-contained SVG charts for the CLI reports.

Presentation only: every pass/fail decision reads the CSV/JSON artifacts,
never these plots.  Output is deterministic (fixed palette, fixed float
formatting, no timestamps).
"""

from __future__ import annotations

import math
from typing import Sequence

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 40, 56  # margins


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    # lo < hi: the bounds of a _Frame
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((m for m in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if m >= raw), default=raw)
    start = math.ceil(lo / step) * step
    count = min(int((hi + 1e-12 * step - start) // step) + 1, n + 1)
    return sorted({start + i * step for i in range(count)}) or [lo, hi]


class _Frame:
    def __init__(self, xlo, xhi, ylo, yhi):
        # an empty range widened by 1, or past 2^53, where lo + 1 rounds to lo, by one ulp of lo
        (self.xlo, self.xhi), (self.ylo, self.yhi) = (
            (lo, lo + max(1.0, math.ulp(lo)) if hi <= lo else hi) for lo, hi in ((xlo, xhi), (ylo, yhi)))

    def px(self, x: float) -> float:
        return _ML + (x - self.xlo) / (self.xhi - self.xlo) * (_W - _ML - _MR)

    def py(self, y: float) -> float:
        return _H - _MB - (y - self.ylo) / (self.yhi - self.ylo) * (_H - _MT - _MB)


def _chrome(frame: _Frame, title: str, xlabel: str, ylabel: str) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="22" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 14}" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">{ylabel}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="black"/>',
    ]
    for t in _ticks(frame.xlo, frame.xhi):
        x = frame.px(t)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_H - _MB}" x2="{_fmt(x)}" y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_H - _MB + 18}" text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(frame.ylo, frame.yhi):
        y = frame.py(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{_fmt(y)}" x2="{_ML}" y2="{_fmt(y)}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{_fmt(y + 4)}" text-anchor="end">{_fmt(t)}</text>')
    return parts


def line_chart(series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
               title: str, xlabel: str, ylabel: str) -> str:
    """Polyline chart; ``series`` is a list of (label, xs, ys)."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    frame = _Frame(min(xs_all), max(xs_all), min(ys_all), max(ys_all))
    parts = _chrome(frame, title, xlabel, ylabel)
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{_fmt(frame.px(x))},{_fmt(frame.py(y))}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if label:
            y_leg = _MT + 16 + 16 * i
            parts.append(f'<line x1="{_W - _MR - 130}" y1="{y_leg}" x2="{_W - _MR - 106}" '
                         f'y2="{y_leg}" stroke="{color}" stroke-width="1.5"/>')
            parts.append(f'<text x="{_W - _MR - 100}" y="{y_leg + 4}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def scatter(xs: Sequence[float], ys: Sequence[float],
            title: str, xlabel: str, ylabel: str) -> str:
    frame = _Frame(min(xs), max(xs), min(ys), max(ys))
    parts = _chrome(frame, title, xlabel, ylabel)
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{_fmt(frame.px(x))}" cy="{_fmt(frame.py(y))}" r="2" '
                     f'fill="{_PALETTE[0]}"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def histogram(edges: Sequence[float], counts: Sequence[int],
              title: str, xlabel: str, ylabel: str) -> str:
    frame = _Frame(edges[0], edges[-1], 0.0, max(counts) if counts else 1.0)
    parts = _chrome(frame, title, xlabel, ylabel)
    for i, c in enumerate(counts):
        x0, x1 = frame.px(edges[i]), frame.px(edges[i + 1])
        y0, y1 = frame.py(0.0), frame.py(c)
        parts.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y1)}" width="{_fmt(x1 - x0)}" '
                     f'height="{_fmt(y0 - y1)}" fill="{_PALETTE[0]}" stroke="white" stroke-width="0.5"/>')
    parts.append("</svg>")
    return "\n".join(parts)
