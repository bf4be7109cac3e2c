"""Minimal deterministic SVG line charts (no plotting dependency).

Output bytes depend only on the data, so re-runs are byte-identical.
"""

from __future__ import annotations

# html's escape, not xml.sax.saxutils's, which would load urllib into every process
from html import escape

from .atomic import atomic_open

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 840, 420
_ML, _MR, _MT, _MB = 70, 20, 34, 60


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_chart(series: dict, path, title: str = "", ylabel: str = "",
               x_labels=None) -> None:
    """Write a multi-series line chart.

    `series` maps legend name -> list of y values; all series share the
    x positions 0..n-1, optionally labelled with `x_labels` (strings,
    thinned automatically).  Every label is written XML-escaped.
    """
    names = list(series)
    n = max((len(v) for v in series.values()), default=0)
    ys = [v for vals in series.values() for v in vals]
    if not ys:
        ys = [0.0, 1.0]
    ymin, ymax = min(ys), max(ys)
    if ymin == ymax:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad
    xmax = max(n - 1, 1)

    def px(i):
        return _ML + (_W - _ML - _MR) * (i / xmax)

    def py(v):
        return _H - _MB - (_H - _MB - _MT) * ((v - ymin) / (ymax - ymin))

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="11">']
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    if title:
        out.append(f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14">'
                   f'{escape(title, quote=False)}</text>')
    # axes
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>')
    out.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>')
    # y ticks
    for k in range(5):
        v = ymin + (ymax - ymin) * k / 4
        y = py(v)
        out.append(f'<line x1="{_ML - 4}" y1="{_fmt(y)}" x2="{_ML}" y2="{_fmt(y)}" stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{_fmt(y + 4)}" text-anchor="end">{_fmt(v)}</text>')
    if ylabel:
        out.append(f'<text x="14" y="{_H // 2}" transform="rotate(-90 14 {_H // 2})" '
                   f'text-anchor="middle">{escape(ylabel, quote=False)}</text>')
    # x ticks
    if x_labels:
        step = max(1, len(x_labels) // 8)
        for i in range(0, len(x_labels), step):
            x = px(i)
            out.append(f'<line x1="{_fmt(x)}" y1="{_H - _MB}" x2="{_fmt(x)}" '
                       f'y2="{_H - _MB + 4}" stroke="black"/>')
            out.append(f'<text x="{_fmt(x)}" y="{_H - _MB + 16}" text-anchor="middle">'
                       f'{escape(x_labels[i], quote=False)}</text>')
    # series
    for s, name in enumerate(names):
        vals = series[name]
        color = _COLORS[s % len(_COLORS)]
        pts = " ".join(f"{_fmt(px(i))},{_fmt(py(v))}" for i, v in enumerate(vals))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        lx = _ML + 10 + 150 * s
        out.append(f'<line x1="{lx}" y1="{_H - 14}" x2="{lx + 18}" y2="{_H - 14}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 24}" y="{_H - 10}">{escape(name, quote=False)}</text>')
    out.append("</svg>")
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
