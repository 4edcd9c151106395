"""Hand-emitted SVG line charts (no plotting dependency)."""

from __future__ import annotations

import math

_COLORS = ("#1f6fb2", "#c4502a", "#3a8f4d", "#8050a0", "#a0a020")

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def line_chart(path, series, title: str, xlabel: str, ylabel: str) -> None:
    """A chart of series, a list of (label, xs, ys) triples, with a log10
    y axis; ys must be finite."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [math.log10(max(y, 1e-300)) for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x):
        return _ML + pw * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        y = math.log10(max(y, 1e-300))
        return _MT + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
                 f'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" '
                 f'y2="{_H - _MB}" stroke="black" stroke-width="1"/>')
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(tx):.1f}" y1="{_H - _MB}" x2="{px(tx):.1f}" '
                     f'y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(tx):.1f}" y="{_H - _MB + 20}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{tx:.3g}</text>')
    for ty in _ticks(y_lo, y_hi):
        yy = _MT + ph * (1.0 - (ty - y_lo) / (y_hi - y_lo))
        parts.append(f'<line x1="{_ML - 5}" y1="{yy:.1f}" x2="{_ML}" '
                     f'y2="{yy:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{yy + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">1e{ty:.2f}</text>')
    parts.append(f'<text x="{_ML + pw / 2:.1f}" y="{_H - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="13">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 16 {_MT + ph / 2:.1f})">{ylabel}</text>')
    # polylines + legend
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" '
                         f'fill="{color}"/>')
        ly = _MT + 16 + 18 * i
        parts.append(f'<line x1="{_W - _MR - 150}" y1="{ly}" '
                     f'x2="{_W - _MR - 120}" y2="{ly}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MR - 112}" y="{ly + 4}" '
                     f'font-family="sans-serif" font-size="12">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
