"""Tiny deterministic SVG line plots.

Report artifacts must be byte-identical across runs, so plots are written
directly as SVG text with fixed formatting instead of going through a
plotting library whose output embeds ids, dates, or version strings.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import Record

_WIDTH = 640
_HEIGHT = 420
_MARGIN_L = 72
_MARGIN_R = 24
_MARGIN_T = 40
_MARGIN_B = 56

PALETTE = ("#1f6fb4", "#c0392b", "#27843f", "#8e44ad", "#b8860b")


class Series(Record):
    label: str
    x: Sequence[float]
    y: Sequence[float]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    """``text`` as SVG character data; html.escape would import html.entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + step * i for i in range(n)]


def line_plot(
    series: Sequence[Series],
    title: str,
    x_label: str,
    y_label: str,
    h_line: float | None = None,
    h_line_label: str | None = None,
) -> str:
    """Render line series to a standalone SVG string."""
    xs = [v for s in series for v in s.x if math.isfinite(v)]
    ys = [v for s in series for v in s.y if math.isfinite(v)]
    if not xs or not ys:
        raise ValueError("line_plot needs at least one finite point")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if h_line is not None:
        y_lo = min(y_lo, h_line)
        y_hi = max(y_hi, h_line)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    pw = _WIDTH - _MARGIN_L - _MARGIN_R
    ph = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v: float) -> float:
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
    ]
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_T}" x2="{px:.2f}" '
            f'y2="{_HEIGHT - _MARGIN_B}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_HEIGHT - _MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{py:.2f}" x2="{_WIDTH - _MARGIN_R}" '
            f'y2="{py:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
        )
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    if h_line is not None:
        py = sy(h_line)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{py:.2f}" x2="{_WIDTH - _MARGIN_R}" '
            f'y2="{py:.2f}" stroke="#888888" stroke-width="1.5" stroke-dasharray="6 4"/>'
        )
        if h_line_label:
            parts.append(
                f'<text x="{_WIDTH - _MARGIN_R - 4}" y="{py - 6:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11" fill="#666666">{_escape(h_line_label)}</text>'
            )
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(s.x, s.y))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + 10}" y="{_MARGIN_T + 18 + 16 * i}" '
            f'font-family="sans-serif" font-size="12" fill="{color}">{_escape(s.label)}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + pw / 2:.1f}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {_MARGIN_T + ph / 2:.1f})">{_escape(y_label)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
