"""Minimal deterministic SVG line charts for sweep results.

Everything is emitted by hand (axes, ticks, polylines, legend) so the output
is a plain-text artifact that diffs cleanly and needs no plotting stack.
On a log axis, non-positive values are clamped to one decade below the
smallest positive value and drawn hollow; a clamp that underflows to 0 is
rejected.  NaN and infinite values are rejected: no axis can place them;
so are values whose axis would overflow or be too narrow for their
magnitude to hold distinct ticks.
"""

from __future__ import annotations

import math
import sys

PALETTE = ["#1f6feb", "#d1242f", "#1a7f37", "#9a6700", "#8250df", "#bf3989"]

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 160, 40, 55


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _check_span(lo: float, hi: float, title: str) -> None:
    """Refuse an axis whose values pass half the float range, where its span
    or its ticks (up to a step past the values) overflow, or whose span is
    below 1e-9 of the values' magnitude or below the smallest normal float,
    where a tick step cannot advance or is 0."""
    size = max(abs(lo), abs(hi))
    if not (size <= sys.float_info.max / 2
            and max(1e-9 * size, sys.float_info.min) <= hi - lo):
        raise ValueError(f"{title}: cannot scale an axis over [{lo!r}, {hi!r}]")


def _nice_ticks(lo: float, hi: float, count: int = 5):
    raw = (hi - lo) / count
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _log_ticks(lo_exp: int, hi_exp: int):
    step = max(1, (hi_exp - lo_exp) // 6)
    return list(range(lo_exp, hi_exp + 1, step))


def render_line_chart(
    series,
    title: str,
    x_label: str,
    y_label: str,
    log_y: bool = False,
) -> str:
    """Render labelled (x, y) series to an SVG document string.

    series: list of (label, points) with points a list of finite (x, y) pairs.
    """
    try:
        series = [(label, [(float(x), float(y)) for x, y in pts]) for label, pts in series]
    except OverflowError as exc:  # an int past the float range
        raise ValueError(f"{title}: {exc}") from None
    pts_all = [(x, y) for _, pts in series for x, y in pts]
    if not pts_all:
        raise ValueError("nothing to plot")
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in pts_all):
        raise ValueError(f"{title}: cannot plot a non-finite value")
    xs = sorted({x for x, _ in pts_all})
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    _check_span(x_lo, x_hi, title)

    positives = [y for _, y in pts_all if y > 0.0]
    if log_y and not positives:
        log_y = False  # nothing positive to anchor a log axis
    floor = None
    if log_y:
        floor = min(positives) / 10.0
        y_vals = [max(y, floor) for _, y in pts_all]
        if min(y_vals) <= 0.0:  # the floor underflowed to 0
            raise ValueError(f"{title}: the log {y_label} axis cannot place "
                             f"{min(y for _, y in pts_all)!r} a decade below "
                             f"{min(positives)!r}")
        lo_exp = math.floor(math.log10(min(y_vals)))
        hi_exp = math.ceil(math.log10(max(max(y_vals), floor * 10)))
        if hi_exp == lo_exp:
            hi_exp += 1
        y_lo, y_hi = float(lo_exp), float(hi_exp)
        y_of = lambda y: math.log10(max(y, floor))
        y_ticks = [(float(e), f"1e{e}") for e in _log_ticks(lo_exp, hi_exp)]
    else:
        raw = [y for _, y in pts_all]
        y_lo, y_hi = min(raw + [0.0]), max(raw)
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        _check_span(y_lo, y_hi, title)
        y_of = lambda y: y
        y_ticks = [(t, _fmt(t)) for t in _nice_ticks(y_lo, y_hi)]
        if y_ticks:
            y_lo = min(y_lo, y_ticks[0][0])
            y_hi = max(y_hi, y_ticks[-1][0])

    px = lambda x: _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)
    py = lambda yv: _H - _MB - (yv - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_ML}" y="{_MT - 16}" font-size="14">{title}</text>',
    ]

    axis = f'stroke="#444" stroke-width="1"'
    out.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" {axis}/>')
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" {axis}/>')

    for x in xs:
        out.append(
            f'<line x1="{px(x):.2f}" y1="{_H - _MB}" x2="{px(x):.2f}" y2="{_H - _MB + 5}" {axis}/>'
        )
        out.append(
            f'<text x="{px(x):.2f}" y="{_H - _MB + 18}" text-anchor="middle">{_fmt(x)}</text>'
        )
    for yv, label in y_ticks:
        out.append(f'<line x1="{_ML - 5}" y1="{py(yv):.2f}" x2="{_ML}" y2="{py(yv):.2f}" {axis}/>')
        out.append(
            f'<text x="{_ML - 8}" y="{py(yv):.2f}" text-anchor="end" dy="4">{label}</text>'
        )
        out.append(
            f'<line x1="{_ML}" y1="{py(yv):.2f}" x2="{_W - _MR}" y2="{py(yv):.2f}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )

    out.append(
        f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 12}" text-anchor="middle">{x_label}</text>'
    )
    out.append(
        f'<text x="18" y="{(_MT + _H - _MB) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2:.2f})">{y_label}</text>'
    )

    for s_idx, (label, pts) in enumerate(series):
        color = PALETTE[s_idx % len(PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y_of(y)):.2f}" for x, y in sorted(pts))
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, y in sorted(pts):
            clamped = log_y and y <= 0.0
            fill = "white" if clamped else color
            out.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y_of(y)):.2f}" r="3" '
                f'fill="{fill}" stroke="{color}"/>'
            )
        ly = _MT + 16 * s_idx
        out.append(
            f'<line x1="{_W - _MR + 10}" y1="{ly}" x2="{_W - _MR + 30}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(f'<text x="{_W - _MR + 35}" y="{ly + 4}">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
