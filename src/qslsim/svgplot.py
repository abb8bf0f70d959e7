"""Minimal SVG emitter for sweep plots.

Fixed 800x600 viewport, no styling options: the CSV is the data contract and
the SVG is a convenience rendering of it.  Output is a deterministic string.
"""

from __future__ import annotations

from typing import Optional, Sequence

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 20
MARGIN_BOTTOM = 50


def _fmt(x: float) -> str:
    return format(x, ".6g")


def sweep_svg(points: Sequence[tuple[float, Optional[float], float]]) -> str:
    """Render sweep rows (x, t_perp-or-None, t_qsl) as an SVG document.

    Draws the t_perp values as point markers, the t_qsl curve dashed, and
    shades the region below t_qsl (times down there are unreachable).  The
    axes are labelled omega/omega0 and time.
    Rows without a t_perp value only contribute to the curve.
    """
    finite = [(x, tp, tq) for x, tp, tq in points
              if x == x and abs(x) != float("inf")]
    if not finite:
        raise ValueError("no finite sweep points to plot")
    xs = [p[0] for p in finite]
    ys = [p[2] for p in finite] + [p[1] for p in finite if p[1] is not None]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) * 1.05
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]

    # forbidden region: below the bound curve, down to the time axis
    curve = "M" + " L".join(f"{_fmt(px(x))} {_fmt(py(tq))}" for x, _, tq in finite)
    shade = (f"{curve} L{_fmt(px(finite[-1][0]))} {_fmt(py(y_lo))}"
             f" L{_fmt(px(finite[0][0]))} {_fmt(py(y_lo))} Z")
    parts.append(f'<path d="{shade}" fill="#c8c8c8" stroke="none"/>')

    # bound curve, dashed
    parts.append(
        f'<path d="{curve}" fill="none" stroke="black" stroke-width="1.5" '
        f'stroke-dasharray="6 4"/>'
    )

    # measured orthogonalization times
    for x, tp, _ in finite:
        if tp is None:
            continue
        cx, cy = px(x), py(tp)
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3.5" '
            f'fill="none" stroke="black" stroke-width="1.2"/>'
        )

    # axes
    x0, y0 = px(x_lo), py(y_lo)
    x1, y1 = px(x_hi), py(y_hi)
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y0)}" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(y1)}" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_fmt(x0)}" y="{_fmt(y0 + 30)}" font-size="13">{_fmt(x_lo)}</text>'
    )
    parts.append(
        f'<text x="{_fmt(x1 - 20)}" y="{_fmt(y0 + 30)}" font-size="13">{_fmt(x_hi)}</text>'
    )
    parts.append(
        f'<text x="{_fmt(x0 - 55)}" y="{_fmt(y0)}" font-size="13">{_fmt(y_lo)}</text>'
    )
    parts.append(
        f'<text x="{_fmt(x0 - 55)}" y="{_fmt(y1 + 10)}" font-size="13">{_fmt(y_hi)}</text>'
    )
    parts.append(
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(y0 + 40)}" font-size="14">omega/omega0</text>'
    )
    parts.append(
        f'<text x="10" y="{_fmt((y0 + y1) / 2)}" font-size="14">time</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
