"""Static SVG 1.1 rendering of map orbits.

Output is byte-deterministic: geometry is computed in exact rationals, mapped
onto a fixed 640x640 canvas, and only formatted to decimals (12 significant
digits) at the very last step.  No timestamps, no randomness.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

XY = tuple[Fraction, Fraction]

_CANVAS = Fraction(640)
_MARGIN = Fraction(30)
_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#17becf",
    "#bcbd22",
)


def svg_number(x: Fraction) -> str:
    """Decimal string with 12 significant digits, trailing zeros stripped."""
    if x == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = 12
        d = Decimal(x.numerator) / Decimal(x.denominator)
    s = format(d, "f")
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return s


class _Canvas:
    """Affine map from data coordinates onto the fixed canvas (y flipped).

    ``text`` maps and formats each distinct point once; every polyline,
    diagonal and circle through that point reuses the strings."""

    def __init__(self, points: Sequence[XY]):
        self._text: dict[XY, tuple[str, str]] = {}
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        lo_x, hi_x = min(xs), max(xs)
        lo_y, hi_y = min(ys), max(ys)
        spread = max(hi_x - lo_x, hi_y - lo_y, Fraction(1))
        self._scale = (_CANVAS - 2 * _MARGIN) / spread
        # center both axes inside the canvas
        self._off_x = _MARGIN + (_CANVAS - 2 * _MARGIN - (hi_x - lo_x) * self._scale) / 2
        self._off_y = _MARGIN + (_CANVAS - 2 * _MARGIN - (hi_y - lo_y) * self._scale) / 2
        self._lo_x, self._hi_y = lo_x, hi_y

    def map(self, p: XY) -> tuple[Fraction, Fraction]:
        return (
            self._off_x + (p[0] - self._lo_x) * self._scale,
            self._off_y + (self._hi_y - p[1]) * self._scale,
        )

    def text(self, p: XY) -> tuple[str, str]:
        """The canvas coordinates of ``p`` as SVG numbers."""
        text = self._text.get(p)
        if text is None:
            cx, cy = self.map(p)
            text = self._text[p] = (svg_number(cx), svg_number(cy))
        return text


def _polyline(canvas: _Canvas, pts: Sequence[XY], color: str, dashed: bool) -> str:
    coords = " ".join(",".join(canvas.text(p)) for p in pts)
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}"'
        f' stroke-width="1.5"{dash} />'
    )


def orbit_svg(
    iterates: Sequence[Sequence[XY]],
    *,
    close: bool = True,
    diagonal_step: int | None = 2,
    collapse: XY | None = None,
    axis_y: Fraction | None = None,
) -> str:
    """Render the iterates of an orbit.

    Each iterate becomes a polyline (closed for polygons).  All but the last
    iterate also draw their short diagonals dashed when ``diagonal_step`` is
    set, and ``collapse`` marks the limit point with a crosshair.
    """
    everything = [p for it in iterates for p in it]
    if collapse is not None:
        everything.append(collapse)
    if not everything:
        raise ValueError("nothing to draw")
    canvas = _Canvas(everything)

    body: list[str] = []
    if axis_y is not None:
        y = svg_number(canvas.map((Fraction(0), axis_y))[1])
        body.append(
            f'<line x1="0" y1="{y}" x2="{svg_number(_CANVAS)}" y2="{y}"'
            ' stroke="#999999" stroke-width="1" stroke-dasharray="2,4" />'
        )
    for idx, it in enumerate(iterates):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = list(it)
        if close and len(pts) > 2:
            pts.append(pts[0])
        body.append(_polyline(canvas, pts, color, dashed=False))
        if diagonal_step is not None and idx + 1 < len(iterates):
            k = len(it)
            for t in range(k):
                seg = (it[t], it[(t + diagonal_step) % k])
                body.append(_polyline(canvas, seg, color, dashed=True))
        for p in it:
            cx, cy = canvas.text(p)
            body.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}" />')
    if collapse is not None:
        cx, cy = canvas.map(collapse)
        x_, y_ = canvas.text(collapse)
        body.append(
            f'<circle cx="{x_}" cy="{y_}" r="4" fill="none"'
            ' stroke="#000000" stroke-width="1.5" />'
        )
        for dx, dy in ((Fraction(8), Fraction(0)), (Fraction(0), Fraction(8))):
            body.append(
                f'<line x1="{svg_number(cx - dx)}" y1="{svg_number(cy - dy)}"'
                f' x2="{svg_number(cx + dx)}" y2="{svg_number(cy + dy)}"'
                ' stroke="#000000" stroke-width="1" />'
            )

    size = svg_number(_CANVAS)
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1"'
        f' width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"
