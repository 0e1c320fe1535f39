"""Newton polygons of q-expansions with exact rational arithmetic.

The polygon of f relative to (chain, q) is the lower convex hull of the
points (i, value(f_i)) where f = sum f_i q^i is the q-expansion.  All hull
geometry is done over Fraction; the only lossy surface is the SVG export.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .base import INF, format_value
from .poly import Polynomial


@dataclass(frozen=True)
class Side:
    slope: Fraction
    p0: tuple
    p1: tuple

    @property
    def length(self) -> int:
        return self.p1[0] - self.p0[0]

    def to_json(self):
        return {
            "slope": format_value(self.slope),
            "from": [self.p0[0], format_value(self.p0[1])],
            "to": [self.p1[0], format_value(self.p1[1])],
            "length": self.length,
        }


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class NewtonPolygon:
    points: tuple
    vertices: tuple
    sides: tuple

    @classmethod
    def from_points(cls, points) -> "NewtonPolygon":
        """Lower hull of finite points (i, v); one point per abscissa (min kept)."""
        best = {}
        for i, v in points:
            if v is INF:
                continue
            v = Fraction(v)
            if i not in best or v < best[i]:
                best[i] = v
        if not best:
            raise ValueError("no finite points for the polygon")
        pts = tuple(sorted(best.items()))
        hull = []
        for p in pts:
            while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
                hull.pop()
            hull.append(p)
        vertices = tuple(hull)
        sides = tuple(
            Side(Fraction(q[1] - p[1], q[0] - p[0]), p, q)
            for p, q in zip(vertices, vertices[1:])
        )
        return cls(pts, vertices, sides)

    def first_slope(self) -> Fraction:
        if not self.sides:
            raise ValueError("polygon has a single vertex, no sides")
        return self.sides[0].slope

    def support_line_value(self, alpha) -> Fraction:
        """Intercept of the supporting line of slope -alpha: min_i (v_i + alpha*i)."""
        alpha = Fraction(alpha)
        return min(v + alpha * i for i, v in self.points)

    def to_json(self):
        return {
            "points": [[i, format_value(v)] for i, v in self.points],
            "vertices": [[i, format_value(v)] for i, v in self.vertices],
            "sides": [s.to_json() for s in self.sides],
        }


def newton_polygon(chain, q: Polynomial, f: Polynomial) -> NewtonPolygon:
    """Polygon of f in the q-expansion, read off the chain's truncation data.

    Requires a nonzero constant digit of finite value (q does not divide f,
    even up to support) and a finite value on the leading digit.
    """
    if f.is_zero():
        raise ValueError("polygon of the zero polynomial")
    values = chain.truncate(q, f).digit_values
    if values[0] is INF:
        raise ValueError("constant digit vanishes or lies in the support")
    if values[-1] is INF:
        raise ValueError("leading digit lies in the support")
    return NewtonPolygon.from_points(enumerate(values))


def polygon_svg(poly: NewtonPolygon, width: int = 480, height: int = 360) -> str:
    """Standalone SVG rendering; coordinates here are floats by design."""
    margin = 46
    xs = [i for i, _ in poly.points]
    ys = [float(v) for _, v in poly.points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1
    yspan = (y1 - y0) or 1

    def sx(x):
        return margin + (x - x0) / xspan * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / yspan * (height - 2 * margin)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    ax = (
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="#999"/>'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="#999"/>'
    )
    out.append(ax)
    path = " ".join(
        f"{'M' if k == 0 else 'L'} {sx(i):.2f} {sy(float(v)):.2f}"
        for k, (i, v) in enumerate(poly.vertices)
    )
    out.append(f'<path d="{path}" fill="none" stroke="#1f77b4" stroke-width="2"/>')
    for i, v in poly.points:
        fill = "#1f77b4" if (i, v) in poly.vertices else "#bbb"
        out.append(f'<circle cx="{sx(i):.2f}" cy="{sy(float(v)):.2f}" r="4" fill="{fill}"/>')
        out.append(
            f'<text x="{sx(i):.2f}" y="{sy(float(v)) - 9:.2f}" font-size="11" '
            f'text-anchor="middle" fill="#333">({i}, {format_value(v)})</text>'
        )
    for s in poly.sides:
        mx = (sx(s.p0[0]) + sx(s.p1[0])) / 2
        my = (sy(float(s.p0[1])) + sy(float(s.p1[1]))) / 2
        out.append(
            f'<text x="{mx:.2f}" y="{my + 14:.2f}" font-size="11" fill="#d62728">'
            f"slope {format_value(s.slope)}</text>"
        )
    out.append("</svg>")
    return "\n".join(out)
