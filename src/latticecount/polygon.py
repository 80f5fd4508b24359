"""Lattice-point counts for simple rational polygons in one signed edge pass.

Every non-vertical edge of the counterclockwise boundary is measured
against one horizontal baseline strictly below the polygon: the lattice
points in the half-open integer columns [min x, max x) of the edge, strictly
above the baseline and on or below the edge, form a column trapezoid that
splits into an axis-aligned rectangle plus an axis-legged right triangle
counted by the rectangular-triangle closed form.  Edges heading left (the
upper boundary) add their trapezoid and edges heading right (the lower
boundary) subtract it, which leaves each lattice point from which the
direction "straight down, tilted infinitesimally right" enters the interior.

The boundary points that direction misses are put back.  An edge u -> v is
restored when (v - u) > (0, 0) lexicographically - it heads right or straight
up - and contributes its lattice points on [u, v).  Each integral vertex then
corrects its own count: it loses 1 when its out-edge is restored, its
in-edge is not and the vertex is reflex, and gains 1 when its in-edge is
restored, its out-edge is not and the vertex is convex.

Right-triangle pieces may have a rational hypotenuse offset; because the
normal (c1, c2) is integer, snapping the offset to its floor keeps the
lattice set identical while producing the integer data the closed form
wants.

The interior count is the closure count minus the boundary count, the
boundary being covered exactly once by half-open edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import LatticeCountError, Point, Rational
from .triangle import TriangleDilation, TriangleSpec, count_closure_triangle


class PolygonError(LatticeCountError):
    """The vertex list does not describe a simple counterclockwise polygon."""


def _orient(a: Point, b: Point, c: Point) -> Fraction:
    """Twice the signed area of triangle abc (positive = counterclockwise)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    """Whether p lies on the closed segment ab (a != b)."""
    if _orient(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_touch(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Whether closed segments p1p2 and q1q2 share at least one point."""
    o1, o2 = _orient(p1, p2, q1), _orient(p1, p2, q2)
    o3, o4 = _orient(q1, q2, p1), _orient(q1, q2, p2)
    if ((o1 > 0) != (o2 > 0) and o1 != 0 and o2 != 0) and (
        (o3 > 0) != (o4 > 0) and o3 != 0 and o4 != 0
    ):
        return True
    return (
        _on_segment(p1, p2, q1)
        or _on_segment(p1, p2, q2)
        or _on_segment(q1, q2, p1)
        or _on_segment(q1, q2, p2)
    )


@dataclass(frozen=True)
class PolygonSpec:
    """Simple polygon with rational vertices, ordered counterclockwise."""

    vertices: tuple[Point, ...]

    def __init__(self, vertices: Sequence[Sequence[Rational | int]]):
        verts = tuple((Fraction(v[0]), Fraction(v[1])) for v in vertices)
        m = len(verts)
        if m < 3:
            raise PolygonError("a polygon needs at least 3 vertices")
        for i in range(m):
            if verts[i] == verts[(i + 1) % m]:
                raise PolygonError("consecutive vertices must be distinct")
        # Simplicity: adjacent edges may only share their common vertex
        # (no doubling back along the same line), other pairs must be disjoint.
        for i in range(m):
            a, b = verts[i], verts[(i + 1) % m]
            w = verts[(i + 2) % m]
            if _orient(a, b, w) == 0:
                along = (w[0] - b[0]) * (b[0] - a[0]) + (w[1] - b[1]) * (b[1] - a[1])
                if along <= 0:
                    raise PolygonError("boundary doubles back on itself")
        for i in range(m):
            for j in range(i + 1, m):
                if j == i + 1 or (i == 0 and j == m - 1):
                    continue
                if _segments_touch(
                    verts[i], verts[(i + 1) % m], verts[j], verts[(j + 1) % m]
                ):
                    raise PolygonError(
                        f"edges {i} and {j} intersect; polygon is not simple"
                    )
        if _twice_area(verts) <= 0:
            raise PolygonError("vertices must be ordered counterclockwise")
        object.__setattr__(self, "vertices", verts)


def _twice_area(verts: Sequence[Point]) -> Fraction:
    total = Fraction(0)
    m = len(verts)
    for i in range(m):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % m]
        total += x1 * y2 - x2 * y1
    return total


def segment_lattice_count(
    p: Sequence[Rational | int], q: Sequence[Rational | int], half_open: bool = False
) -> int:
    """Number of integer points on segment [p, q], or [p, q) when half_open.

    Lattice points on the carrier line, when they exist, are spaced by the
    primitive integer direction vector; it is enough to find the first one
    in range exactly and count the arithmetic progression.
    """
    px, py = Fraction(p[0]), Fraction(p[1])
    qx, qy = Fraction(q[0]), Fraction(q[1])
    if (px, py) == (qx, qy):
        raise ValueError("segment endpoints must differ")

    if px == qx:
        if px.denominator != 1:
            return 0
        lo, hi = min(py, qy), max(py, qy)
        count = max(0, math.floor(hi) - math.ceil(lo) + 1)
    else:
        dx, dy = qx - px, qy - py
        den = math.lcm(dx.denominator, dy.denominator)
        ex, ey = int(dx * den), int(dy * den)
        g = math.gcd(ex, ey)
        ex, ey = ex // g, ey // g
        if ex < 0:
            ex, ey = -ex, -ey
        # lattice x-coordinates on the carrier line advance in steps of ex
        xlo, xhi = min(px, qx), max(px, qx)
        first = None
        x = math.ceil(xlo)
        stop = math.floor(xhi)
        for _ in range(ex):
            if x > stop:
                break
            y = py + (x - px) * dy / dx
            if y.denominator == 1:
                first = x
                break
            x += 1
        if first is None:
            count = 0
        else:
            count = (stop - first) // ex + 1
    if half_open and qx.denominator == 1 and qy.denominator == 1:
        count -= 1
    return count


def _right_triangle_count(
    xc: Fraction, yc: Fraction, x_far: Fraction, y_far: Fraction
) -> int:
    """Closed lattice count of the right triangle (xc,yc), (x_far,yc), (xc,y_far).

    Reflections normalize the right angle to the lower-left corner; the
    hypotenuse offset is snapped to its floor (an equality on lattice
    points, since the primitive normal makes c1*m1 + c2*m2 an integer).
    """
    sx = 1 if x_far > xc else -1
    sy = 1 if y_far > yc else -1
    cx, fx = sx * xc, sx * x_far
    cy, fy = sy * yc, sy * y_far

    t1, a1 = cx.numerator, cx.denominator
    t2, a2 = cy.numerator, cy.denominator
    wx, wy = fx - cx, fy - cy  # positive leg lengths
    den = math.lcm(wx.denominator, wy.denominator)
    nx, ny = int(wy * den), int(wx * den)
    g = math.gcd(nx, ny)
    c1, c2 = nx // g, ny // g
    t3 = math.floor(c1 * fx + c2 * cy)
    if c1 * cx + c2 * cy > t3:
        return 0  # the snapped region is empty, so no lattice points at all
    return count_closure_triangle(
        TriangleSpec(a1, a2, c1, c2), TriangleDilation(t1, t2, t3)
    )


def _rect_count(x_lo: int, x_hi: int, y_lo_excl: int, y_hi: Fraction) -> int:
    """Lattice points with x in [x_lo, x_hi] and y in (y_lo_excl, y_hi]."""
    rows = math.floor(y_hi) - y_lo_excl
    return (x_hi - x_lo + 1) * max(0, rows)


def _trapezoid_count(u: Point, v: Point, baseline: int) -> int:
    """Lattice points in integer columns of [min_x, max_x) strictly above
    the baseline and on or below segment uv (u, v not vertical)."""
    xlo, xhi = (u[0], v[0]) if u[0] < v[0] else (v[0], u[0])
    col_lo = math.ceil(xlo)
    col_hi = math.ceil(xhi) - 1
    if col_lo > col_hi:
        return 0
    dx, dy = v[0] - u[0], v[1] - u[1]

    def height(x: int) -> Fraction:
        return u[1] + (x - u[0]) * dy / dx

    if col_lo == col_hi:
        return math.floor(height(col_lo)) - baseline
    if dy == 0:
        return _rect_count(col_lo, col_hi, baseline, u[1])
    y_left, y_right = height(col_lo), height(col_hi)
    h = min(y_left, y_right)
    rect = _rect_count(col_lo, col_hi, baseline, h)
    if y_left > y_right:
        tri = _right_triangle_count(Fraction(col_lo), h, Fraction(col_hi), y_left)
    else:
        tri = _right_triangle_count(Fraction(col_hi), h, Fraction(col_lo), y_right)
    overlap = (col_hi - col_lo + 1) if h.denominator == 1 else 0
    return rect + tri - overlap


def count_closure_polygon(poly: PolygonSpec) -> int:
    """Exact number of lattice points in the closed polygon."""
    verts = poly.vertices
    m = len(verts)
    baseline = math.floor(min(y for _, y in verts)) - 1
    # The trapezoids count a lattice point exactly when the direction
    # "straight down, tilted infinitesimally right" leads from it into the
    # interior; the restore terms add the boundary points where it does not.
    restored = []
    total = 0
    for i in range(m):
        u, v = verts[i], verts[(i + 1) % m]
        if u[0] != v[0]:
            n_trap = _trapezoid_count(u, v, baseline)
            total += n_trap if v[0] < u[0] else -n_trap
        restored.append((v[0] - u[0], v[1] - u[1]) > (0, 0))
        if restored[i]:
            total += segment_lattice_count(u, v, half_open=True)
    for i in range(m):
        v = verts[i]
        if v[0].denominator != 1 or v[1].denominator != 1:
            continue
        turn = _orient(verts[i - 1], v, verts[(i + 1) % m])
        if restored[i] and not restored[i - 1] and turn < 0:
            total -= 1
        elif restored[i - 1] and not restored[i] and turn > 0:
            total += 1
    return total


def boundary_lattice_count(poly: PolygonSpec) -> int:
    """Lattice points on the boundary (each half-open edge counts its own)."""
    verts = poly.vertices
    return sum(
        segment_lattice_count(verts[i], verts[(i + 1) % len(verts)], half_open=True)
        for i in range(len(verts))
    )


def count_interior_polygon(poly: PolygonSpec) -> int:
    """Exact number of lattice points strictly inside the polygon."""
    return count_closure_polygon(poly) - boundary_lattice_count(poly)


def picks_check(poly: PolygonSpec) -> bool:
    """Area == Interior + Boundary/2 - 1 for integer-vertex polygons (exact)."""
    for x, y in poly.vertices:
        if x.denominator != 1 or y.denominator != 1:
            raise PolygonError("Pick's theorem needs integral vertices")
    area = _twice_area(poly.vertices) / 2
    interior = count_interior_polygon(poly)
    boundary = boundary_lattice_count(poly)
    return area == interior + Fraction(boundary, 2) - 1
