"""Lattice-point counts for simple rational polygons in one signed edge pass.

Every non-vertical edge of the counterclockwise boundary is measured
against one horizontal baseline strictly below the polygon: the lattice
points in the half-open integer columns [min x, max x) of the edge, strictly
above the baseline and on or below the edge, form a column trapezoid.
Writing the edge's line as y = (a*x + b)/n with integers a, b and n > 0,
column x holds floor((a*x + b)/n) - baseline of them, so the trapezoid is
one floor sum, computed by Euclid-like reduction in logarithmic time.
Edges heading left (the upper boundary) add their trapezoid and edges
heading right (the lower boundary) subtract it, which leaves each lattice
point from which the direction "straight down, tilted infinitesimally
right" enters the interior.

The boundary points that direction misses are put back.  An edge u -> v is
restored when (v - u) > (0, 0) lexicographically - it heads right or straight
up - and contributes its lattice points on [u, v).  Each integral vertex then
corrects its own count: it loses 1 when its out-edge is restored, its
in-edge is not and the vertex is reflex, and gains 1 when its in-edge is
restored, its out-edge is not and the vertex is convex.

The lattice points of a non-vertical segment are the integer columns x in
its span where n divides a*x + b: the difference of two floor sums, at
offsets b and b - 1.

The interior count is the closure count minus the boundary count, the
boundary being covered exactly once by half-open edges.

Validation (``PolygonSpec``) runs on integers: the vertices are scaled once
by the lcm L of all coordinate denominators, which multiplies every
orientation, area and dot product by L^2 > 0 and so keeps every sign and
equality the simplicity tests look at.  Each pair of non-adjacent edges first
compares its closed bounding boxes, and only pairs whose boxes meet go to
the exact segment test: disjoint boxes mean disjoint segments.  A polygon
with m vertices costs O(m^2) integer comparisons and a few exact tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import LatticeCountError, Point, Rational, floor_sum


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


def _point(v: Sequence[Rational | int], error: type[Exception], name: str) -> Point:
    """v as a pair of Fractions; anything that is not a pair of finite
    rationals raises ``error`` naming ``name``."""
    try:
        x, y = v
        return Fraction(x), Fraction(y)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise error(f"{name} must be a pair of finite rationals, got {v!r}") from exc


@dataclass(frozen=True)
class PolygonSpec:
    """Simple polygon with rational vertices, ordered counterclockwise.

    ``vertices`` is the tuple of ``Fraction`` pairs.  Construction raises
    ``PolygonError`` unless every vertex is a pair of finite rationals, there
    are at least 3 of them, consecutive vertices differ, no edge doubles back
    along its predecessor, no two non-adjacent edges share a point and the
    order is counterclockwise.  The checks run on the vertices scaled to
    integers, with an exact bounding-box prefilter before each pairwise
    segment test: O(m^2) integer comparisons (see the module docstring).
    """

    vertices: tuple[Point, ...]

    def __init__(self, vertices: Sequence[Sequence[Rational | int]]):
        verts = tuple(
            _point(v, PolygonError, f"vertex {i}") for i, v in enumerate(vertices)
        )
        m = len(verts)
        if m < 3:
            raise PolygonError("a polygon needs at least 3 vertices")
        scale = math.lcm(*(c.denominator for v in verts for c in v))
        pts = [
            (x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
            for x, y in verts
        ]
        edges = list(zip(pts, pts[1:] + pts[:1]))
        for a, b in edges:
            if a == b:
                raise PolygonError("consecutive vertices must be distinct")
        # Simplicity: adjacent edges may only share their common vertex
        # (no doubling back along the same line), other pairs must be disjoint.
        for (a, b), (_, w) in zip(edges, edges[1:] + edges[:1]):
            if _orient(a, b, w) == 0:
                along = (w[0] - b[0]) * (b[0] - a[0]) + (w[1] - b[1]) * (b[1] - a[1])
                if along <= 0:
                    raise PolygonError("boundary doubles back on itself")
        boxes = [
            (min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1]))
            for a, b in edges
        ]
        for i in range(m - 2):
            x_lo, x_hi, y_lo, y_hi = boxes[i]
            p1, p2 = edges[i]
            # edge 0 and edge m - 1 are adjacent
            stop = m - 1 if i == 0 else m
            for j, (bx_lo, bx_hi, by_lo, by_hi) in enumerate(boxes[i + 2 : stop], i + 2):
                if bx_lo > x_hi or x_lo > bx_hi or by_lo > y_hi or y_lo > by_hi:
                    continue
                if _segments_touch(p1, p2, *edges[j]):
                    raise PolygonError(
                        f"edges {i} and {j} intersect; polygon is not simple"
                    )
        if _twice_area(pts) <= 0:
            raise PolygonError("vertices must be ordered counterclockwise")
        object.__setattr__(self, "vertices", verts)


def _twice_area(verts: Sequence[Point]) -> Fraction | int:
    total = 0
    m = len(verts)
    for i in range(m):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % m]
        total += x1 * y2 - x2 * y1
    return total


def _edge_line(u: Point, v: Point) -> tuple[int, int, int]:
    """Integers (a, b, n) with n > 0 and y = (a*x + b)/n on the line uv
    (u, v not vertical)."""
    slope = (v[1] - u[1]) / (v[0] - u[0])
    offset = u[1] - slope * u[0]
    n = math.lcm(slope.denominator, offset.denominator)
    return (
        slope.numerator * (n // slope.denominator),
        offset.numerator * (n // offset.denominator),
        n,
    )


def segment_lattice_count(
    p: Sequence[Rational | int], q: Sequence[Rational | int], half_open: bool = False
) -> int:
    """Number of integer points on segment [p, q], or [p, q) when half_open.

    On a non-vertical segment y = (a*x + b)/n, the integer column x holds a
    lattice point exactly when n divides a*x + b, that is when
    floor((a*x + b)/n) - floor((a*x + b - 1)/n) is 1 rather than 0.
    """
    px, py = _point(p, ValueError, "endpoint p")
    qx, qy = _point(q, ValueError, "endpoint q")
    if (px, py) == (qx, qy):
        raise ValueError("segment endpoints must differ")

    if px == qx:
        if px.denominator != 1:
            return 0
        lo, hi = min(py, qy), max(py, qy)
        count = max(0, math.floor(hi) - math.ceil(lo) + 1)
    else:
        a, b, n = _edge_line((px, py), (qx, qy))
        x0 = math.ceil(min(px, qx))
        cols = math.floor(max(px, qx)) - x0 + 1
        start = a * x0 + b
        count = floor_sum(cols, n, a, start) - floor_sum(cols, n, a, start - 1)
    if half_open and qx.denominator == 1 and qy.denominator == 1:
        count -= 1
    return count


def _trapezoid_count(u: Point, v: Point, baseline: int) -> int:
    """Lattice points in integer columns of [min_x, max_x) strictly above
    the baseline and on or below segment uv (u, v not vertical)."""
    a, b, n = _edge_line(u, v)
    x0 = math.ceil(min(u[0], v[0]))
    cols = math.ceil(max(u[0], v[0])) - x0
    return floor_sum(cols, n, a, a * x0 + b) - cols * baseline


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
