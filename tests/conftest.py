"""Shared generators and independent test oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from latticecount import (
    InvalidSimplexError,
    PolygonError,
    PolygonSpec,
    SimplexSystem,
    validate_dilation,
)


def fibonacci_pair_above(bound: int) -> tuple[int, int]:
    """Consecutive Fibonacci numbers (lo, hi) with hi >= bound.

    Every Euclid round on them has quotient 1, so they give the deepest
    descent for their size: about 1,400 rounds at 10^300.
    """
    lo, hi = 1, 1
    while hi < bound:
        lo, hi = hi, lo + hi
    return lo, hi


def random_simplex(rng: random.Random, n: int, entry_bound: int = 4) -> SimplexSystem:
    """Rejection-sample an (n+1) x n matrix satisfying both shape invariants."""
    while True:
        rows = [
            [rng.randint(-entry_bound, entry_bound) for _ in range(n)]
            for _ in range(n + 1)
        ]
        try:
            return SimplexSystem(rows, [0] * n + [1])
        except InvalidSimplexError:
            continue


def box_cells(system: SimplexSystem, t: tuple[int, ...]) -> int | None:
    """Bounding-box cell count of a dilation, None when empty."""
    report = validate_dilation(system, t)
    if not report.nonempty or report.vertices is None:
        return None
    cells = 1
    for axis in range(system.n):
        coords = [v[axis] for v in report.vertices]
        cells *= max(0, math.floor(max(coords)) - math.ceil(min(coords)) + 1)
    return cells


def random_dilation_suite(
    rng: random.Random,
    count: int,
    t_bound: int = 12,
    max_cells: int = 200_000,
) -> list[tuple[SimplexSystem, tuple[int, ...]]]:
    """Nonempty (system, t) pairs with n in {1,2,3} and desk-scale boxes."""
    suite: list[tuple[SimplexSystem, tuple[int, ...]]] = []
    while len(suite) < count:
        n = rng.choice((1, 2, 3))
        system = random_simplex(rng, n)
        for _ in range(20):
            t = tuple(rng.randint(-t_bound, t_bound) for _ in range(n + 1))
            cells = box_cells(system, t)
            if cells is not None and cells <= max_cells:
                suite.append((system, t))
                break
    return suite


# --- independent polygon oracle -------------------------------------------


def _on_closed_segment(a, b, p) -> bool:
    cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    if cross != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def point_on_boundary(poly: PolygonSpec, p) -> bool:
    verts = poly.vertices
    m = len(verts)
    return any(
        _on_closed_segment(verts[i], verts[(i + 1) % m], p) for i in range(m)
    )


def point_strictly_inside(poly: PolygonSpec, p) -> bool:
    """Exact crossing-parity test; call only for non-boundary points."""
    verts = poly.vertices
    m = len(verts)
    x, y = Fraction(p[0]), Fraction(p[1])
    inside = False
    for i in range(m):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % m]
        if (ay <= y < by) or (by <= y < ay):
            x_cross = ax + (y - ay) * (bx - ax) / (by - ay)
            if x_cross > x:
                inside = not inside
    return inside


def polygon_bruteforce_counts(poly: PolygonSpec) -> tuple[int, int]:
    """(closure, interior) by scanning the integer bounding box."""
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    closure = interior = 0
    for mx in range(math.ceil(min(xs)), math.floor(max(xs)) + 1):
        for my in range(math.ceil(min(ys)), math.floor(max(ys)) + 1):
            p = (Fraction(mx), Fraction(my))
            if point_on_boundary(poly, p):
                closure += 1
            elif point_strictly_inside(poly, p):
                closure += 1
                interior += 1
    return closure, interior


def random_simple_polygon(
    rng: random.Random,
    max_vertices: int = 8,
    coord_bound: int = 6,
    max_denominator: int = 4,
    integral: bool = False,
) -> PolygonSpec:
    """Random simple polygon: angularly sorted points around their centroid."""
    while True:
        m = rng.randint(3, max_vertices)
        pts = set()
        while len(pts) < m:
            if integral:
                x = Fraction(rng.randint(-coord_bound, coord_bound))
                y = Fraction(rng.randint(-coord_bound, coord_bound))
            else:
                dx = rng.randint(1, max_denominator)
                dy = rng.randint(1, max_denominator)
                x = Fraction(rng.randint(-coord_bound * dx, coord_bound * dx), dx)
                y = Fraction(rng.randint(-coord_bound * dy, coord_bound * dy), dy)
            pts.add((x, y))
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        ordered = sorted(
            pts, key=lambda p: (math.atan2(p[1] - cy, p[0] - cx), p[0], p[1])
        )
        try:
            return PolygonSpec(ordered)
        except PolygonError:
            continue
