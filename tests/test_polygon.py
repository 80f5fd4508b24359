import math
import random
import time
from fractions import Fraction

import pytest

from latticecount import (
    PolygonError,
    PolygonSpec,
    TriangleDilation,
    TriangleSpec,
    boundary_lattice_count,
    count_closure_polygon,
    count_closure_triangle,
    count_interior_polygon,
    count_interior_triangle,
    picks_check,
    segment_lattice_count,
)

from conftest import polygon_bruteforce_counts, random_simple_polygon

UNIT_SQUARE = PolygonSpec([(0, 0), (1, 0), (1, 1), (0, 1)])
SQUARE2 = PolygonSpec([(0, 0), (2, 0), (2, 2), (0, 2)])
HALF = Fraction(5, 2)
RATIONAL_TRIANGLE = PolygonSpec([(0, 0), (HALF, 0), (0, HALF)])


def test_segment_examples():
    assert segment_lattice_count((0, 0), (3, 3)) == 4
    assert segment_lattice_count((0, 0), (3, 3), half_open=True) == 3
    assert segment_lattice_count((Fraction(1, 2), 0), (HALF, 0)) == 2


def test_segment_no_lattice_points():
    assert segment_lattice_count((Fraction(1, 2), 0), (Fraction(1, 2), 1)) == 0
    assert segment_lattice_count((Fraction(1, 3), Fraction(1, 3)), (2, 1)) == 1  # (2,1)
    # 10^8 integer columns, none of them on the line
    assert segment_lattice_count((Fraction(1, 2), 0), (10**8 + Fraction(1, 2), 1)) == 0


def test_segment_brute_consistency():
    rng = random.Random(4)
    for _ in range(150):
        den = rng.randint(1, 4)
        p = (Fraction(rng.randint(-12, 12), den), Fraction(rng.randint(-12, 12), den))
        q = (Fraction(rng.randint(-12, 12), den), Fraction(rng.randint(-12, 12), den))
        if p == q:
            continue
        brute = 0
        for mx in range(-13, 14):
            for my in range(-13, 14):
                cross = (q[0] - p[0]) * (my - p[1]) - (q[1] - p[1]) * (mx - p[0])
                if (
                    cross == 0
                    and min(p[0], q[0]) <= mx <= max(p[0], q[0])
                    and min(p[1], q[1]) <= my <= max(p[1], q[1])
                ):
                    brute += 1
        assert segment_lattice_count(p, q) == brute


def test_segment_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        segment_lattice_count((1, 1), (1, 1))


def test_polygon_examples():
    assert count_closure_polygon(UNIT_SQUARE) == 4
    assert count_interior_polygon(UNIT_SQUARE) == 0
    assert count_closure_polygon(SQUARE2) == 9
    assert count_interior_polygon(SQUARE2) == 1
    assert count_closure_polygon(RATIONAL_TRIANGLE) == 6
    assert count_interior_polygon(RATIONAL_TRIANGLE) == 1
    # a thin sliver with large coprime denominators
    sliver = PolygonSpec(
        [(0, 0), (Fraction(1000, 1009) + Fraction(1, 3), 0), (0, Fraction(999, 1010))]
    )
    assert count_closure_polygon(sliver) == 2
    assert count_interior_polygon(sliver) == 0


def test_nonconvex_polygon():
    notch = PolygonSpec([(0, 0), (4, 0), (4, 4), (2, 2), (0, 4)])
    assert count_closure_polygon(notch) == 21
    assert count_interior_polygon(notch) == 5


def test_collinear_boundary_vertex():
    rect = PolygonSpec([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
    assert count_closure_polygon(rect) == 9
    assert count_interior_polygon(rect) == 1


def test_polygon_validation():
    with pytest.raises(PolygonError):
        PolygonSpec([(0, 0), (1, 1)])
    with pytest.raises(PolygonError):
        PolygonSpec([(0, 0), (1, 0), (1, 0), (0, 1)])
    with pytest.raises(PolygonError):  # clockwise
        PolygonSpec([(0, 0), (0, 1), (1, 1), (1, 0)])
    with pytest.raises(PolygonError):  # bowtie
        PolygonSpec([(0, 0), (2, 2), (2, 0), (0, 2)])
    with pytest.raises(PolygonError):  # spike doubles back
        PolygonSpec([(0, 0), (4, 0), (2, 0), (1, 1)])


def test_picks_examples():
    assert picks_check(SQUARE2)
    assert picks_check(UNIT_SQUARE)
    assert picks_check(PolygonSpec([(0, 0), (3, 0), (0, 3)]))
    with pytest.raises(PolygonError):
        picks_check(RATIONAL_TRIANGLE)


def test_random_polygons_match_bruteforce():
    rng = random.Random(12)
    for i in range(40):
        poly = random_simple_polygon(rng, integral=(i % 3 == 0))
        closure, interior = polygon_bruteforce_counts(poly)
        assert count_closure_polygon(poly) == closure
        assert count_interior_polygon(poly) == interior
        if all(x.denominator == 1 and y.denominator == 1 for x, y in poly.vertices):
            assert picks_check(poly)


def test_translation_and_rotation_invariance():
    rng = random.Random(13)
    for _ in range(10):
        poly = random_simple_polygon(rng)
        closure = count_closure_polygon(poly)
        interior = count_interior_polygon(poly)
        shifted = PolygonSpec([(x + 3, y - 7) for x, y in poly.vertices])
        assert count_closure_polygon(shifted) == closure
        assert count_interior_polygon(shifted) == interior
        rotated = PolygonSpec([(-y, x) for x, y in poly.vertices])
        assert count_closure_polygon(rotated) == closure
        assert count_interior_polygon(rotated) == interior


def test_boundary_count_is_edge_sum():
    assert boundary_lattice_count(SQUARE2) == 8
    assert boundary_lattice_count(RATIONAL_TRIANGLE) == 5


def test_single_triangles_fuzz_against_bruteforce():
    # exercises the per-edge trapezoid bookkeeping directly on awkward
    # triangles: vertical walls, pointy integral corners, thin slivers
    rng = random.Random(31)
    produced = 0
    while produced < 120:
        pts = []
        while len(pts) < 3:
            den = rng.randint(1, 4)
            p = (
                Fraction(rng.randint(-5 * den, 5 * den), den),
                Fraction(rng.randint(-5 * den, 5 * den), den),
            )
            if p not in pts:
                pts.append(p)
        a, b, c = pts
        orient = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if orient == 0:
            continue
        if orient < 0:
            b, c = c, b
        produced += 1
        poly = PolygonSpec([a, b, c])
        closure, interior = polygon_bruteforce_counts(poly)
        assert count_closure_polygon(poly) == closure
        assert count_interior_polygon(poly) == interior


def test_right_triangles_match_triangle_closed_form():
    # the rectangular-triangle closed form is an independent exact path:
    # a1*x >= t1, a2*y >= t2, c1*x + c2*y <= t3 as a counterclockwise polygon
    rng = random.Random(44)
    produced = 0
    while produced < 150:
        a1, a2 = rng.randint(1, 40), rng.randint(1, 40)
        c1, c2 = rng.randint(1, 200), rng.randint(1, 200)
        if math.gcd(c1, c2) != 1:
            continue
        produced += 1
        t1, t2 = rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)
        t3_min = (c1 * t1 * a2 + c2 * t2 * a1) // (a1 * a2) + 1
        t3 = t3_min + rng.randint(0, 10 ** rng.randint(0, 9))
        spec, dil = TriangleSpec(a1, a2, c1, c2), TriangleDilation(t1, t2, t3)
        x0, y0 = Fraction(t1, a1), Fraction(t2, a2)
        poly = PolygonSpec(
            [(x0, y0), ((t3 - c2 * y0) / c1, y0), (x0, (t3 - c1 * x0) / c2)]
        )
        assert count_closure_polygon(poly) == count_closure_triangle(spec, dil)
        assert count_interior_polygon(poly) == count_interior_triangle(spec, dil)


# --- stress shapes: non-star polygons with walls, notches and collinear runs


def _comb(teeth, tooth, gap, depth, base):
    """Counterclockwise comb: a bar of height `base` with `teeth` upward teeth."""
    pitch = tooth + gap
    pts = [(0, 0), (teeth * pitch - gap, 0)]
    for k in reversed(range(teeth)):
        right = k * pitch + tooth
        pts += [(right, base + depth), (right - tooth, base + depth)]
        if k:
            pts += [(right - tooth, base), (right - pitch, base)]
    return pts


def _spiral(turns, width=2, gap=1):
    """Counterclockwise thick rectangular spiral: a corridor `width` wide
    around a square spiral path whose arms are `width + gap` apart."""
    dirs = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    path = [(0, 0)]
    for k in range(turns):
        dx, dy = dirs[k % 4]
        length = (width + gap) * (k // 2 + 1)
        path.append((path[-1][0] + dx * length, path[-1][1] + dy * length))
    normals = [(-dirs[k % 4][1], dirs[k % 4][0]) for k in range(turns)]
    normals = normals[:1] + normals + normals[-1:]  # in and out normal per point
    left, right = [], []
    for (x, y), n_in, n_out in zip(path, normals, normals[1:]):
        nx, ny = (n_in[0] + n_out[0], n_in[1] + n_out[1]) if n_in != n_out else n_in
        left.append((x + Fraction(width, 2) * nx, y + Fraction(width, 2) * ny))
        right.append((x - Fraction(width, 2) * nx, y - Fraction(width, 2) * ny))
    return right + left[::-1]


def _quarter_turns(pts, k):
    for _ in range(k):
        pts = [(-y, x) for x, y in pts]
    return pts


STRESS_SHAPES = [
    _comb(3, tooth=2, gap=2, depth=3, base=2),
    _comb(4, tooth=1, gap=1, depth=2, base=1),  # one-column teeth and gaps
    _spiral(6),
    _spiral(9),
    # collinear runs on the bottom, the right wall, the slanted top and the
    # left wall, some of them through rational points
    [(0, 0), (Fraction(1, 2), 0), (2, 0), (4, 0), (4, Fraction(3, 2)), (4, 3),
     (2, 4), (1, Fraction(9, 2)), (0, 5), (0, 2)],
    # darts: integral reflex vertices at a local x-maximum and x-minimum
    [(0, 0), (4, 2), (0, 4), (2, 2)],
    [(0, 0), (-4, -2), (0, -4), (-2, -2)],
    # integral reflex vertex where a vertical wall meets a slanted edge
    [(0, 0), (4, 0), (4, 3), (2, 3), (2, 1), (1, 2), (0, 2)],
]

# Shifts and a shear that keep vertices on lattice lines: x + 1/3 keeps
# integer y, y + 1/2 keeps vertical walls at integer x, the shear slants them.
STRESS_MAPS = [
    lambda x, y: (x, y),
    lambda x, y: (x + Fraction(1, 3), y),
    lambda x, y: (x, y + Fraction(1, 2)),
    lambda x, y: (x + Fraction(y) / 2, y),
]


def test_stress_shapes_match_bruteforce():
    for shape in STRESS_SHAPES:
        for k in range(4):
            for transform in STRESS_MAPS:
                poly = PolygonSpec(
                    [transform(*p) for p in _quarter_turns(shape, k)]
                )
                closure, interior = polygon_bruteforce_counts(poly)
                assert count_closure_polygon(poly) == closure
                assert count_interior_polygon(poly) == interior


def test_large_integral_shapes_picks_and_translation():
    # brute force is too slow past 100 vertices; Pick's theorem and
    # translation invariance are exact oracles for integral shapes
    for shape in (_comb(30, tooth=2, gap=2, depth=3, base=2), _spiral(52)):
        assert len(shape) > 100
        poly = PolygonSpec(shape)
        assert picks_check(poly)
        shifted = PolygonSpec([(x + 5, y - 11) for x, y in shape])
        assert count_closure_polygon(shifted) == count_closure_polygon(poly)
        assert count_interior_polygon(shifted) == count_interior_polygon(poly)


# --- validation on integer-scaled vertices


def _ref_orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _ref_on_segment(a, b, p):
    if _ref_orient(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _ref_segments_touch(p1, p2, q1, q2):
    o1, o2 = _ref_orient(p1, p2, q1), _ref_orient(p1, p2, q2)
    o3, o4 = _ref_orient(q1, q2, p1), _ref_orient(q1, q2, p2)
    if ((o1 > 0) != (o2 > 0) and o1 != 0 and o2 != 0) and (
        (o3 > 0) != (o4 > 0) and o3 != 0 and o4 != 0
    ):
        return True
    return (
        _ref_on_segment(p1, p2, q1)
        or _ref_on_segment(p1, p2, q2)
        or _ref_on_segment(q1, q2, p1)
        or _ref_on_segment(q1, q2, p2)
    )


def _reference_rejection(vertices):
    """The message of the plain Fraction pairwise validator, or None when it
    accepts: every pair of non-adjacent edges goes to the exact test."""
    verts = tuple((Fraction(v[0]), Fraction(v[1])) for v in vertices)
    m = len(verts)
    if m < 3:
        return "a polygon needs at least 3 vertices"
    for i in range(m):
        if verts[i] == verts[(i + 1) % m]:
            return "consecutive vertices must be distinct"
    for i in range(m):
        a, b = verts[i], verts[(i + 1) % m]
        w = verts[(i + 2) % m]
        if _ref_orient(a, b, w) == 0:
            along = (w[0] - b[0]) * (b[0] - a[0]) + (w[1] - b[1]) * (b[1] - a[1])
            if along <= 0:
                return "boundary doubles back on itself"
    for i in range(m):
        for j in range(i + 1, m):
            if j == i + 1 or (i == 0 and j == m - 1):
                continue
            if _ref_segments_touch(
                verts[i], verts[(i + 1) % m], verts[j], verts[(j + 1) % m]
            ):
                return f"edges {i} and {j} intersect; polygon is not simple"
    twice_area = sum(
        verts[i][0] * verts[(i + 1) % m][1] - verts[(i + 1) % m][0] * verts[i][1]
        for i in range(m)
    )
    if twice_area <= 0:
        return "vertices must be ordered counterclockwise"
    return None


def _near_degenerate_vertex_list(rng):
    """3 to 10 vertices on the 0..4 grid: raw order (crossings, T-junctions,
    collinear overlaps), sorted about the centroid (mostly simple, with
    collinear runs), the same reversed (clockwise), or sorted with a
    non-consecutive vertex repeated (pinches)."""
    m = rng.randint(3, 9)
    pts = rng.sample([(x, y) for x in range(5) for y in range(5)], m)
    mode = rng.randrange(4)
    if mode:
        cx = sum(x for x, _ in pts) / m
        cy = sum(y for _, y in pts) / m
        pts.sort(key=lambda p: (math.atan2(p[1] - cy, p[0] - cx), p))
        if mode == 2:
            pts.reverse()
        elif mode == 3:
            pts.insert(rng.randrange(m + 1), pts[rng.randrange(m)])
    return pts


def test_validation_matches_fraction_reference():
    rng = random.Random(61)
    outcomes = {}
    maps = [
        lambda x, y: (x, y),
        lambda x, y: (Fraction(x, 3), Fraction(y, 3)),
        lambda x, y: (x + Fraction(1, 2), y + Fraction(1, 7)),
    ]
    for _ in range(2000):
        pts = _near_degenerate_vertex_list(rng)
        for transform in maps:
            verts = [transform(x, y) for x, y in pts]
            expected = _reference_rejection(verts)
            try:
                poly = PolygonSpec(verts)
            except PolygonError as exc:
                assert str(exc) == expected, verts
            else:
                assert expected is None, verts
                assert poly.vertices == tuple((Fraction(x), Fraction(y)) for x, y in verts)
            kind = "accepted" if expected is None else expected.split(";")[0].split()[0]
            outcomes[kind] = outcomes.get(kind, 0) + 1
    # every outcome is common, so the comparison above is not vacuous
    assert set(outcomes) == {"accepted", "consecutive", "boundary", "edges", "vertices"}
    assert min(outcomes.values()) >= 300, outcomes


def test_malformed_vertices_raise_polygon_error():
    tri = [(0, 0), (1, 0), (0, 1)]
    bad = [
        (0, (0, 0, 5)),  # a third coordinate is not dropped
        (1, (1,)),
        (2, (float("inf"), 1)),
        (2, (0, float("nan"))),
        (1, ("x", 0)),
        (2, ("1/0", 1)),
        (0, None),
        (1, 7),
    ]
    for index, vertex in bad:
        verts = list(tri)
        verts[index] = vertex
        with pytest.raises(PolygonError, match=f"^vertex {index} "):
            PolygonSpec(verts)
    with pytest.raises(PolygonError, match="^vertex 0 "):
        PolygonSpec([(0, 0, 5), (1, 0, 5), (0, 1, 5)])
    # everything Fraction accepts keeps working
    mixed = PolygonSpec([(0, 0), (1.5, Fraction(0)), ("1/2", "3/2")])
    assert mixed == PolygonSpec([(0, 0), (Fraction(3, 2), 0), (Fraction(1, 2), Fraction(3, 2))])
    assert hash(mixed) == hash(PolygonSpec(list(mixed.vertices)))


def test_segment_rejects_malformed_endpoints():
    for bad in [(0, 0, 5), (1,), (float("inf"), 0), (0, float("nan")), ("x", 0), None]:
        with pytest.raises(ValueError, match="^endpoint p "):
            segment_lattice_count(bad, (3, 3))
        with pytest.raises(ValueError, match="^endpoint q "):
            segment_lattice_count((3, 3), bad)
    assert segment_lattice_count((0.0, "0"), ("3", Fraction(3))) == 4


def _star(rng, m, radius, q):
    """Counterclockwise star-shaped polygon about the origin on the 1/q grid:
    one vertex per angular sector, with radii between 0.7 and 1 radius."""
    verts = []
    for i in range(m):
        theta = 2 * math.pi * (i + 0.3 + 0.4 * rng.random()) / m
        r = radius * (0.7 + 0.3 * rng.random())
        verts.append(
            (Fraction(round(r * math.cos(theta) * q), q),
             Fraction(round(r * math.sin(theta) * q), q))
        )
    return verts


def test_many_vertices_build_and_count_fast():
    verts = _star(random.Random(62), 2000, 1000, 3)
    start = time.perf_counter()
    poly = PolygonSpec(verts)
    closure, interior = count_closure_polygon(poly), count_interior_polygon(poly)
    assert time.perf_counter() - start < 3.0
    shifted = PolygonSpec([(x + 7, y - 4) for x, y in verts])
    assert count_closure_polygon(shifted) == closure
    assert count_interior_polygon(shifted) == interior
    assert picks_check(PolygonSpec([(3 * x, 3 * y) for x, y in verts]))


def _primes_from(n, k):
    primes = []
    while len(primes) < k:
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            primes.append(n)
        n += 1
    return primes


def test_huge_common_denominator_matches_bruteforce():
    # one prime near 10^6 per vertex, so all coordinates scale by ~10^72
    rng = random.Random(63)
    verts = []
    for k, p in enumerate(_primes_from(10**6, 12)):
        theta = 2 * math.pi * (k + 0.3 + 0.4 * rng.random()) / 12
        r = 4 + 2 * rng.random()
        x = Fraction(round((0.5 + r * math.cos(theta)) * p), p)
        y = Fraction(round((0.25 + r * math.sin(theta)) * p), p)
        assert x.denominator == y.denominator == p
        verts.append((x, y))
    assert math.lcm(*(c.denominator for v in verts for c in v)) > 10**70
    poly = PolygonSpec(verts)
    closure, interior = polygon_bruteforce_counts(poly)
    assert count_closure_polygon(poly) == closure
    assert count_interior_polygon(poly) == interior
