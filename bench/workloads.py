"""Seeded input generators for the benchmark's four workloads.

Stdlib only: nothing here imports `latticecount`, so the inputs a run hands
to the library depend on the seed alone.  Each workload is a stream of
*cycles*.  A cycle draws one input from every size stratum, in a shuffled
order, so every completed cycle carries the same mix of small and large
inputs whatever the seed; that keeps medians and throughput comparable
between seeds while the inputs themselves differ.  Cycle k of a seed is a
pure function of (seed, k), so the untraced and the traced phase of a run
can replay the same cycles in separate processes.

Inputs are plain data (ints, `Fraction`s, tuples).  The workload process
turns them into library objects outside the timed region.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("simplex_dilate", "triangle_wide", "polygon_star", "cli_oneshot")

# Stratum counts per cycle.
TRIANGLE_STRATA = 17  # odd, so the median op lies inside a stratum
POLYGON_STRATA = 13  # odd, so the median op lies inside a stratum
# PolygonSpec validation is O(m^2): up to 96 vertices the mean op took
# ~0.24 s, too few ops per run for a p90 with 10 samples beyond it, and up
# to 64 the median op, from a dozen polygons per run, moved 11 % by seed.
POLYGON_MAX_M = 48
CLI_COMMANDS = ("count_auto", "count_interior", "reciprocity", "triangle", "polygon", "interpolate")


def cycle_rng(seed: int, workload: str, k: int) -> random.Random:
    """Independent stream for cycle k; k = -1 is the warm-up stream."""
    return random.Random(f"{workload}:{seed}:{k}")


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One log-uniform draw from each of `count` equal slices of [lo, hi], shuffled."""
    span = math.log(hi) - math.log(lo)
    out = [math.exp(math.log(lo) + span * (i + rng.random()) / count) for i in range(count)]
    rng.shuffle(out)
    return out


# --- exact small linear algebra (independent of the library) ---------------


def det(rows: list[list]) -> int:
    """Determinant of a 1x1, 2x2 or 3x3 matrix."""
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _cramer(a: list[list[int]], t: tuple[int, ...], i: int) -> tuple[list[int], int]:
    """Numerators and common denominator of the vertex where all facets but i are tight."""
    n = len(a) - 1
    rows = [a[k] for k in range(n + 1) if k != i]
    rhs = [t[k] for k in range(n + 1) if k != i]
    nums = [det([r[:j] + [rhs[k]] + r[j + 1 :] for k, r in enumerate(rows)]) for j in range(n)]
    return nums, det(rows)


def simplex_vertices(a: list[list[int]], t: tuple[int, ...]) -> list[tuple[Fraction, ...]]:
    """Vertices of {x : A x <= t} for a valid simplex matrix and interior-point t."""
    out = []
    for i in range(len(a)):
        nums, d = _cramer(a, t, i)
        out.append(tuple(Fraction(x, d) for x in nums))
    return out


def vertex_period(a: list[list[int]], t: tuple[int, ...]) -> int:
    """lcm of the denominators of all vertex coordinates of {x : A x <= t}."""
    period = 1
    for i in range(len(a)):
        nums, d = _cramer(a, t, i)
        for x in nums:
            period = math.lcm(period, abs(d) // math.gcd(x, d))
    return period


def is_simplex_matrix(a: list[list[int]]) -> bool:
    """Both shape invariants: nonsingular maximal minors of one alternating sign."""
    n = len(a) - 1
    signs = set()
    for i in range(n + 1):
        minor = det([a[k] for k in range(n + 1) if k != i])
        if minor == 0:
            return False
        signs.add((minor if i % 2 == 0 else -minor) > 0)
    return len(signs) == 1


def box_cells(verts: list[tuple[Fraction, ...]]) -> int:
    cells = 1
    for axis in range(len(verts[0])):
        coords = [v[axis] for v in verts]
        cells *= max(0, math.floor(max(coords)) - math.ceil(min(coords)) + 1)
    return cells


def volume(verts: list[tuple[Fraction, ...]]) -> Fraction:
    n = len(verts) - 1
    return abs(Fraction(det([[v[j] - verts[0][j] for j in range(n)] for v in verts[1:]]))) / math.factorial(n)


# Entries in [-4, 4], small magnitudes more likely: uniform entries make
# 3-D matrices with a small period about 100 times rarer, and rejection
# sampling them took longer than counting them.
ENTRIES = range(-4, 5)
ENTRY_WEIGHTS = (1, 2, 3, 5, 6, 5, 3, 2, 1)


def random_system(
    rng: random.Random, n: int, periods=range(1, 25), max_volume: float = math.inf
) -> tuple[list[list[int]], tuple[int, ...], int]:
    """(A, b, period): |A_ij| <= 4, b_i in [1, 6], vertex-denominator lcm in `periods`, volume <= max_volume.

    b > 0 puts the origin strictly inside, so every s*b with s >= 1 is a
    full-dimensional simplex.  The period is the lcm of the vertex
    denominators of {x : A x <= b}, a period of its Ehrhart quasipolynomial.
    """
    while True:
        a = [rng.choices(ENTRIES, ENTRY_WEIGHTS, k=n) for _ in range(n + 1)]
        if not is_simplex_matrix(a):
            continue
        for _ in range(20):  # a valid matrix is rare enough to try several b with it
            b = tuple(rng.randint(1, 6) for _ in range(n + 1))
            period = vertex_period(a, b)
            if period in periods and volume(simplex_vertices(a, b)) <= max_volume:
                return a, b, period


# --- simplex_dilate ----------------------------------------------------------

# The time of a count varies several-fold with the matrix at a fixed s
# (coefficient of variation about 0.9), so a steady mean needs many hundreds
# of systems per run, which keeps s moderate.  An interpolation samples s up
# to period * (n + 2), so its cost follows the period: every cycle has 2-D
# systems of periods 1 to 6 and 3-D systems of period 2 (with lcm up to 24
# a single 3-D fit took over 30 s on the seed, period-4 fits up to 2.5 s).
SIMPLEX_S = {2: (50, 500), 3: (3, 10)}
SIMPLEX_PERIODS = {2: (1, 2, 3, 4, 5, 6), 3: (2, 2)}
SIMPLEX_MAX_VOLUME = 30
BRUTE_CELLS = 3000  # box size for the brute-force check at s0


def simplex_cycle(seed: int, k: int) -> list[dict]:
    """Systems for classical dilation s*b: interpolate, then counts at two large s."""
    rng = cycle_rng(seed, "simplex_dilate", k)
    items = []
    for n, periods in SIMPLEX_PERIODS.items():
        dilations = _stratified(rng, 2 * len(periods), *SIMPLEX_S[n])
        for i, period in enumerate(periods):
            a, b, _ = random_system(rng, n, (period,), SIMPLEX_MAX_VOLUME)
            s0 = rng.randint(1, 3)
            while s0 > 1 and box_cells(simplex_vertices(a, tuple(s0 * x for x in b))) > BRUTE_CELLS:
                s0 -= 1
            s_pair = (round(dilations[2 * i]), round(dilations[2 * i + 1]))
            items.append({"n": n, "a": a, "b": b, "period": period, "s": s_pair, "s0": s0})
    rng.shuffle(items)
    return items


def simplex_warmup(seed: int) -> list[dict]:
    rng = cycle_rng(seed, "simplex_dilate", -1)
    a, b, period = random_system(rng, 2, (1, 2))
    return [{"n": 2, "a": a, "b": b, "period": period, "s": (5, 7), "s0": 1}]


# --- triangle_wide -----------------------------------------------------------


def _coprime_pair(rng: random.Random, c1: float, c2: float) -> tuple[int, int]:
    x, y = max(1, round(c1)), max(1, round(c2))
    while math.gcd(x, y) != 1:
        y += 1
    return x, y


def _jittered(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """The log-spaced centres of `count` slices of [lo, hi], each moved by at most 2 %."""
    span = math.log(hi) - math.log(lo)
    return [math.exp(math.log(lo) + span * (i + 0.5) / count + rng.uniform(-0.02, 0.02)) for i in range(count)]


def triangle_item(rng: random.Random, c1: int, c2: int, t_bound: int, width_max: float) -> dict:
    """A full-dimensional dilation: t3 strictly above its least valid value.

    The x-width of the triangle is at most about `width_max`, which bounds
    the slice count of the recursion reference.
    """
    a1, a2 = rng.randint(1, 50), rng.randint(1, 50)
    t1, t2 = rng.randint(-t_bound, t_bound), rng.randint(-t_bound, t_bound)
    num = c1 * t1 * a2 + c2 * t2 * a1
    t3_min = -((-num) // (a1 * a2))  # least t3 with a nonempty region
    width = math.exp(rng.random() * math.log(width_max))
    delta = 1 + int(c1 * width * rng.random())
    return {"a1": a1, "a2": a2, "c1": c1, "c2": c2, "t": (t1, t2, t3_min + delta)}


def triangle_cycle(seed: int, k: int) -> list[dict]:
    """Distinct wide triangles: c1, c2 log-uniform in [1, 1e4], |t1|, |t2| <= 1e9."""
    rng = cycle_rng(seed, "triangle_wide", k)
    c1s = _jittered(rng, TRIANGLE_STRATA, 1, 1e4)
    c2s = _jittered(rng, TRIANGLE_STRATA, 1, 1e4)
    # c1 + c2 sets the cost of the Dedekind-Rademacher loops.  Sizes near the
    # stratum centres and a fixed pairing of c1 and c2 strata give every
    # cycle the same mix of costs, so the median op stays put between seeds.
    items = [
        triangle_item(rng, *_coprime_pair(rng, c1s[i], c2s[(5 * i + 3) % TRIANGLE_STRATA]), t_bound=10**9, width_max=300)
        for i in range(TRIANGLE_STRATA)
    ]
    rng.shuffle(items)
    return items


def triangle_warmup(seed: int) -> list[dict]:
    rng = cycle_rng(seed, "triangle_wide", -1)
    return [triangle_item(rng, 3, 2, t_bound=100, width_max=5)]


# --- polygon_star ------------------------------------------------------------


def _cross(o, p, q) -> Fraction:
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def star_polygon(rng: random.Random, m: int, radius: float, q: int) -> list[tuple[Fraction, Fraction]]:
    """Counterclockwise polygon star-shaped about its centre, vertices on the 1/q grid.

    One vertex per angular sector of width 2*pi/m; a draw is kept only when
    every consecutive pair turns strictly counterclockwise about the centre
    by less than a half turn and the turns add up to one revolution, which
    makes the polygon simple.
    """
    while True:
        cx = Fraction(rng.randint(-2000, 2000), rng.randint(1, 3))
        cy = Fraction(rng.randint(-2000, 2000), rng.randint(1, 3))
        centre = (cx, cy)
        verts = []
        for i in range(m):
            theta = 2 * math.pi * (i + 0.3 + 0.4 * rng.random()) / m
            r = radius * (0.7 + 0.3 * rng.random())
            verts.append(
                (
                    Fraction(round((float(cx) + r * math.cos(theta)) * q), q),
                    Fraction(round((float(cy) + r * math.sin(theta)) * q), q),
                )
            )
        turns = 0.0
        ok = True
        for i in range(m):
            u, v = verts[i], verts[(i + 1) % m]
            if _cross(centre, u, v) <= 0:
                ok = False
                break
            au = math.atan2(float(u[1] - cy), float(u[0] - cx))
            av = math.atan2(float(v[1] - cy), float(v[0] - cx))
            turns += (av - au) % (2 * math.pi)
        if ok and round(turns / (2 * math.pi)) == 1:
            return verts


def polygon_cycle(seed: int, k: int) -> list[dict]:
    """Star-shaped polygons, one per stratum (m, q), radius 45.

    m is log-spaced over [6, POLYGON_MAX_M] and fixed per stratum, because
    the O(m^2) validation and triangulation dominate the cost; the seed
    draws the centre, the angles and the radii.
    """
    rng = cycle_rng(seed, "polygon_star", k)
    items = []
    for i in range(POLYGON_STRATA):
        m = round(6 * (POLYGON_MAX_M / 6) ** ((i + 0.5) / POLYGON_STRATA))
        q = 1 + i % 3
        items.append({"q": q, "vertices": star_polygon(rng, m, 45, q)})
    rng.shuffle(items)
    return items


def polygon_warmup(seed: int) -> list[dict]:
    rng = cycle_rng(seed, "polygon_star", -1)
    return [{"q": 2, "vertices": star_polygon(rng, 6, 8, 2)}]


# --- cli_oneshot -------------------------------------------------------------


def _system_with_box(rng: random.Random, n: int, target: float, lo: float, hi: float) -> tuple[list[list[int]], tuple[int, ...]]:
    """A system and the least dilation s*b whose bounding box has at least `target` cells, at most hi."""
    while True:
        a, b, _ = random_system(rng, n)
        s = 1
        while box_cells(simplex_vertices(a, tuple(s * x for x in b))) < target:
            s += 1
        t = tuple(s * x for x in b)
        if lo <= box_cells(simplex_vertices(a, t)) <= hi:
            return a, t


def cli_cycle(seed: int, k: int) -> list[dict]:
    """One process per subcommand, in a shuffled order.

    The enumeration box of the two count commands sets their cost.  Its
    target size walks [1e4, 1e5] by the golden-ratio sequence in k, so
    every run of whole cycles covers that range evenly whatever the seed.
    """
    rng = cycle_rng(seed, "cli_oneshot", k)
    items = []
    for j, kind in enumerate(CLI_COMMANDS):
        n = rng.choice((2, 3))
        if kind in ("count_auto", "count_interior"):
            u = (k * 0.6180339887 + j / 2 + rng.uniform(-0.01, 0.01)) % 1
            a, t = _system_with_box(rng, n, 10 ** (4 + u), 1e4, 1e5)
            items.append({"kind": kind, "a": a, "t": t})
        elif kind == "reciprocity":
            a, b, _ = random_system(rng, n, max_volume=SIMPLEX_MAX_VOLUME)
            s = round(math.exp(rng.uniform(*(math.log(x) for x in SIMPLEX_S[n]))))
            items.append({"kind": kind, "a": a, "t": tuple(s * x for x in b)})
        elif kind == "triangle":
            c1, c2 = _coprime_pair(rng, rng.randint(1, 50), rng.randint(1, 50))
            item = triangle_item(rng, c1, c2, t_bound=200, width_max=40)
            items.append({"kind": kind, **item})
        elif kind == "polygon":
            q = rng.randint(1, 3)
            m = rng.randint(6, 24)
            items.append({"kind": kind, "vertices": star_polygon(rng, m, rng.uniform(8, 30), q)})
        else:
            a, b, period = random_system(rng, 2, range(1, 7))
            items.append({"kind": kind, "a": a, "t": b, "period": period})
    rng.shuffle(items)
    return items


def cli_warmup(seed: int) -> list[dict]:
    rng = cycle_rng(seed, "cli_oneshot", -1)
    a, b, _ = random_system(rng, 2)
    return [{"kind": "reciprocity", "a": a, "t": b}]


CYCLES = {
    "simplex_dilate": (simplex_cycle, simplex_warmup),
    "triangle_wide": (triangle_cycle, triangle_warmup),
    "polygon_star": (polygon_cycle, polygon_warmup),
    "cli_oneshot": (cli_cycle, cli_warmup),
}
