"""Independent references for every op result.

Each `check_<workload>(lib, item, results)` gets one generated input, the
results of its ops in order, and returns the positions of the ops whose
result is wrong.  `lib` is the library, used only for reference paths that
differ from the one measured: brute-force enumeration, the slicing
recursion on a triangle rebuilt as a facet system, and in-process values
for the CLI.  Everything else here is the benchmark's own arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction



def eval_quasipolynomial(table: dict[str, list], period: int, s: int) -> Fraction:
    """Value at s of a serialized one-variable quasipolynomial."""
    return sum((Fraction(c) * Fraction(s) ** e for e, c in table[str(s % period)]), Fraction(0))


def check_simplex(lib, item: dict, results: list) -> list[int]:
    """Ops: interpolate, then closure and interior at each large s.

    The fit must match brute force at a small s0; the closure at large s
    must equal the fit, and the interior must equal (-1)^n q(-s)
    (Ehrhart-Macdonald reciprocity).
    """
    bad = []
    table = results[0]
    period, n, b = item["period"], item["n"], item["b"]
    system = lib.SimplexSystem(item["a"], b)
    s0 = item["s0"]
    if eval_quasipolynomial(table, period, s0) != lib.count_closure_bruteforce(system, tuple(s0 * x for x in b)):
        bad.append(0)
    sign = -1 if n % 2 else 1
    for j, s in enumerate(item["s"]):
        if results[1 + 2 * j] != eval_quasipolynomial(table, period, s):
            bad.append(1 + 2 * j)
        if results[2 + 2 * j] != sign * eval_quasipolynomial(table, period, -s):
            bad.append(2 + 2 * j)
    return bad


def triangle_system(lib, item: dict):
    """The triangle as the facet system -a1 x <= -t1, -a2 y <= -t2, c1 x + c2 y <= t3."""
    system = lib.SimplexSystem([[-item["a1"], 0], [0, -item["a2"]], [item["c1"], item["c2"]]], [-1, -1, 1])
    t1, t2, t3 = item["t"]
    return system, (-t1, -t2, t3)


def check_triangle(lib, item: dict, results: list) -> list[int]:
    """Ops: closure and interior; both must match the slicing recursion."""
    system, t = triangle_system(lib, item)
    expected = (lib.count_closure(system, t), lib.count_interior(system, t))
    return [i for i in range(2) if results[i] != expected[i]]


def column_scan(vertices) -> tuple[int, int, int]:
    """(closure, interior, boundary) lattice counts of a simple polygon, column by column.

    Coordinates are scaled by the common denominator L so that all edge
    arithmetic is integral.  On the column x = X, edges whose x-range
    contains X in the half-open sense [min, max) cross the line x = X + eps;
    consecutive pairs of sorted crossings bound the inside.  An integer y
    strictly between a pair is interior unless it lies on an edge; lattice
    points on edges (vertical edges on the column included) are boundary.
    """
    vertices = [(Fraction(x), Fraction(y)) for x, y in vertices]
    scale = math.lcm(*(c.denominator for v in vertices for c in v))
    pts = [(int(x * scale), int(y * scale)) for x, y in vertices]
    m = len(pts)
    closure = interior = boundary = 0
    xs = [p[0] for p in pts]
    for col in range(-((-min(xs)) // scale), max(xs) // scale + 1):
        xc = col * scale
        crossings = []
        on_edge = set()
        for i in range(m):
            (x1, y1), (x2, y2) = pts[i], pts[(i + 1) % m]
            if x1 == x2:
                if x1 == xc:
                    lo, hi = sorted((y1, y2))
                    on_edge.update(range(-((-lo) // scale), hi // scale + 1))
                continue
            if not min(x1, x2) <= xc <= max(x1, x2):
                continue
            num = y1 * (x2 - x1) + (xc - x1) * (y2 - y1)
            den = (x2 - x1) * scale
            if den < 0:
                num, den = -num, -den
            if num % den == 0:
                on_edge.add(num // den)
            if xc < max(x1, x2):
                crossings.append(Fraction(num, den))
        crossings.sort()
        spans = list(zip(crossings[0::2], crossings[1::2]))
        strict = sum(max(0, math.ceil(hi) - 1 - math.floor(lo)) for lo, hi in spans)
        inside_edges = sum(1 for y in on_edge if any(lo < y < hi for lo, hi in spans))
        interior += strict - inside_edges
        boundary += len(on_edge)
    closure = interior + boundary
    return closure, interior, boundary


def twice_area(vertices) -> Fraction:
    m = len(vertices)
    return sum(
        (vertices[i][0] * vertices[(i + 1) % m][1] - vertices[(i + 1) % m][0] * vertices[i][1] for i in range(m)),
        Fraction(0),
    )


def check_polygon(lib, item: dict, results: list) -> list[int]:
    """One op: [closure, interior].  Column scan must match; Pick's theorem on integer vertices."""
    value = results[0]
    vertices = [(Fraction(x), Fraction(y)) for x, y in item["vertices"]]
    closure, interior, boundary = column_scan(vertices)
    if value != [closure, interior]:
        return [0]
    if item["q"] == 1 and twice_area(vertices) != 2 * value[1] + boundary - 2:
        return [0]
    return []


def parse_machine(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def eval_cli_poly(text: str, s: int) -> Fraction:
    """Value of a polynomial printed by `latticecount interpolate` ("c + c*s + c*s^2")."""
    total = Fraction(0)
    if text == "0":
        return total
    for term in text.split(" + "):
        coeff, star, power = term.partition("*s")
        if not star:
            exp = 0
        elif power.startswith("^"):
            exp = int(power[1:])
        else:
            exp = 1
        total += Fraction(coeff) * Fraction(s) ** exp
    return total


def check_cli(lib, item: dict, results: list) -> list[int]:
    """One op: a latticecount process.  Exit 0, and its output agrees with the library in-process."""
    out = results[0]
    if out["code"] != 0:
        return [0]
    kv = parse_machine(out["stdout"])
    kind = item["kind"]
    if kind == "triangle":
        spec = lib.TriangleSpec(item["a1"], item["a2"], item["c1"], item["c2"])
        ok = kv.get("cross_checked") == "yes" and kv.get("count") == str(
            lib.count_closure_triangle(spec, lib.TriangleDilation(*item["t"]))
        )
    elif kind == "polygon":
        ok = kv.get("count") == str(lib.count_closure_polygon(lib.PolygonSpec(item["vertices"])))
    else:
        system = lib.SimplexSystem(item["a"], item["t"])
        t = tuple(item["t"])
        if kind == "count_auto":
            ok = kv.get("cross_checked") == "yes" and kv.get("count") == str(lib.count_closure(system, t))
        elif kind == "count_interior":
            ok = kv.get("cross_checked") == "yes" and kv.get("count") == str(lib.count_interior(system, t))
        elif kind == "reciprocity":
            sign = -1 if system.n % 2 else 1
            ok = kv.get("reciprocity") == "PASS" and kv.get("signed_closure") == str(
                sign * lib.count_closure(system, t)
            )
        else:
            period = item["period"]
            ok = kv.get("holdout") == "PASS"
            for r in range(period):
                s = r + period * (system.n + 2)
                poly = kv.get(f"class_{r}")
                if poly is None or eval_cli_poly(poly, s) != lib.count_closure(system, tuple(s * x for x in t)):
                    ok = False
    return [] if ok else [0]


CHECKS = {
    "simplex_dilate": check_simplex,
    "triangle_wide": check_triangle,
    "polygon_star": check_polygon,
    "cli_oneshot": check_cli,
}


def ops_per_item(workload: str, item: dict) -> int:
    return 1 + 2 * len(item["s"]) if workload == "simplex_dilate" else 2 if workload == "triangle_wide" else 1


def raised(result) -> bool:
    return isinstance(result, dict) and "error" in result


def failed_ops(lib, workload: str, cycles: list[list[dict]], results: list) -> list[int]:
    """Global positions of wrong results, given the items of each cycle run.

    When an op of an item raised, every op of that item counts as failed:
    the item's checks need all of its results.
    """
    check = CHECKS[workload]
    bad, pos = [], 0
    for cycle in cycles:
        for item in cycle:
            width = ops_per_item(workload, item)
            chunk = results[pos : pos + width]
            if any(raised(r) for r in chunk):
                bad.extend(range(pos, pos + width))
            else:
                bad.extend(pos + i for i in check(lib, item, chunk))
            pos += width
    return bad
