"""Command-line front end.

Subcommands: count, reciprocity, triangle, polygon, interpolate.

Problem files are line oriented; blank lines and `#` comments are ignored.
A simplex problem is

    simplex n=<n>
    <n+1 rows of n integers>          # the matrix A
    t: <n+1 integers>                 # facet offsets (also the base vector)

and a polygon problem is

    polygon
    <one "x y" pair of rationals per line, e.g. "5/2 0">

Exit codes: 0 success, 2 unparseable input, 3 invalid dilation or refused
enumeration, 4 cross-check or verification mismatch.  Output is
deterministic; `--machine` switches to a key=value block for scripting.
The environment variable LATTICECOUNT_CELL_BUDGET (a non-negative integer)
overrides the bounding box guard of the brute-force engine.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Sequence

from .core import (
    InvalidDilationError,
    LatticeCountError,
    SimplexSystem,
    validate_dilation,
)
from .oracle import (
    DEFAULT_CELL_BUDGET,
    CellBudgetExceededError,
    _bounding_box,
    count_closure_bruteforce,
    count_interior_bruteforce,
)
from .polygon import PolygonError, PolygonSpec, count_closure_polygon, count_interior_polygon
from .quasipoly import NotQuasipolynomialError, interpolate
from .recursion import count_closure, count_interior
from .triangle import (
    TriangleDilation,
    TriangleSpec,
    count_closure_triangle,
    dilation_vector,
    to_simplex_system,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_MISMATCH = 4

AUTO_CROSSCHECK_CELLS = 10**6


class ParseError(LatticeCountError):
    """An input file could not be parsed as a problem description."""


class MismatchError(LatticeCountError):
    """Two engines disagreed, or a verification failed."""


def _content_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def parse_simplex_file(text: str) -> tuple[SimplexSystem, tuple[int, ...]]:
    lines = _content_lines(text)
    if not lines or not lines[0].replace(" ", "").startswith("simplexn="):
        raise ParseError("expected header 'simplex n=<n>'")
    try:
        n = int(lines[0].split("=", 1)[1])
    except ValueError as exc:
        raise ParseError(f"bad dimension in header: {exc}") from exc
    if n < 1:
        raise ParseError("dimension must be at least 1")
    if len(lines) != n + 3:
        raise ParseError(f"expected {n + 1} matrix rows and one 't:' line")
    rows = []
    for line in lines[1 : n + 2]:
        try:
            row = [int(x) for x in line.split()]
        except ValueError as exc:
            raise ParseError(f"bad matrix row {line!r}") from exc
        if len(row) != n:
            raise ParseError(f"matrix row {line!r} must have {n} entries")
        rows.append(row)
    tline = lines[n + 2]
    if not tline.startswith("t:"):
        raise ParseError("last line must be 't: <n+1 integers>'")
    try:
        t = tuple(int(x) for x in tline[2:].split())
    except ValueError as exc:
        raise ParseError(f"bad offsets line {tline!r}") from exc
    if len(t) != n + 1:
        raise ParseError(f"offset line must have {n + 1} integers")
    try:
        system = SimplexSystem(rows, t)
    except LatticeCountError as exc:
        raise ParseError(str(exc)) from exc
    return system, t


def parse_polygon_file(text: str) -> PolygonSpec:
    lines = _content_lines(text)
    if not lines or lines[0] != "polygon":
        raise ParseError("expected header 'polygon'")
    verts = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'x y' per vertex line, got {line!r}")
        try:
            verts.append((Fraction(parts[0]), Fraction(parts[1])))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational in {line!r}") from exc
    try:
        return PolygonSpec(verts)
    except PolygonError as exc:
        raise ParseError(str(exc)) from exc


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _cell_budget() -> int:
    raw = os.environ.get("LATTICECOUNT_CELL_BUDGET")
    if raw is None:
        return DEFAULT_CELL_BUDGET
    try:
        budget = int(raw)
    except ValueError as exc:
        raise ParseError(f"bad LATTICECOUNT_CELL_BUDGET {raw!r}") from exc
    if budget < 0:
        raise ParseError(f"LATTICECOUNT_CELL_BUDGET must be non-negative, got {raw!r}")
    return budget


def _emit(machine: bool, pairs: list[tuple[str, object]], human: str) -> None:
    if machine:
        for key, value in pairs:
            print(f"{key}={value}")
    else:
        print(human)


def cmd_count(args: argparse.Namespace) -> int:
    system, t = parse_simplex_file(_read_file(args.file))
    report = validate_dilation(system, t)
    if not report.nonempty:
        raise InvalidDilationError("dilation cuts out an empty region")
    degenerate = not report.full_dimensional

    budget = _cell_budget()
    strict = args.mode == "interior"
    cross_checked = False
    if args.engine == "oracle":
        fn = count_interior_bruteforce if strict else count_closure_bruteforce
        value = fn(system, t, cell_budget=budget)
    else:
        if strict and degenerate:
            value = 0  # collapsed region: geometric interior is empty
        else:
            value = count_interior(system, t) if strict else count_closure(system, t)
        if args.engine == "auto":
            _, cells = _bounding_box(report.vertices)
            if cells <= min(budget, AUTO_CROSSCHECK_CELLS):
                fn = count_interior_bruteforce if strict else count_closure_bruteforce
                reference = fn(system, t, cell_budget=budget)
                cross_checked = True
                if reference != value:
                    raise MismatchError(
                        f"recursion gives {value} but enumeration gives {reference}"
                    )
    _emit(
        args.machine,
        [
            ("mode", args.mode),
            ("engine", args.engine),
            ("cross_checked", "yes" if cross_checked else "no"),
            ("count", value),
        ],
        str(value),
    )
    return EXIT_OK


def cmd_reciprocity(args: argparse.Namespace) -> int:
    system, t = parse_simplex_file(_read_file(args.file))
    negated = tuple(-x for x in t)
    lhs = count_interior(system, negated)
    sign = -1 if system.n % 2 else 1
    rhs = sign * count_closure(system, t)
    ok = lhs == rhs
    verdict = "PASS" if ok else "FAIL"
    _emit(
        args.machine,
        [
            ("interior_at_negated", lhs),
            ("signed_closure", rhs),
            ("reciprocity", verdict),
        ],
        f"interior(-t) = {lhs}\n(-1)^n * closure(t) = {rhs}\n{verdict}",
    )
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_triangle(args: argparse.Namespace) -> int:
    try:
        spec = TriangleSpec(args.a1, args.a2, args.c1, args.c2)
    except LatticeCountError as exc:
        raise ParseError(str(exc)) from exc
    dil = TriangleDilation(args.t1, args.t2, args.t3)
    value = count_closure_triangle(spec, dil)
    cross_checked = False
    if args.check_oracle:
        reference = count_closure_bruteforce(
            to_simplex_system(spec), dilation_vector(dil), cell_budget=_cell_budget()
        )
        cross_checked = True
        if reference != value:
            raise MismatchError(
                f"closed form gives {value} but enumeration gives {reference}"
            )
    _emit(
        args.machine,
        [("cross_checked", "yes" if cross_checked else "no"), ("count", value)],
        str(value),
    )
    return EXIT_OK


def cmd_polygon(args: argparse.Namespace) -> int:
    poly = parse_polygon_file(_read_file(args.file))
    if args.mode == "interior":
        value = count_interior_polygon(poly)
    else:
        value = count_closure_polygon(poly)
    _emit(args.machine, [("mode", args.mode), ("count", value)], str(value))
    return EXIT_OK


def _format_poly(coeffs: dict[tuple[int, ...], Fraction], var: str) -> str:
    if not coeffs:
        return "0"
    parts = []
    for (e,), c in sorted(coeffs.items()):
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append(f"{c}*{var}")
        else:
            parts.append(f"{c}*{var}^{e}")
    return " + ".join(parts)


def cmd_interpolate(args: argparse.Namespace) -> int:
    system, base = parse_simplex_file(_read_file(args.file))
    if args.degree is None:
        args.degree = system.n

    def counter(svec: tuple[int, ...]) -> int:
        s = svec[0]
        return count_closure(system, tuple(s * bi for bi in base))

    try:
        q = interpolate(counter, 1, (args.period,), args.degree)
    except NotQuasipolynomialError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MISMATCH

    pairs: list[tuple[str, object]] = [("period", args.period), ("degree", args.degree)]
    lines = [f"period {args.period}, degree {args.degree}"]
    for residue in sorted(q.table):
        text = _format_poly(dict(q.table[residue]), "s")
        pairs.append((f"class_{residue[0]}", text))
        lines.append(f"s = {residue[0]} mod {args.period}: {text}")
    holdout_ok = True
    lo = args.period * (args.degree + 1)
    for s in range(lo, lo + args.holdout):
        if q.evaluate((s,)) != counter((s,)):
            holdout_ok = False
    verdict = "PASS" if holdout_ok else "FAIL"
    pairs.append(("holdout", verdict))
    lines.append(f"holdout {verdict}")
    _emit(args.machine, pairs, "\n".join(lines))
    return EXIT_OK if holdout_ok else EXIT_MISMATCH


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticecount",
        description="Exact lattice-point counts for facet-dilated simplices, "
        "rectangular rational triangles, and rational polygons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count lattice points of a simplex problem")
    p_count.add_argument("file")
    p_count.add_argument("--mode", choices=["interior", "closure"], default="closure")
    p_count.add_argument(
        "--engine", choices=["recursion", "oracle", "auto"], default="auto"
    )
    p_count.add_argument("--machine", action="store_true")
    p_count.set_defaults(func=cmd_count)

    p_rec = sub.add_parser("reciprocity", help="check interior(-t) == (-1)^n closure(t)")
    p_rec.add_argument("file")
    p_rec.add_argument("--machine", action="store_true")
    p_rec.set_defaults(func=cmd_reciprocity)

    p_tri = sub.add_parser("triangle", help="closed-form count for a right triangle")
    for flag in ("a1", "a2", "c1", "c2", "t1", "t2", "t3"):
        p_tri.add_argument(f"--{flag}", type=int, required=True)
    p_tri.add_argument("--check-oracle", action="store_true", dest="check_oracle")
    p_tri.add_argument("--machine", action="store_true")
    p_tri.set_defaults(func=cmd_triangle)

    p_poly = sub.add_parser("polygon", help="count lattice points of a rational polygon")
    p_poly.add_argument("file")
    p_poly.add_argument("--mode", choices=["interior", "closure"], default="closure")
    p_poly.add_argument("--machine", action="store_true")
    p_poly.set_defaults(func=cmd_polygon)

    p_interp = sub.add_parser(
        "interpolate",
        help="fit the classical-dilation counting quasipolynomial t = s*b",
    )
    p_interp.add_argument("file")
    p_interp.add_argument("--period", type=int, default=1)
    p_interp.add_argument("--degree", type=int, default=None)
    p_interp.add_argument("--holdout", type=int, default=5)
    p_interp.add_argument("--machine", action="store_true")
    p_interp.set_defaults(func=cmd_interpolate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InvalidDilationError, CellBudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


def entry() -> None:
    sys.exit(main())
