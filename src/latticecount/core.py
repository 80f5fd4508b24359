"""Exact data model for rational simplices with independently dilated facets.

A rational n-simplex is stored through its facet description: an (n+1) x n
integer matrix A and an integer right-hand side b, the simplex being
{x : A x <= b} (componentwise).  Sliding every facet to its own integer
offset gives the family {x : A x <= t} for t in Z^(n+1); the classical
single-factor dilation is the special case t = s*b.

Two structural properties are enforced on A at construction time, so that
every member of the family is automatically a simplex (possibly empty or
collapsed to a point) and automatically bounded:

* every n x n submatrix obtained by deleting one row of A is nonsingular;
* the recession cone {x : A x <= 0} is the origin alone.

All coordinates are arbitrary-precision rationals (`fractions.Fraction`,
which stores lowest terms with a positive denominator and has exact
arithmetic, floor and comparisons).  Every object in this module is
immutable after construction and every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._linalg import det_int, solve_cramer_int

# Carrier for every rational quantity in the package.
Rational = Fraction

Point = tuple[Fraction, ...]

# A dilation vector is a plain tuple of n+1 integers, one offset per facet.
# Its only invariant (length = number of rows of A) is checked at the entry
# of every operation that pairs it with a system.
DilationVector = tuple[int, ...]


class LatticeCountError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSimplexError(LatticeCountError):
    """The matrix data does not describe a bounded nondegenerate simplex family."""


class InvalidDilationError(LatticeCountError):
    """A dilation vector is malformed or yields an empty region."""


def floor_div(p: int, q: int) -> int:
    """Floor of p/q for integers with q != 0, correct also for negatives.

    This is the true mathematical floor, i.e. the unique integer f with
    f <= p/q < f+1.  It satisfies floor((t-1)/a) = -floor(-t/a) - 1 for all
    integers t and a != 0, the identity driving the reciprocity law.
    """
    if q == 0:
        raise ZeroDivisionError("floor_div with zero divisor")
    return p // q


def floor_sums(n: int, m: int, a: int, b: int) -> tuple[int, int, int]:
    """(sum q_i, sum i*q_i, sum q_i^2) over i = 0 .. n-1, q_i = floor((a*i + b)/m).

    Needs n >= 0 and m >= 1; a and b may have any sign and size.
    Euclid-like reduction (Knuth, TAOCP vol. 2, 3.3.3): split off the
    integer parts qa = floor(a/m) and qb = floor(b/m), then count the same
    lattice points under the line by rows instead of columns, which swaps
    the roles of a and m.  Row y (1 <= y <= Y = floor((a*n + b)/m)) holds
    the p = floor((m*(Y - y) + (a*n + b) mod m)/a) columns i >= n - p, so
    the three sums of one round follow from the three sums of the next.
    The descent records each round and the sums are composed on the way
    back up; there is no recursion, and the rounds are O(log m).
    """
    if n < 0 or m < 1:
        raise ValueError(f"floor_sums needs n >= 0 and m >= 1, got n={n}, m={m}")
    rounds = []
    while True:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        y_max = a * n + b
        top = y_max // m
        rounds.append((n, qa, qb, top))
        if top == 0:
            break
        n, b = top, y_max - top * m
        m, a = a, m
    f = g = h = 0  # the sums of the last round's reduced remainder, all zero
    for n, qa, qb, top in reversed(rounds):
        # undo the row/column swap: (f, g, h) are the next round's sums
        g, h = ((2 * n - 1) * f - h) // 2, (2 * top - 1) * f - 2 * g
        s1 = n * (n - 1) // 2
        s2 = s1 * (2 * n - 1) // 3
        f, g, h = (
            f + qa * s1 + qb * n,
            g + qa * s2 + qb * s1,
            h + qa * qa * s2 + 2 * qa * qb * s1 + qb * qb * n + 2 * qa * g + 2 * qb * f,
        )
    return f, g, h


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*i + b)/m) over i = 0 .. n-1: the first of `floor_sums`."""
    return floor_sums(n, m, a, b)[0]


def _as_int(x: object, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise InvalidSimplexError(f"{what} must be an integer, got {x!r}")
    return x


@dataclass(frozen=True)
class SimplexSystem:
    """Facet description A x <= b of a rational n-simplex.

    `a_matrix` has n+1 rows of n integers; `b` is the reference right-hand
    side (used by classical dilation t = s*b, ignored by the per-facet
    counting routines).  Construction rejects matrices that fail either
    structural invariant, so any instance can be dilated by any integer
    vector without further shape checks.
    """

    a_matrix: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]

    def __init__(self, a_matrix: Sequence[Sequence[int]], b: Sequence[int]):
        rows = tuple(tuple(_as_int(x, "matrix entry") for x in row) for row in a_matrix)
        if len(rows) < 2:
            raise InvalidSimplexError("need at least 2 rows (a 1-simplex)")
        n = len(rows) - 1
        if any(len(row) != n for row in rows):
            raise InvalidSimplexError(f"expected {len(rows)}x{n} matrix")
        bvec = tuple(_as_int(x, "reference offset") for x in b)
        if len(bvec) != n + 1:
            raise InvalidSimplexError(f"reference vector must have {n + 1} entries")

        # Maximal minors deliver both invariants at once: deleting row i must
        # leave a nonsingular matrix, and the signed minors (-1)^i * M_i are
        # the (unique up to scale) dependency among the rows.  The recession
        # cone is trivial exactly when all of them share one strict sign.
        signs = set()
        for i in range(n + 1):
            minor = det_int([rows[k] for k in range(n + 1) if k != i])
            if minor == 0:
                raise InvalidSimplexError(
                    f"deleting row {i} leaves a singular matrix; "
                    "facet normals are not in general position"
                )
            signs.add((minor if i % 2 == 0 else -minor) > 0)
        if len(signs) != 1:
            raise InvalidSimplexError(
                "recession cone contains a nonzero direction; "
                "some dilation of this matrix is unbounded"
            )
        object.__setattr__(self, "a_matrix", rows)
        object.__setattr__(self, "b", bvec)

    @property
    def n(self) -> int:
        """Dimension of the ambient space."""
        return len(self.a_matrix) - 1

    @property
    def num_facets(self) -> int:
        return len(self.a_matrix)


@dataclass(frozen=True)
class ValidityReport:
    """Facts about one dilated member {x : A x <= t} of a simplex family.

    `bounded` is always True for systems that passed construction; it is kept
    so the report states all three facts explicitly.  `vertices` lists the
    distinct actual vertices and is None when the region is empty.
    `full_dimensional` implies `nonempty`.
    """

    nonempty: bool
    bounded: bool
    full_dimensional: bool
    vertices: tuple[Point, ...] | None

    def __post_init__(self) -> None:
        if self.full_dimensional and not self.nonempty:
            raise LatticeCountError("a full-dimensional region cannot be empty")


def check_dilation(system: SimplexSystem, t: Sequence[int]) -> DilationVector:
    """Normalize a dilation vector for `system`, or raise InvalidDilationError."""
    vec = tuple(t)
    if len(vec) != system.num_facets:
        raise InvalidDilationError(
            f"dilation vector has {len(vec)} entries, expected {system.num_facets}"
        )
    for x in vec:
        if isinstance(x, bool) or not isinstance(x, int):
            raise InvalidDilationError(f"dilation entries must be integers, got {x!r}")
    return vec


def dot(row: Sequence[int], point: Sequence[Fraction | int]) -> Fraction:
    """Exact inner product of an integer row with a rational point."""
    return sum((Fraction(a) * x for a, x in zip(row, point)), Fraction(0))


def vertices(
    system: SimplexSystem, t: Sequence[int]
) -> list[tuple[Point, bool]]:
    """Candidate vertices of {x : A x <= t} with actual-vertex flags.

    Candidate i solves the n x n system formed by deleting row i of A (with
    right-hand sides the matching entries of t); it is an actual vertex of
    the region exactly when it also satisfies the deleted inequality.
    """
    vec = check_dilation(system, t)
    n = system.n
    out: list[tuple[Point, bool]] = []
    for i in range(n + 1):
        rows = [system.a_matrix[k] for k in range(n + 1) if k != i]
        rhs = [vec[k] for k in range(n + 1) if k != i]
        point = solve_cramer_int(rows, rhs)
        actual = dot(system.a_matrix[i], point) <= vec[i]
        out.append((point, actual))
    return out


def validate_dilation(system: SimplexSystem, t: Sequence[int]) -> ValidityReport:
    """Report nonemptiness, boundedness and full dimension of {x : A x <= t}.

    The region is nonempty iff some candidate vertex is actual.  It is
    full-dimensional iff every candidate satisfies its deleted inequality
    strictly: in that case the average of the candidates is an interior
    point, and conversely a collapsed region forces some candidate onto its
    own deleted facet.
    """
    cands = vertices(system, t)
    vec = tuple(t)  # validated by vertices()
    nonempty = any(actual for _, actual in cands)
    full_dim = all(
        dot(system.a_matrix[i], point) < vec[i] for i, (point, _) in enumerate(cands)
    )
    verts: tuple[Point, ...] | None = None
    if nonempty:
        seen: list[Point] = []
        for point, actual in cands:
            if actual and point not in seen:
                seen.append(point)
        verts = tuple(seen)
    return ValidityReport(
        nonempty=nonempty, bounded=True, full_dimensional=full_dim, vertices=verts
    )
