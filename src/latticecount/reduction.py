"""Lattice-preserving normalization of a simplex system for the recursion.

The inductive counter wants the first facet to constrain the first
coordinate alone and to bound it from below.  Both are arranged by a
unimodular change of coordinates x = U y (|det U| = 1, so U maps Z^n
bijectively onto Z^n and leaves every lattice-point count unchanged):

* integer column operations driven by extended gcds zero out all but the
  first entry of the first row;
* if the surviving entry is positive, the first column of U is negated
  (that is the "flip x1" step), making the stored row (-a11, 0, ..., 0)
  with a11 > 0, i.e. the constraint y1 >= -t1/a11.

The opposite vertex - the one where facets 2..n+1 are tight - then has
first coordinate (c . (t2..t_{n+1})) / d for integer c and d > 0, computed
once per system by Cramer's rule.  For every full-dimensional dilation the
facet-1 bound sits strictly below that vertex coordinate, which is exactly
the orientation the recursion's loop bounds assume.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from ._linalg import det_int, mat_mul_int
from .core import LatticeCountError, SimplexSystem


@dataclass(frozen=True)
class ReductionStep:
    """Result of normalizing one simplex system.

    basis_change      U, the n x n unimodular matrix applied on the right.
    leading_coeff     a11 > 0; the reduced first row is (-a11, 0, ..., 0),
                      so facet 1 reads y1 >= -t1/a11.
    first_column_tail first-column entries of rows 2..n+1 of A*U.
    trailing_block    the n x (n-1) block of rows 2..n+1, columns 2..n.
    vertex_coeffs     integer vector c of length n: the vertex opposite
                      facet 1 has first coordinate (c . (t2..t_{n+1}))/d.
    vertex_denom      d > 0, the determinant of the opposite-vertex system.
    """

    basis_change: tuple[tuple[int, ...], ...]
    leading_coeff: int
    first_column_tail: tuple[int, ...]
    trailing_block: tuple[tuple[int, ...], ...]
    vertex_coeffs: tuple[int, ...]
    vertex_denom: int


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def first_coordinate_functional(step: ReductionStep) -> tuple[tuple[int, ...], int]:
    """Integer (c, d) with opposite-vertex first coordinate (c . t')/d, d > 0.

    Solves rows 2..n+1 of the reduced system symbolically in the dilation
    offsets t' = (t2, ..., t_{n+1}): by Cramer's rule the first coordinate is
    a ratio of determinants, and expanding the numerator along its first
    column gives one integer coefficient per offset.
    """
    rows = [
        (step.first_column_tail[i],) + step.trailing_block[i]
        for i in range(len(step.first_column_tail))
    ]
    n = len(rows)
    d = det_int(rows)
    coeffs = []
    for j in range(n):
        minor_rows = [rows[k][1:] for k in range(n) if k != j]
        cof = det_int(minor_rows)
        coeffs.append(cof if j % 2 == 0 else -cof)
    if d < 0:
        d = -d
        coeffs = [-c for c in coeffs]
    return tuple(coeffs), d


@lru_cache(maxsize=None)
def unimodular_reduce(system: SimplexSystem) -> ReductionStep:
    """Normalize `system` as described in the module docstring (cached).

    The returned data depends only on the matrix A, never on a dilation, so
    one reduction serves every count against the same system.
    """
    n = system.n
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    row = list(system.a_matrix[0])

    for j in range(1, n):
        if row[j] == 0:
            continue
        g, x, y = _ext_gcd(row[0], row[j])
        p, q = row[0] // g, row[j] // g
        for i in range(n):
            u0, uj = u[i][0], u[i][j]
            u[i][0] = x * u0 + y * uj
            u[i][j] = -q * u0 + p * uj
        row[0], row[j] = g, 0

    if row[0] == 0:  # row 0 of a valid A is nonzero, so its gcd is too
        raise LatticeCountError("first facet normal reduced to zero")
    if row[0] > 0:  # make facet 1 the lower bound on the first coordinate
        for i in range(n):
            u[i][0] = -u[i][0]

    basis_change = tuple(tuple(r) for r in u)
    reduced = mat_mul_int(system.a_matrix, basis_change)
    unimodular = abs(det_int(basis_change)) == 1
    if reduced[0][0] >= 0 or any(reduced[0][1:]) or not unimodular:
        raise LatticeCountError("unimodular reduction failed its invariants")

    step = ReductionStep(
        basis_change=basis_change,
        leading_coeff=-reduced[0][0],
        first_column_tail=tuple(reduced[i][0] for i in range(1, n + 1)),
        trailing_block=tuple(reduced[i][1:] for i in range(1, n + 1)),
        vertex_coeffs=(),
        vertex_denom=1,
    )
    coeffs, denom = first_coordinate_functional(step)
    return replace(step, vertex_coeffs=coeffs, vertex_denom=denom)


def reduced_system(system: SimplexSystem) -> SimplexSystem:
    """The system A*U with the same reference vector (same lattice counts)."""
    step = unimodular_reduce(system)
    return SimplexSystem(mat_mul_int(system.a_matrix, step.basis_change), system.b)
