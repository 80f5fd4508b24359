"""Closed-form lattice counts for rectangular rational triangles.

The triangle family is

    a1*x >= t1,   a2*y >= t2,   c1*x + c2*y <= t3

with positive integers a1, a2 and coprime positive integers c1, c2: two
axis-parallel legs meeting at the lower-left corner and a hypotenuse with
normal (c1, c2).  The closure count of any nonempty member is a quadratic
in (t1, t2, t3) plus linear and constant pieces whose coefficients are
built from sawtooth values and two Dedekind-Rademacher sums; that closed
form is the production path and is exact.

The same count is (by residue bookkeeping for the generating function
z^(e1+e2-t3-1) / ((1-z^c1)(1-z^c2)(1-z))) equal to

    - residue_z1(...)  -  both root-of-unity residue sums,

which `residue_z1` and `unity_residue_sums` expose for cross-checking.
The interior count follows from the reciprocity law in dimension 2:
interior(t) equals the closure closed form evaluated at -t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (
    InvalidDilationError,
    InvalidSimplexError,
    LatticeCountError,
    SimplexSystem,
    floor_div,
)
from .dedekind import dedekind_rademacher_sum


@dataclass(frozen=True)
class TriangleSpec:
    """Leg scale factors (a1, a2) and hypotenuse normal (c1, c2), all positive."""

    a1: int
    a2: int
    c1: int
    c2: int

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "c1", "c2"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise InvalidSimplexError(f"{name} must be a positive integer")
        if math.gcd(self.c1, self.c2) != 1:
            raise InvalidSimplexError("hypotenuse normal (c1, c2) must be coprime")


@dataclass(frozen=True)
class TriangleDilation:
    """Integer facet offsets (t1, t2, t3); validity depends on the spec."""

    t1: int
    t2: int
    t3: int

    def __post_init__(self) -> None:
        for name in ("t1", "t2", "t3"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise InvalidDilationError(f"{name} must be an integer")


def to_simplex_system(spec: TriangleSpec) -> SimplexSystem:
    """The triangle as a generic facet system, for oracle cross-checks."""
    return SimplexSystem(
        [[-spec.a1, 0], [0, -spec.a2], [spec.c1, spec.c2]], [-1, -1, 1]
    )


def dilation_vector(dil: TriangleDilation) -> tuple[int, int, int]:
    """The triangle offsets in the uniform `A x <= t` parameterization."""
    return (-dil.t1, -dil.t2, dil.t3)


def is_valid_dilation(spec: TriangleSpec, dil: TriangleDilation) -> bool:
    """Whether the dilated triangle is nonempty.

    Because the hypotenuse normal is positive, the region is nonempty
    exactly when the leg corner (t1/a1, t2/a2) satisfies the hypotenuse
    inequality; tests pin this against the generic simplex validation.
    """
    return (
        spec.c1 * dil.t1 * spec.a2 + spec.c2 * dil.t2 * spec.a1
        <= dil.t3 * spec.a1 * spec.a2
    )


def e_value(tj: int, aj: int, cj: int) -> int:
    """(floor((tj - 1)/aj) + 1) * cj, the snapped leg offset times its normal part."""
    return (floor_div(tj - 1, aj) + 1) * cj


@lru_cache(maxsize=1024)
def _nu_parts(
    spec: TriangleSpec, r1: int, r2: int
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(nu1, nu2, nu3, nu0 minus its two Dedekind-Rademacher sums).

    Everything here depends on the offsets only through the leg sawtooth
    values s_j = ((t_j - 1)/a_j)) = r_j/a_j - 1/2 with r_j = (t_j - 1) mod a_j,
    so the pieces are cached per residue pair (a bounded cache: a sweep over
    one spec needs at most a1*a2 entries).
    """
    a1, a2, c1, c2 = spec.a1, spec.a2, spec.c1, spec.c2
    s1 = Fraction(r1, a1) - Fraction(1, 2)
    s2 = Fraction(r2, a2) - Fraction(1, 2)
    nu1 = (
        -Fraction(c1, a1 * a1 * c2)
        - Fraction(c1, a1 * c2) * s1
        - s2 / a1
        - Fraction(1, a1 * a2)
        - Fraction(1, 2 * a1 * c2)
    )
    nu2 = (
        -Fraction(c2, a2 * a2 * c1)
        - Fraction(c2, a2 * c1) * s2
        - s1 / a2
        - Fraction(1, a1 * a2)
        - Fraction(1, 2 * a2 * c1)
    )
    nu3 = (
        Fraction(1, a1 * c2)
        + Fraction(1, a2 * c1)
        + Fraction(1, 2 * c1 * c2)
        + s1 / c2
        + s2 / c1
    )
    nu0_base = (
        -Fraction(1, 4 * c1)
        - Fraction(1, 4 * c2)
        + Fraction(1, a1 * a2)
        + Fraction(1, 2 * a1 * c2)
        + Fraction(1, 2 * a2 * c1)
        + Fraction(1, 12 * c1 * c2)
        - Fraction(c1, 24 * c2)
        - Fraction(c2, 24 * c1)
        + Fraction(c1, 2 * a1 * a1 * c2)
        + Fraction(c2, 2 * a2 * a2 * c1)
        + s1 * (Fraction(1, a2) + Fraction(1, 2 * c2) + Fraction(c1, a1 * c2))
        + s2 * (Fraction(1, a1) + Fraction(1, 2 * c1) + Fraction(c2, a2 * c1))
        + Fraction(c1, 2 * c2) * s1 * s1
        + Fraction(c2, 2 * c1) * s2 * s2
        + s1 * s2
    )
    return nu1, nu2, nu3, nu0_base


def _dr_terms(spec: TriangleSpec, t1: int, t2: int, t3: int) -> tuple[Fraction, Fraction]:
    """The two Dedekind-Rademacher sums of the closed form, with integer
    shifts t3 - e2 and t3 - e1."""
    a1, a2, c1, c2 = spec.a1, spec.a2, spec.c1, spec.c2
    return (
        dedekind_rademacher_sum(c1, c2, t3 - e_value(t2, a2, c2)),
        dedekind_rademacher_sum(c2, c1, t3 - e_value(t1, a1, c1)),
    )


def nu_coefficients(
    spec: TriangleSpec, dil: TriangleDilation
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The periodic coefficients (nu0, nu1, nu2, nu3) of the closure closed form.

    Each is built from the two leg sawtooth values s_j = ((t_j - 1)/a_j))
    and, in nu0, from the Dedekind-Rademacher sums with integer shifts
    t3 - e2 and t3 - e1.
    """
    t1, t2, t3 = dil.t1, dil.t2, dil.t3
    nu1, nu2, nu3, nu0_base = _nu_parts(spec, (t1 - 1) % spec.a1, (t2 - 1) % spec.a2)
    dr1, dr2 = _dr_terms(spec, t1, t2, t3)
    return nu0_base + dr1 + dr2, nu1, nu2, nu3


def closed_form_value(spec: TriangleSpec, t1: int, t2: int, t3: int) -> Fraction:
    """The closure quasipolynomial evaluated at any integer (t1, t2, t3)."""
    a1, a2, c1, c2 = spec.a1, spec.a2, spec.c1, spec.c2
    # quadratic part over the common denominator 2*a1^2*a2^2*c1*c2
    quad_num = (
        c1 * c1 * a2 * a2 * t1 * t1
        + c2 * c2 * a1 * a1 * t2 * t2
        + a1 * a1 * a2 * a2 * t3 * t3
        + 2 * a1 * a2 * c1 * c2 * t1 * t2
        - 2 * a1 * a2 * a2 * c1 * t1 * t3
        - 2 * a1 * a1 * a2 * c2 * t2 * t3
    )
    nu0, nu1, nu2, nu3 = nu_coefficients(spec, TriangleDilation(t1, t2, t3))
    return (
        Fraction(quad_num, 2 * a1 * a1 * a2 * a2 * c1 * c2)
        + nu1 * t1
        + nu2 * t2
        + nu3 * t3
        + nu0
    )


def _require_valid(spec: TriangleSpec, dil: TriangleDilation) -> None:
    if not is_valid_dilation(spec, dil):
        raise InvalidDilationError(
            f"triangle dilation {(dil.t1, dil.t2, dil.t3)} cuts out an empty region"
        )


def count_closure_triangle(spec: TriangleSpec, dil: TriangleDilation) -> int:
    """Closure lattice count of a nonempty dilated triangle via the closed form."""
    _require_valid(spec, dil)
    value = closed_form_value(spec, dil.t1, dil.t2, dil.t3)
    if value.denominator != 1:
        raise LatticeCountError(
            f"closed form produced the non-integer {value}; assembly bug"
        )
    return value.numerator


def count_interior_triangle(spec: TriangleSpec, dil: TriangleDilation) -> int:
    """Interior lattice count, via the closure form at -t (2-D reciprocity).

    Exact for full-dimensional dilations.  When the region collapses to a
    point, this is the formal continuation of the interior counter (it
    equals the closure count there), not the geometric 0.
    """
    _require_valid(spec, dil)
    value = closed_form_value(spec, -dil.t1, -dil.t2, -dil.t3)
    if value.denominator != 1:
        raise LatticeCountError(
            f"closed form produced the non-integer {value}; assembly bug"
        )
    return value.numerator


def residue_z1(spec: TriangleSpec, dil: TriangleDilation) -> Fraction:
    """Residue of the counting generating function at z = 1, exactly.

    Equals -(e1+e2-t3)^2/(2 c1 c2) + (e1+e2-t3)(1/c1 + 1/c2 + 1/(c1 c2))/2
    - (1 + 1/c1 + 1/c2)/4 - (c1/c2 + c2/c1 + 1/(c1 c2))/12, assembled here
    over the common denominator 12 c1 c2.
    """
    a1, a2, c1, c2 = spec.a1, spec.a2, spec.c1, spec.c2
    s = e_value(dil.t1, a1, c1) + e_value(dil.t2, a2, c2) - dil.t3
    num = (
        -6 * s * s
        + 6 * s * (c1 + c2 + 1)
        - 3 * (c1 * c2 + c1 + c2)
        - (c1 * c1 + c2 * c2 + 1)
    )
    return Fraction(num, 12 * c1 * c2)


def unity_residue_sums(
    spec: TriangleSpec, dil: TriangleDilation
) -> tuple[Fraction, Fraction]:
    """Exact total residues at the nontrivial c1-th and c2-th roots of unity.

    Each total equals -(Dedekind-Rademacher sum) + 1/(4*c), the sawtooth
    form of the corresponding root-of-unity sum.
    """
    dr1, dr2 = _dr_terms(spec, dil.t1, dil.t2, dil.t3)
    return -dr1 + Fraction(1, 4 * spec.c1), -dr2 + Fraction(1, 4 * spec.c2)
