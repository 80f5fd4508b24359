"""Sawtooth values, Dedekind-Rademacher sums, and root-of-unity cross-checks.

The sawtooth used throughout is ((x)) = x - floor(x) - 1/2.  Note the
convention: ((x)) = -1/2 at integers, not 0 as in the classical Dedekind
sum literature.  The right-triangle closed form depends on this choice, so
it is implemented verbatim and exactly.

A Dedekind-Rademacher sum is evaluated without a loop over its c terms:
its floor parts are two sums of the Euclid-like kernel `core.floor_sums`,
so it costs O(log) rounds in the size of c and of the shift's
denominator, and no result is cached.

The root-of-unity sums exist only as a floating-point cross-check of the
finite-Fourier identity that converts them into sawtooth sums; production
counting always goes through the exact sawtooth form.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .core import LatticeCountError, Rational, floor_sums


class NumericConsistencyError(LatticeCountError):
    """A numeric cross-check violated an internal consistency bound."""


def sawtooth(x: Rational | int) -> Fraction:
    """((x)) = x - floor(x) - 1/2 exactly (equals -1/2 at integers)."""
    x = Fraction(x)
    return x - math.floor(x) - Fraction(1, 2)


def dedekind_rademacher_sum(c: int, cprime: int, shift: Rational | int) -> Fraction:
    """sum_{k=0}^{c-1} (( (shift - cprime*k)/c )) (( k/c )) exactly.

    With shift = p/q, M = q*c and x_k = (p - q*cprime*k)/M, the sum is
    sum_k (x_k - floor(x_k) - 1/2)(k/c - 1/2).  The parts without floors
    are power sums of k; F = sum floor(x_k) and G = sum k*floor(x_k) come
    from one `floor_sums` call, so the cost is O(log M) rounds, not O(c)
    terms, and nothing is cached.  The result is one integer numerator
    over 12*M.
    """
    if c < 1:
        raise ValueError("modulus c must be a positive integer")
    p, q = shift.as_integer_ratio()
    m = q * c
    f, g, _ = floor_sums(c, m, -q * cprime, p)
    num = 6 * m * f - 12 * q * g + 3 * m - 6 * p - q * cprime * (c - 1) * (c - 2)
    return Fraction(num, 12 * m)


def fourier_dedekind_numeric(
    c1: int, c2: int, texp: int, tol: float = 1e-12
) -> float:
    """(1/c1) sum over nontrivial c1-th roots z of z^texp / ((1-z^c2)(1-z)).

    Evaluated in double precision with conjugate pairs summed adjacently;
    the imaginary part must vanish to within `tol` (the sum is real), else a
    NumericConsistencyError is raised.
    """
    if c1 < 2:
        raise ValueError("c1 must be at least 2")
    if c2 < 1:
        raise ValueError("c2 must be a positive integer")
    if math.gcd(c1, c2) != 1:
        raise ValueError("c1 and c2 must be coprime")

    def term(k: int) -> complex:
        # exact exponent reduction before any float enters
        z = cmath.exp(2j * cmath.pi * k / c1)
        znum = cmath.exp(2j * cmath.pi * ((k * texp) % c1) / c1)
        zc2 = cmath.exp(2j * cmath.pi * ((k * c2) % c1) / c1)
        return znum / ((1 - zc2) * (1 - z))

    total = 0 + 0j
    for k in range(1, c1 // 2 + 1):
        if k == c1 - k:
            total += term(k)
        else:
            total += term(k) + term(c1 - k)
    total /= c1
    if abs(total.imag) > tol:
        raise NumericConsistencyError(
            f"root-of-unity sum has imaginary part {total.imag!r}"
        )
    return total.real


def fourier_identity_check(c1: int, c2: int, texp: int, tol: float = 1e-9) -> bool:
    """Numeric root-of-unity sum vs exact sawtooth form, within `tol`.

    The exact side is sum_{k=0}^{c1-1} (((-c2*k - texp)/c1))((k/c1)) - 1/(4*c1),
    evaluated in rational arithmetic.
    """
    exact = dedekind_rademacher_sum(c1, c2, -texp) - Fraction(1, 4 * c1)
    numeric = fourier_dedekind_numeric(c1, c2, texp)
    return abs(numeric - float(exact)) <= tol
