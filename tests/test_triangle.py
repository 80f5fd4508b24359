import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from latticecount import (
    InvalidDilationError,
    InvalidSimplexError,
    PolygonSpec,
    TriangleDilation,
    TriangleSpec,
    count_closure,
    count_closure_bruteforce,
    count_closure_polygon,
    count_closure_triangle,
    count_interior,
    count_interior_bruteforce,
    count_interior_polygon,
    count_interior_triangle,
    dilation_vector,
    e_value,
    is_valid_dilation,
    nu_coefficients,
    residue_z1,
    to_simplex_system,
    unity_residue_sums,
    validate_dilation,
)
from latticecount.triangle import _nu_parts

from conftest import fibonacci_pair_above

UNIT = TriangleSpec(1, 1, 1, 1)


def test_spec_validation():
    with pytest.raises(InvalidSimplexError):
        TriangleSpec(1, 1, 2, 4)  # normal not coprime
    with pytest.raises(InvalidSimplexError):
        TriangleSpec(0, 1, 1, 1)


def test_e_value_examples():
    assert e_value(1, 2, 1) == 1
    assert e_value(5, 1, 3) == 15
    assert e_value(0, 3, 2) == 0


def test_nu_examples():
    nu0, nu1, nu2, nu3 = nu_coefficients(UNIT, TriangleDilation(1, 1, 5))
    assert nu3 == Fraction(3, 2)
    assert nu1 == Fraction(-3, 2)
    assert nu2 == Fraction(-3, 2)
    assert nu0 == 1


def test_count_examples():
    assert count_closure_triangle(UNIT, TriangleDilation(1, 1, 5)) == 10
    # 2x >= 1, y >= 1, x + 2y <= 6: y=1 gives x in 1..4, y=2 gives x in 1..2
    assert count_closure_triangle(TriangleSpec(2, 1, 1, 2), TriangleDilation(1, 1, 6)) == 6


def test_invalid_dilation_rejected():
    assert not is_valid_dilation(UNIT, TriangleDilation(3, 3, 1))
    with pytest.raises(InvalidDilationError):
        count_closure_triangle(UNIT, TriangleDilation(3, 3, 1))


def test_residue_z1_values():
    assert residue_z1(UNIT, TriangleDilation(1, 1, 5)) == -10
    # when the snapped offsets balance t3 exactly, only the constant terms remain
    spec = TriangleSpec(1, 1, 2, 3)
    dil = TriangleDilation(1, 1, 5)  # e1 + e2 = 2 + 3 = 5 = t3
    expected = -Fraction(1, 4) * (1 + Fraction(1, 2) + Fraction(1, 3)) - Fraction(
        1, 12
    ) * (Fraction(2, 3) + Fraction(3, 2) + Fraction(1, 6))
    assert residue_z1(spec, dil) == expected


def test_residue_assembly_identity():
    rng = random.Random(5)
    for _ in range(150):
        a1, a2 = rng.randint(1, 4), rng.randint(1, 4)
        while True:
            c1, c2 = rng.randint(1, 4), rng.randint(1, 4)
            if math.gcd(c1, c2) == 1:
                break
        spec = TriangleSpec(a1, a2, c1, c2)
        dil = TriangleDilation(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
        if not is_valid_dilation(spec, dil):
            continue
        count = count_closure_triangle(spec, dil)
        first, second = unity_residue_sums(spec, dil)
        assert count == -residue_z1(spec, dil) - first - second


def test_matches_oracle_random():
    rng = random.Random(6)
    checked = 0
    while checked < 120:
        a1, a2 = rng.randint(1, 5), rng.randint(1, 5)
        c1, c2 = rng.randint(1, 5), rng.randint(1, 5)
        if math.gcd(c1, c2) != 1:
            continue
        spec = TriangleSpec(a1, a2, c1, c2)
        dil = TriangleDilation(
            rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(-8, 8)
        )
        if not is_valid_dilation(spec, dil):
            continue
        checked += 1
        system, t = to_simplex_system(spec), dilation_vector(dil)
        assert count_closure_triangle(spec, dil) == count_closure_bruteforce(system, t)
        if validate_dilation(system, t).full_dimensional:
            assert count_interior_triangle(spec, dil) == count_interior_bruteforce(
                system, t
            )


def test_validity_agrees_with_simplex_validation():
    rng = random.Random(9)
    for _ in range(400):
        c1, c2 = rng.randint(1, 5), rng.randint(1, 5)
        if math.gcd(c1, c2) != 1:
            continue
        spec = TriangleSpec(rng.randint(1, 5), rng.randint(1, 5), c1, c2)
        dil = TriangleDilation(
            rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(-8, 8)
        )
        assert is_valid_dilation(spec, dil) == (
            validate_dilation(to_simplex_system(spec), dilation_vector(dil)).nonempty
        )


def test_interior_on_collapsed_triangle_is_formal():
    # a dilation collapsing the triangle onto the single lattice point (-1, 1):
    # the reciprocity route then reproduces the closure value, not 0
    spec = TriangleSpec(2, 1, 3, 1)
    dil = TriangleDilation(-2, 1, -2)
    assert count_closure_triangle(spec, dil) == 1
    assert count_interior_triangle(spec, dil) == 1
    assert (
        count_interior_bruteforce(to_simplex_system(spec), dilation_vector(dil)) == 0
    )


def test_closed_form_always_integral_on_valid_sweep():
    spec = TriangleSpec(3, 2, 2, 5)
    for t1, t2, t3 in itertools.product(range(-5, 6), repeat=3):
        dil = TriangleDilation(t1, t2, t3)
        if is_valid_dilation(spec, dil):
            count_closure_triangle(spec, dil)  # raises if non-integer


def _triangle_polygon(spec, dil):
    """The dilated triangle as a counterclockwise vertex polygon."""
    x0, y0 = Fraction(dil.t1, spec.a1), Fraction(dil.t2, spec.a2)
    return PolygonSpec(
        [
            (x0, y0),
            ((dil.t3 - spec.c2 * y0) / spec.c1, y0),
            (x0, (dil.t3 - spec.c1 * x0) / spec.c2),
        ]
    )


def test_three_paths_agree_beyond_enumeration():
    # closed form, slicing recursion and polygon edge pass on triangles far
    # too large to enumerate; at most 40 columns keep the recursion cheap
    rng = random.Random(12)
    checked = 0
    while checked < 200:
        c1, c2 = rng.randint(1, 10**12), rng.randint(1, 10**12)
        if math.gcd(c1, c2) != 1:
            continue
        checked += 1
        spec = TriangleSpec(rng.randint(1, 5), rng.randint(1, 5), c1, c2)
        t1, t2 = rng.randint(-10**12, 10**12), rng.randint(-10**12, 10**12)
        width = rng.randint(1, 40)
        x0, y0 = Fraction(t1, spec.a1), Fraction(t2, spec.a2)
        t3 = math.floor(c1 * (x0 + width) + c2 * y0)
        dil = TriangleDilation(t1, t2, t3)
        system, t = to_simplex_system(spec), dilation_vector(dil)
        poly = _triangle_polygon(spec, dil)
        closure = count_closure_triangle(spec, dil)
        assert closure == count_closure(system, t) == count_closure_polygon(poly)
        interior = count_interior_triangle(spec, dil)
        assert interior == count_interior(system, t) == count_interior_polygon(poly)


def test_huge_hypotenuse_normal_counts_fast():
    # c near 10^300, at the deepest Euclid descent
    lo, hi = fibonacci_pair_above(10**300)
    spec = TriangleSpec(3, 2, hi, lo)
    dil = TriangleDilation(-7, 5, hi * 11 + lo * 9)
    start = time.perf_counter()
    closure = count_closure_triangle(spec, dil)
    interior = count_interior_triangle(spec, dil)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5
    poly = _triangle_polygon(spec, dil)
    assert closure == count_closure_polygon(poly)
    assert interior == count_interior_polygon(poly)


def test_nu_parts_cache_is_bounded():
    rng = random.Random(13)
    for _ in range(5000):
        a1, a2 = rng.randint(1, 10**6), rng.randint(1, 10**6)
        spec = TriangleSpec(a1, a2, 1, rng.randint(1, 50))
        count_closure_triangle(spec, TriangleDilation(0, 0, a1 * a2))
    assert _nu_parts.cache_info().currsize <= 1024
