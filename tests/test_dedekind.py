import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticecount import (
    dedekind_rademacher_sum,
    fourier_dedekind_numeric,
    fourier_identity_check,
    sawtooth,
)

from conftest import fibonacci_pair_above

rationals = st.builds(
    Fraction, st.integers(-400, 400), st.integers(1, 40)
)


def test_sawtooth_examples():
    assert sawtooth(0) == Fraction(-1, 2)
    assert sawtooth(Fraction(1, 2)) == 0
    assert sawtooth(Fraction(7, 3)) == Fraction(-1, 6)


@given(rationals)
def test_sawtooth_period_one(x):
    assert sawtooth(x + 1) == sawtooth(x)


@given(rationals)
def test_sawtooth_reflection(x):
    # under this convention the reflection sum is -1 at integers, 0 otherwise
    expected = -1 if x.denominator == 1 else 0
    assert sawtooth(x) + sawtooth(-x) == expected


def test_dedekind_rademacher_examples():
    assert dedekind_rademacher_sum(1, 5, 0) == Fraction(1, 4)
    assert dedekind_rademacher_sum(3, 1, 0) == Fraction(7, 36)
    assert dedekind_rademacher_sum(2, 1, 1) == 0


def test_dedekind_rademacher_periodic_in_shift():
    for c, cprime in ((3, 2), (5, 3), (4, 7)):
        for shift in (0, 1, Fraction(5, 3), Fraction(-7, 2)):
            assert dedekind_rademacher_sum(c, cprime, shift) == (
                dedekind_rademacher_sum(c, cprime, shift + c)
            )


def test_dedekind_rademacher_rejects_bad_modulus():
    with pytest.raises(ValueError):
        dedekind_rademacher_sum(0, 1, 0)


def _dr_sum_loop(c, cprime, shift):
    """The O(c) definition, kept here as the reference for the Euclid path."""
    shift = Fraction(shift)
    total = Fraction(0)
    for k in range(c):
        total += sawtooth((shift - cprime * k) / c) * sawtooth(Fraction(k, c))
    return total


def test_dedekind_rademacher_matches_loop():
    rng = random.Random(2024)
    for _ in range(3000):
        c = rng.randint(1, 80)
        cprime = rng.randint(-500, 500)
        if rng.random() < 0.5:
            shift = rng.randint(-2000, 2000)
        else:
            shift = Fraction(rng.randint(-2000, 2000), rng.randint(1, 40))
        assert dedekind_rademacher_sum(c, cprime, shift) == _dr_sum_loop(c, cprime, shift)


def test_dedekind_reciprocity_at_huge_modulus():
    # with this sawtooth, DR(m, -a, 0) = s(a, m) + 1/4 for the classical
    # Dedekind sum s, and s(a, m) + s(m, a) = (a/m + m/a + 1/(a*m))/12 - 1/4
    # for coprime a, m (Rademacher), here at the deepest Euclid descent
    a, m = fibonacci_pair_above(10**300)
    s_am = dedekind_rademacher_sum(m, -a, 0) - Fraction(1, 4)
    s_ma = dedekind_rademacher_sum(a, -m, 0) - Fraction(1, 4)
    expected = (Fraction(a, m) + Fraction(m, a) + Fraction(1, a * m)) / 12
    assert s_am + s_ma == expected - Fraction(1, 4)


def test_fourier_numeric_examples():
    assert abs(fourier_dedekind_numeric(3, 1, 0) - 1 / 9) < 1e-12
    assert abs(fourier_dedekind_numeric(2, 1, 0) - 1 / 8) < 1e-12


def test_fourier_numeric_validates_inputs():
    with pytest.raises(ValueError):
        fourier_dedekind_numeric(1, 1, 0)
    with pytest.raises(ValueError):
        fourier_dedekind_numeric(4, 2, 0)


def test_identity_examples():
    # c1=3: exact side 7/36 - 1/12 = 1/9; c1=2: 1/4 - 1/8 = 1/8
    assert fourier_identity_check(3, 1, 0)
    assert fourier_identity_check(2, 1, 0)


def test_identity_small_sweep():
    for c1 in range(2, 9):
        for c2 in range(1, 9):
            if math.gcd(c1, c2) != 1:
                continue
            for texp in (-17, -3, 0, 1, 12):
                assert fourier_identity_check(c1, c2, texp, tol=1e-10)
