import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticecount import (
    InvalidDilationError,
    InvalidSimplexError,
    LatticeCountError,
    SimplexSystem,
    ValidityReport,
    floor_div,
    validate_dilation,
    vertices,
)
from latticecount.core import floor_sum, floor_sums

from conftest import fibonacci_pair_above

STD_TRIANGLE = SimplexSystem([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])


def test_floor_div_examples():
    assert floor_div(7, 3) == 2
    assert floor_div(-7, 3) == -3
    assert floor_div(7, -3) == -3
    # identity instance at t=5, a=3: both sides equal 1
    assert floor_div(5 - 1, 3) == 1
    assert -floor_div(-5, 3) - 1 == 1


def test_floor_div_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        floor_div(1, 0)


@given(st.integers(-10**9, 10**9), st.integers(-10**4, 10**4).filter(lambda a: a != 0))
def test_floor_div_is_true_floor(p, q):
    f = floor_div(p, q)
    assert f * q <= p if q > 0 else f * q >= p
    assert Fraction(f) <= Fraction(p, q) < Fraction(f) + 1


@given(st.integers(-10**6, 10**6), st.integers(1, 10**3))
def test_floor_identity_sweep(t, a):
    # the upside-down identity behind reciprocity; it needs a positive
    # divisor (a = -1, t = 0 is a counterexample otherwise), and every
    # divisor it is applied to in the counting recursion is positive
    assert floor_div(t - 1, a) == -floor_div(-t, a) - 1


def test_floor_sum_edge_cases():
    assert floor_sum(0, 7, 3, 5) == 0
    assert floor_sum(0, 1, -10**6, 10**6) == 0
    assert floor_sum(5, 1, 3, -2) == sum(3 * i - 2 for i in range(5))
    assert floor_sum(4, 3, -5, -7) == sum((-5 * i - 7) // 3 for i in range(4))
    with pytest.raises(ValueError):
        floor_sum(-1, 3, 1, 1)
    with pytest.raises(ValueError):
        floor_sum(3, 0, 1, 1)


@given(
    st.integers(0, 300),
    st.integers(1, 10**6),
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
)
def test_floor_sum_matches_direct_summation(n, m, a, b):
    assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_floor_sum_huge_operands():
    # for a coprime to m, (a*i + b) mod m runs over every residue once as i
    # runs over 0..m-1, so the sum is (a - 1)(m - 1)/2 + b exactly
    m = 10**30 + 57
    for a in (10**30 - 1, 3**63, -(7**35)):
        assert math.gcd(a, m) == 1
        for b in (0, 10**30 + 1, -(10**29)):
            assert floor_sum(m, m, a, b) == (a - 1) * (m - 1) // 2 + b


def _direct_floor_sums(n, m, a, b):
    q = [(a * i + b) // m for i in range(n)]
    return sum(q), sum(i * x for i, x in enumerate(q)), sum(x * x for x in q)


def test_floor_sums_edge_cases():
    assert floor_sums(0, 7, -3, 5) == (0, 0, 0)
    assert floor_sums(0, 1, -10**6, 10**6) == (0, 0, 0)
    assert floor_sums(6, 1, -3, 4) == _direct_floor_sums(6, 1, -3, 4)
    assert floor_sums(1, 5, 0, -11) == (-3, 0, 9)
    with pytest.raises(ValueError):
        floor_sums(-1, 3, 1, 1)
    with pytest.raises(ValueError):
        floor_sums(3, 0, 1, 1)


@given(
    st.integers(0, 200),
    st.integers(1, 10**5),
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
)
def test_floor_sums_match_direct_summation(n, m, a, b):
    assert floor_sums(n, m, a, b) == _direct_floor_sums(n, m, a, b)
    assert floor_sum(n, m, a, b) == floor_sums(n, m, a, b)[0]


def test_floor_sums_deep_euclid_descent():
    # about 1,400 rounds: deeper than Python's default recursion limit
    a, m = fibonacci_pair_above(10**300)
    f, g, h = floor_sums(m, m, a, 0)
    # a*i = m*q_i + r_i, and with a coprime to m the remainders r_i run over
    # 0 .. m-1 once each, so sum r_i = s1 and sum r_i^2 = s2
    s1 = m * (m - 1) // 2
    s2 = (m - 1) * m * (2 * m - 1) // 6
    assert a * s1 - m * f == s1
    assert a * a * s2 - 2 * a * m * g + m * m * h == s2


def test_simplex_construction_rejects_singular_submatrix():
    with pytest.raises(InvalidSimplexError):
        SimplexSystem([[-1, 0], [0, -1], [1, 0]], [0, 0, 1])


def test_simplex_construction_rejects_unbounded():
    # all submatrices nonsingular, but the recession cone is nontrivial
    with pytest.raises(InvalidSimplexError):
        SimplexSystem([[1, 0], [0, 1], [1, 1]], [0, 0, 1])


def test_simplex_construction_rejects_bad_shapes():
    with pytest.raises(InvalidSimplexError):
        SimplexSystem([[1, 0], [0, 1]], [0, 0])  # 2x2 is not (n+1) x n
    with pytest.raises(InvalidSimplexError):
        SimplexSystem([[-1, 0], [0, -1], [1, 1]], [0, 0])  # short b


def test_vertices_standard_triangle():
    cands = vertices(STD_TRIANGLE, (0, 0, 3))
    points = [p for p, _ in cands]
    assert set(points) == {(3, 0), (0, 3), (0, 0)}
    assert all(actual for _, actual in cands)


def test_vertices_interval():
    cands = vertices(SimplexSystem([[-2], [3]], [0, 1]), (-1, 7))
    assert [p[0] for p, _ in cands] == [Fraction(7, 3), Fraction(1, 2)]
    assert all(actual for _, actual in cands)


def test_vertices_infeasible():
    cands = vertices(STD_TRIANGLE, (0, 0, -1))
    assert len(cands) == 3
    assert not any(actual for _, actual in cands)


def test_vertices_rejects_bad_dilation_length():
    with pytest.raises(InvalidDilationError):
        vertices(STD_TRIANGLE, (0, 0))


def test_validity_report_rejects_full_dimensional_empty():
    # a raised error, not an assert, so python -O keeps the check
    with pytest.raises(LatticeCountError):
        ValidityReport(nonempty=False, bounded=True, full_dimensional=True, vertices=None)


def test_validate_full_dimensional():
    report = validate_dilation(STD_TRIANGLE, (0, 0, 3))
    assert report.nonempty and report.bounded and report.full_dimensional
    assert report.vertices is not None and len(report.vertices) == 3


def test_validate_degenerate_point():
    report = validate_dilation(STD_TRIANGLE, (0, 0, 0))
    assert report.nonempty and not report.full_dimensional
    assert report.vertices == ((Fraction(0), Fraction(0)),)


def test_validate_empty():
    report = validate_dilation(STD_TRIANGLE, (0, 0, -1))
    assert not report.nonempty and not report.full_dimensional
    assert report.vertices is None


def test_actual_vertices_satisfy_all_inequalities_exactly():
    rng = random.Random(7)
    from conftest import random_simplex

    for _ in range(40):
        n = rng.choice((1, 2, 3))
        system = random_simplex(rng, n)
        t = tuple(rng.randint(-9, 9) for _ in range(n + 1))
        for point, actual in vertices(system, t):
            if actual:
                for row, ti in zip(system.a_matrix, t):
                    assert sum(a * x for a, x in zip(row, point)) <= ti


def test_nonempty_iff_some_candidate_actual():
    rng = random.Random(11)
    from conftest import random_simplex

    for _ in range(60):
        n = rng.choice((1, 2))
        system = random_simplex(rng, n)
        t = tuple(rng.randint(-6, 6) for _ in range(n + 1))
        report = validate_dilation(system, t)
        assert report.nonempty == any(a for _, a in vertices(system, t))
