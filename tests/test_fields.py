"""Cubic number fields: construction, exact arithmetic, certified decimals."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcf import (
    AlgebraicNumber,
    NumberField,
    approximate,
    floor_of,
)
from bcf.errors import (
    DegreeOutOfRange,
    FieldMismatch,
    ReduciblePolynomial,
    RootCountNotOne,
)

TRIBONACCI = NumberField((1, -1, -1, -1), (1, 2))
MOORE = NumberField((1, -1, 0, -1), (1, 2))
PERIOD_TWO = NumberField((1, -1, -2, -1), (2, 3))


def theta():
    return TRIBONACCI.generator()


# -- construction -------------------------------------------------------------


def test_field_validates_polynomial():
    with pytest.raises(ReduciblePolynomial):
        NumberField((1, 0, 0, -1), (0, 2))  # x^3 - 1 = (x-1)(x^2+x+1)
    with pytest.raises(ReduciblePolynomial):
        NumberField((1, 0, -1), (0, 2))  # (x-1)(x+1)
    with pytest.raises(DegreeOutOfRange):
        NumberField((1, 0, 0, 0, -2), (1, 2))
    with pytest.raises(DegreeOutOfRange):
        NumberField((7,), (1, 2))


def test_field_validates_interval():
    with pytest.raises(ValueError):
        NumberField((1, -1, -1, -1), (2, 1))
    with pytest.raises(RootCountNotOne):
        NumberField((1, -1, -1, -1), (3, 4))  # no root there
    with pytest.raises(RootCountNotOne):
        NumberField((1, 0, -2), (-2, 2))  # both roots of x^2 - 2
    with pytest.raises(RootCountNotOne):
        NumberField((1, -2), (2, 5))  # root sits at the excluded endpoint


def test_field_normalizes_and_compares():
    doubled = NumberField((2, -2, -2, -2), (1, 2))
    assert doubled == TRIBONACCI
    assert hash(doubled) == hash(TRIBONACCI)
    wider = NumberField((1, -1, -1, -1), (Fraction(3, 2), 2))
    assert wider == TRIBONACCI  # same root, different interval
    assert TRIBONACCI != MOORE
    negated = NumberField((-1, 1, 1, 1), (1, 2))
    assert negated.min_poly == (1, -1, -1, -1)


def test_degree_one_field_is_rational():
    line = NumberField((2, -7), (3, 4))  # root 7/2
    x = line.generator()
    assert x.is_rational() and x.as_fraction() == Fraction(7, 2)


def test_refine_shrinks_interval():
    field = NumberField((1, -1, -1, -1), (1, 2))
    lo0, hi0 = field.interval()
    field.refine()
    lo1, hi1 = field.interval()
    assert lo0 <= lo1 < hi1 <= hi0
    assert hi1 - lo1 < hi0 - lo0
    field.refine_below(Fraction(1, 10**12))
    lo2, hi2 = field.interval()
    assert hi2 - lo2 < Fraction(1, 10**12)


# -- arithmetic ----------------------------------------------------------------


def test_generator_satisfies_polynomial():
    t = theta()
    assert t**3 == t**2 + t + 1
    assert t**3 - t**2 - t - 1 == 0


def test_mixed_arithmetic_with_rationals():
    t = theta()
    x = (1 + 1 / t) * t
    assert x == t + 1
    assert (t - t) == 0
    assert 2 * t - t == t
    assert (t / t) == 1
    assert t**0 == 1
    assert t ** (-1) == 1 / t


def test_inverse_exact():
    t = theta()
    inv = 1 / t
    assert inv * t == 1
    # 1/theta = theta^2 - theta - 1 from the defining cubic
    assert inv == t**2 - t - 1


def test_field_mismatch():
    t = theta()
    m = MOORE.generator()
    with pytest.raises(FieldMismatch):
        _ = t + m
    with pytest.raises(FieldMismatch):
        _ = t * m


def test_rational_embedding_equality():
    half = TRIBONACCI.element(Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert hash(half) == hash(Fraction(1, 2))
    other = MOORE.element(Fraction(1, 2))
    assert half == other  # equal rational values across fields


def test_truthiness_is_exact_nonzero():
    t = theta()
    assert bool(t) is True
    assert bool(t - t) is False
    assert bool(AlgebraicNumber(TRIBONACCI, (0,))) is False


# -- sign, floor, comparisons ---------------------------------------------------


def test_sign_and_floor():
    t = theta()
    assert t.sign() == 1
    assert (-t).sign() == -1
    assert (t - t).sign() == 0
    assert floor_of(t) == 1
    assert floor_of(t**2) == 3       # theta^2 ~ 3.38
    assert floor_of(-t) == -2
    assert floor_of(Fraction(7, 2)) == 3
    assert floor_of(5) == 5


def test_comparisons():
    t = theta()
    assert 1 < t < 2
    assert t > Fraction(9, 5)
    assert t < Fraction(15, 8)
    assert t <= t and t >= t
    assert not (t < t)


def test_cross_constant_comparison():
    t = theta()
    m = MOORE.generator()
    with pytest.raises(FieldMismatch):
        _ = t < m


# -- certified decimals ---------------------------------------------------------


def test_tribonacci_decimals():
    t = theta()
    assert t.approximate(6).text == "1.839287"
    assert t.approximate(12).text == "1.839286755214"
    assert t.approximate(20).text == "1.83928675521416113255"


def test_moore_decimals():
    m = MOORE.generator()
    assert m.approximate(4).text == "1.4656"
    assert m.approximate(12).text == "1.465571231877"


def test_period_two_decimals():
    r = PERIOD_TWO.generator()
    assert r.approximate(10).text == "2.1478990357"
    assert r.approximate(12).text == "2.147899035705"


def test_approximation_error_bound():
    t = theta()
    for digits in (1, 5, 9):
        approx = t.approximate(digits)
        assert approx.error_bound <= Fraction(1, 10**digits)
        lo, hi = t.value_interval()
        assert abs(approx.value - lo) <= approx.error_bound + (hi - lo)


def test_float_conversion():
    assert abs(float(theta()) - 1.8392867552141612) < 1e-15


def test_approximate_free_function():
    assert approximate(Fraction(1, 3), 5).text == "0.33333"
    assert approximate(Fraction(2, 3), 5).text == "0.66667"
    assert approximate(-Fraction(1, 3), 3).text == "-0.333"
    assert approximate(7, 3).text == "7.000"
    assert approximate(theta(), 6).text == "1.839287"


# -- randomized properties -------------------------------------------------------


COORD = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)


@st.composite
def field_elements(draw):
    coords = tuple(draw(COORD) for _ in range(3))
    return AlgebraicNumber(TRIBONACCI, coords)


@given(x=field_elements(), y=field_elements())
@settings(max_examples=80, deadline=None)
def test_ring_axioms(x, y):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) - y == x
    if y != 0:
        assert (x * y) / y == x


@given(x=field_elements())
@settings(max_examples=80, deadline=None)
def test_floor_brackets_value(x):
    n = x.floor()
    assert n <= x < n + 1
