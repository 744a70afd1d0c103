"""Cubic number fields: construction, exact arithmetic, certified decimals."""

import math
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bcf import (
    AlgebraicNumber,
    ExpansionState,
    NumberField,
    SequencePair,
    approximate,
    bcf_expand,
    bcf_expand_rational,
    bcf_step,
    check_appropriate,
    check_proper,
    conjecture_scan,
    floor_of,
    fraction_str,
    rational_expansion_trace,
    tree_sum,
)
from bcf import polys
from bcf.errors import (
    DegreeOutOfRange,
    FieldMismatch,
    OutputTooLarge,
    ReduciblePolynomial,
    RootCountNotOne,
)
from bcf.fields import _element, _enclosure, _primitive

from _corpus import irreducible_roots

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


def test_wide_root_interval_starts_at_the_root_bound(monkeypatch):
    # Every root lies strictly inside (-B, B), B = 1 + max|c_i| / |lead|, so
    # the cached interval starts no wider: a floor of a root given by a wide
    # interval takes a few bits, not one per bit of the width.
    # root_interval stays as given.
    wide = NumberField((1, 0, -2), (1, 10**300))
    assert wide.root_interval == (1, 10**300)
    assert wide.interval() == (1, 3)
    bits, refine = [], NumberField.refine
    monkeypatch.setattr(NumberField, "refine",
                        lambda self, n=1: bits.append(n) or refine(self, n))
    assert floor_of(wide.generator() * 7) == 9
    assert sum(bits) <= 8
    negative = NumberField((2, 0, -3), (-10**300, Fraction(-1, 2)))
    assert negative.interval() == (Fraction(-5, 2), Fraction(-1, 2))
    narrow = NumberField((1, 0, -2), (Fraction(1, 3), Fraction(5, 2)))
    assert narrow.interval() == narrow.root_interval


def test_field_normalizes_and_compares():
    doubled = NumberField((2, -2, -2, -2), (1, 2))
    assert doubled == TRIBONACCI
    assert hash(doubled) == hash(TRIBONACCI)
    wider = NumberField((1, -1, -1, -1), (Fraction(3, 2), 2))
    assert wider == TRIBONACCI  # same root, different interval
    assert TRIBONACCI != MOORE
    negated = NumberField((-1, 1, 1, 1), (1, 2))
    assert negated.min_poly == (1, -1, -1, -1)


def test_degree_one_field_is_refused():
    # A rational is a Fraction, written rat:; a field starts at degree 2.
    for poly, interval in (((2, -7), (3, 4)), ((1, 0), (-1, 1))):
        with pytest.raises(DegreeOutOfRange, match=(
                "^minimal polynomial must have degree 2-3, got degree 1$")):
            NumberField(poly, interval)


def test_refine_shrinks_interval():
    field = NumberField((1, -1, -1, -1), (1, 2))
    lo0, hi0 = field.interval()
    field.refine()
    lo1, hi1 = field.interval()
    assert lo0 <= lo1 < hi1 <= hi0
    assert hi1 - lo1 < hi0 - lo0
    for _ in range(40):
        field.refine()
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


# The twelve binary operator methods, and the eight operators that reach them.
_OPERATOR_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__lt__", "__gt__", "__le__", "__ge__",
)
_OPERATORS = (
    operator.add, operator.sub, operator.mul, operator.truediv,
    operator.lt, operator.gt, operator.le, operator.ge,
)


def test_field_mismatch():
    t = theta()
    m = MOORE.generator()
    for name in _OPERATOR_METHODS:
        for x, y in ((t, m), (m, t)):
            with pytest.raises(FieldMismatch):
                getattr(x, name)(y)
    for op in _OPERATORS:
        for x, y in ((t, m), (m, t)):
            with pytest.raises(FieldMismatch):
                op(x, y)


@pytest.mark.parametrize(
    "other", [3, -1, Fraction(7, 4), Fraction(-2, 5), True, 1.5, "1", None],
    ids=repr,
)
def test_operator_protocol_by_other_operand(other):
    # An int or Fraction is embedded on either side; anything else leaves
    # each method NotImplemented, so the operator raises TypeError.
    rational = isinstance(other, (int, Fraction)) and not isinstance(other, bool)
    for x in (theta(), TRIBONACCI.element(Fraction(7, 4))):
        if rational:
            embedded = TRIBONACCI.element(other)
            for name in _OPERATOR_METHODS:
                assert getattr(x, name)(other) == getattr(x, name)(embedded)
            for op in _OPERATORS:
                assert op(x, other) == op(x, embedded)
                assert op(other, x) == op(embedded, x)
            assert (other < x) == (x > other)
            assert (other <= x) == (x >= other)
        else:
            for name in _OPERATOR_METHODS:
                assert getattr(x, name)(other) is NotImplemented
            for op in _OPERATORS:
                with pytest.raises(TypeError):
                    op(x, other)
                with pytest.raises(TypeError):
                    op(other, x)


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


@pytest.mark.parametrize("poly, interval", [
    ((1, 0, -2), (1, 2)), ((1, -1, -1, -1), (1, 2)),
], ids=["degree-2", "degree-3"])
def test_sign_of_rational_elements_needs_no_refinement(poly, interval):
    field = NumberField(poly, interval)
    before = field.interval()
    for q in (Fraction(0), Fraction(-7, 3), Fraction(-1), Fraction(1, 10**30),
              Fraction(5, 2)):
        assert field.element(q).sign() == (q > 0) - (q < 0)
    assert field.interval() == before


def test_truth_needs_no_refinement():
    # A nonzero element is true whatever its size: bool() reads the
    # coefficients, so the shared interval stays (1, 2).
    field = NumberField((1, -1, -1, -1), (1, 2))
    t = field.generator()
    before = field.interval()
    assert bool(t - Fraction(18392867552141, 10**13)) is True
    assert bool(t - t) is False and bool(field.element(-1)) is True
    assert field.interval() == before


def test_even_power_bound_when_interval_straddles_zero():
    # x^3 - 2 has one real root (~1.26), so (-3, 2) isolates it; theta^2
    # is then only known to lie in [0, 9], not [4, 9].
    t = NumberField((1, 0, 0, -2), (-3, 2)).generator()
    lo, hi = (t * t).value_interval()
    assert lo == 0 and hi == 9
    assert floor_of(t * t) == 1


def test_comparisons():
    t = theta()
    assert 1 < t < 2
    assert t > Fraction(9, 5)
    assert t < Fraction(15, 8)
    assert t <= t and t >= t
    assert not (t < t)


def test_cross_constant_comparison():
    # Rational constants of two fields are equal by value, but every
    # operator method refuses to combine them, in either order.
    half = TRIBONACCI.element(Fraction(1, 2))
    other = MOORE.element(Fraction(1, 2))
    assert half == other
    for name in _OPERATOR_METHODS:
        for x, y in ((half, other), (other, half)):
            with pytest.raises(FieldMismatch):
                getattr(x, name)(y)


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


def test_float_of_a_rational_element_is_its_fraction():
    t = theta()
    s = NumberField((1, 0, -2), (1, 2)).generator()
    third = s * s / 6
    for x, q in ((t - t + Fraction(1, 3), Fraction(1, 3)),
                 (third, Fraction(1, 3)),
                 (third * third - 2, Fraction(-17, 9))):
        assert x.is_rational()
        assert float(x) == float(q)


def test_rational_elements_round_ties_away_from_zero():
    # floor(10**d * x + 1/2) would print -0.12: a rational is rounded exactly
    t = theta()
    approx = approximate(t - t + Fraction(-1, 8), 2)
    assert (approx.text, approx.error_bound) == ("-0.13", Fraction(1, 200))
    assert TRIBONACCI.element(Fraction(1, 8)).approximate(2).text == "0.13"


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("places", [4, 8, 13])
def test_float_of_small_elements_is_relative(sign, places):
    # x = y minus its own decimal, of magnitude about 10**-places (down to
    # 6.1e-14 for theta - 1.8392867552141), in a fresh field each time: an
    # absolute error bound reads as fine on an interval already narrowed
    t = NumberField((1, -1, -1, -1), (1, 2)).generator()
    for x in (t, t * t - t, t.inverse()):
        x = sign * (x - Fraction(math.floor(x * 10**places), 10**places))
        value = float(x)
        assert 1e-15 < abs(value) < 1e-3
        assert abs(Fraction(value) - approximate(x, 60).value) <= math.ulp(value)


def test_approximate_free_function():
    assert approximate(Fraction(1, 3), 5).text == "0.33333"
    assert approximate(Fraction(2, 3), 5).text == "0.66667"
    assert approximate(-Fraction(1, 3), 3).text == "-0.333"
    assert approximate(7, 3).text == "7.000"
    assert approximate(theta(), 6).text == "1.839287"


@pytest.mark.parametrize("call", [
    lambda: TRIBONACCI.element(0.1),
    lambda: TRIBONACCI.element(True),
    lambda: approximate(0.1, 20),
    lambda: approximate(True, 20),
], ids=["element-float", "element-bool", "approximate-float", "approximate-bool"])
def test_inexact_rationals_are_type_errors(call):
    with pytest.raises(TypeError, match="must be an int, Fraction"):
        call()


def test_exact_rationals_embed_and_approximate():
    assert TRIBONACCI.element(3).coeffs == (3, 0, 0)
    assert TRIBONACCI.element(Fraction(-1, 10)).coeffs == (Fraction(-1, 10), 0, 0)
    assert approximate(Fraction(1, 10), 20).text == "0." + "1".ljust(20, "0")
    assert approximate(-2, 2).text == "-2.00"
    with pytest.raises(TypeError):
        TRIBONACCI.element(theta())


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


# -- integer coordinates against a Fraction reference ----------------------------


@st.composite
def small_fields(draw):
    """Irreducible polynomials of degree 2 or 3, leading coefficient 1-5."""
    d = draw(st.integers(2, 3))
    lead = draw(st.integers(1, 5))
    rest = draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d))
    poly = polys.primitive((lead, *rest))
    assume(rest[-1] != 0)
    intervals = irreducible_roots(poly)
    assume(intervals)
    return NumberField(poly, draw(st.sampled_from(intervals)))


def ref_mul(min_poly, x, y):
    """Product of coordinate tuples in Q[x]/(min_poly), all in Fractions."""
    d = len(min_poly) - 1
    conv = [Fraction(0)] * (2 * d - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            conv[i + j] += a * b
    asc = min_poly[::-1]
    for k in range(2 * d - 2, d - 1, -1):
        top = conv.pop() / asc[d]
        for i in range(d):
            conv[k - d + i] -= top * asc[i]
    return tuple(conv)


def ref_inverse(min_poly, x):
    """Solve x * b = 1 by Gauss-Jordan elimination over the Fractions."""
    d = len(min_poly) - 1
    units = [tuple(Fraction(int(i == j)) for i in range(d)) for j in range(d)]
    cols = [ref_mul(min_poly, x, e) for e in units]
    rows = [[cols[j][i] for j in range(d)] + [units[0][i]] for i in range(d)]
    for c in range(d):
        pivot = next(r for r in range(c, d) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(d):
            if r != c and rows[r][c] != 0:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return tuple(row[d] for row in rows)


def assert_normalised(x):
    d = x.field.degree
    assert x._den > 0 and len(x._num) == 3 and not any(x._num[d:])
    assert math.gcd(x._den, *x._num) == 1
    assert x.coeffs == tuple(Fraction(n, x._den) for n in x._num[:d])


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_fraction_reference(data):
    field = data.draw(small_fields())
    d = field.degree
    coords = st.lists(COORD, min_size=d, max_size=d).map(tuple)
    xc, yc = data.draw(coords), data.draw(coords)
    x, y = AlgebraicNumber(field, xc), AlgebraicNumber(field, yc)
    f = field.min_poly
    results = {
        "add": (x + y, tuple(a + b for a, b in zip(xc, yc))),
        "sub": (x - y, tuple(a - b for a, b in zip(xc, yc))),
        "mul": (x * y, ref_mul(f, xc, yc)),
    }
    if any(yc):
        inv = ref_inverse(f, yc)
        results["inverse"] = (y.inverse(), inv)
        results["div"] = (x / y, ref_mul(f, xc, inv))
        assert y * y.inverse() == 1
    for name, (got, want) in results.items():
        assert got.coeffs == want, name
        assert_normalised(got)
        rebuilt = AlgebraicNumber(field, want)
        assert got == rebuilt and hash(got) == hash(rebuilt), name
    assert_normalised(x)
    assert (x * y) * x == x * (y * x)
    assert hash((x + y) - y) == hash(x)


@given(data=st.data(), q=st.one_of(st.integers(-9, 9), COORD))
@settings(max_examples=150, deadline=None)
def test_rational_over_element_scales_the_inverse(data, q):
    field = data.draw(small_fields())
    coords = st.lists(COORD, min_size=field.degree, max_size=field.degree)
    x = AlgebraicNumber(field, data.draw(coords))
    assume(x != 0)
    got = q / x
    assert got == q * x.inverse() and got._raw == (q * x.inverse())._raw
    assert_normalised(got)


def _start_triple(alpha, beta):
    """The triple bcf_expand starts from: (p dq : q dp : dp dq) for
    alpha = p/dp and beta = q/dq."""
    (p, dp), (q, dq) = alpha._raw, beta._raw
    return tuple(c * dq for c in p), tuple(c * dp for c in q), (dp * dq, 0, 0)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_step_matches_public_operators(data):
    field = data.draw(small_fields())
    d = field.degree
    coords = st.lists(COORD, min_size=d, max_size=d).map(tuple)
    alpha = AlgebraicNumber(field, data.draw(coords))
    beta = AlgebraicNumber(field, data.draw(coords))
    a, b = data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5))
    assume(beta != b)
    # One linear step of the projective triple (vectors of three entries,
    # zero past the degree), then its primitive form.
    x, y, z = _start_triple(alpha, beta)
    step = (z, tuple(c - a * e for c, e in zip(x, z)),
            tuple(c - b * e for c, e in zip(y, z)))
    u, v, (w, *rest) = _primitive(field, *step)
    assert len(u) == len(v) == 3 and not any(u[d:] + v[d:] + tuple(rest))
    assert w > 0 and math.gcd(w, *u, *v) == 1
    x, y = _element(field, u, w), _element(field, v, w)
    assert x == 1 / (beta - b)
    assert y == (alpha - a) / (beta - b)
    # The triple is canonical: the elements' start triple reduces to the
    # same triple, and so does any multiple of the point.
    assert _primitive(field, *_start_triple(x, y)) == (u, v, (w, *rest))
    scaled = tuple(tuple(-3 * c for c in vector) for vector in step)
    assert _primitive(field, *scaled) == (u, v, (w, *rest))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_rational_elements_hash_like_fractions(data):
    field = data.draw(small_fields())
    q = data.draw(COORD)
    built = [field.element(q), AlgebraicNumber(field, (q,)), field.element(q) * 1]
    if field.degree > 1:
        t = field.generator()
        built.append((t + q) - t)
    for x in built:
        assert x == q and hash(x) == hash(q)
        assert_normalised(x)


# -- exact inputs -----------------------------------------------------------------

# Every caller that takes an exact number, as a function of that number.
_EXACT_CALLERS = {
    "bcf_expand": lambda v: bcf_expand(v, Fraction(3, 2), max_terms=4),
    "bcf_step": lambda v: bcf_step(ExpansionState(v, Fraction(3, 2), 0)),
    "check_proper": lambda v: check_proper(
        v, Fraction(3, 2), ((2, 1), (1, 1)), 1
    ),
    "check_appropriate": lambda v: check_appropriate(
        v, Fraction(3, 2), ((2, 1), (1, 1)), 1
    ),
    "bcf_expand_rational": lambda v: bcf_expand_rational(v, Fraction(3, 2)),
    # bcf_expand on a box: each interval end is read as an exact number
    "bcf_expand_box": lambda v: bcf_expand((v, Fraction(9)), Fraction(3, 2)),
    "rational_expansion_trace": lambda v: rational_expansion_trace(
        v, Fraction(3, 2)
    ),
    "tree_sum": lambda v: tree_sum((1, v), (1, Fraction(3, 2))),
    "SequencePair": lambda v: SequencePair((1,), (1, 0), terminal=v),
    "NumberField interval": lambda v: NumberField((1, 0, -2), (1, v)),
    "AlgebraicNumber": lambda v: AlgebraicNumber(TRIBONACCI, (1, v)),
    "element": TRIBONACCI.element,
    "fraction_str": fraction_str,
}
_RATIONAL_ONLY = (
    "bcf_expand_rational", "bcf_expand_box", "rational_expansion_trace",
    "NumberField interval", "AlgebraicNumber", "element", "fraction_str",
)


@pytest.mark.parametrize("caller, bad", [
    (caller, bad)
    for caller in _EXACT_CALLERS
    for bad in (True, 1.5, "7/4", None)
    # terminal=None is how a SequencePair says it is open
    if not (caller == "SequencePair" and bad is None)
])
def test_inexact_inputs_are_type_errors(caller, bad):
    with pytest.raises(TypeError, match="must be an int, Fraction or"):
        _EXACT_CALLERS[caller](bad)


@pytest.mark.parametrize("caller", list(_EXACT_CALLERS))
def test_exact_inputs_are_accepted(caller):
    call = _EXACT_CALLERS[caller]
    call(2)
    call(Fraction(7, 4))
    if caller in _RATIONAL_ONLY:
        with pytest.raises(TypeError):
            call(theta())
    else:
        call(theta())


# Every caller that takes an integer coefficient, as a function of it.
_INTEGER_CALLERS = {
    "NumberField": lambda v: NumberField((1, v, -3), (0, 2)),
    "conjecture_scan family": lambda v: conjecture_scan(
        [(1, 0, 0, v)], [((1, 0, 0), (1,))], 4
    ),
    "conjecture_scan candidate": lambda v: conjecture_scan(
        [(1, 0, 0, -2)], [((v, 0, 0), (1,))], 4
    ),
}


@pytest.mark.parametrize("caller, bad", [
    (caller, bad)
    for caller in _INTEGER_CALLERS
    for bad in (True, 1.5, "7/4", None, Fraction(2))
])
def test_non_integers_are_type_errors(caller, bad):
    with pytest.raises(TypeError, match="coefficient must be an int, got"):
        _INTEGER_CALLERS[caller](bad)


@pytest.mark.parametrize("caller", list(_INTEGER_CALLERS))
def test_integers_are_accepted(caller):
    _INTEGER_CALLERS[caller](1)


# -- certified refinement -----------------------------------------------------


@st.composite
def cubic_fields(draw):
    """Irreducible cubics, leading coefficient 1-5, at any of their real
    roots."""
    lead = draw(st.integers(1, 5))
    rest = draw(st.lists(st.integers(-20, 20), min_size=3, max_size=3))
    poly = polys.primitive((lead, *rest))
    intervals = irreducible_roots(poly)
    assume(intervals)
    return NumberField(poly, draw(st.sampled_from(intervals)))


def _loop_sign(x):
    """The sign by the loop that decided it before the floor did: refine
    until the value's bounds exclude 0."""
    if x.is_rational():
        value = x.as_fraction()
        return (value > 0) - (value < 0)
    while True:
        lo, hi = x.value_interval()
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        x.field.refine()


@given(
    cubic_fields(),
    st.tuples(*[st.integers(-9, 9)] * 3),
    st.integers(1, 9),
    st.integers(-3, 3),
    st.integers(0, 60),
)
@settings(max_examples=120, deadline=None)
def test_sign_matches_the_bounds_loop(field, coords, den, k, bits):
    t = field.generator()
    x = AlgebraicNumber(field, [Fraction(c, den) for c in coords])
    # k + (theta - r), r a 2**-bits approximation of theta: just below or
    # just above the integer k.
    field.refine(bits)
    lo, hi = field.interval()
    near = k + (t - (lo + hi) / 2)
    for value in (x, near):
        n = math.floor(value)
        for m in (n - 1, n, n + 1, k):
            shifted = value - m
            want = _loop_sign(shifted)
            assert shifted.sign() == want
            assert (value < m) == (want < 0)
            assert (value > m) == (want > 0)
        assert value.sign() == _loop_sign(value)


@given(cubic_fields(), st.lists(st.integers(1, 80), min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_refine_shrinks_by_the_bits_asked(field, steps):
    for bits in steps:
        lo0, hi0 = field.interval()
        field.refine(bits)
        lo, hi = field.interval()
        assert lo0 <= lo < hi <= hi0
        assert (hi - lo) * 2**bits <= hi0 - lo0
        assert polys.count_roots(field._sturm_chain, lo, hi) == 1


def _bisection_decimal(field, a, b, c, digits):
    """(a + b*theta) / c rounded half away from zero to `digits` places, by
    Fraction bisection of the field's starting interval: the value is
    monotone in theta, so once both ends round alike so does the value."""
    f = field.min_poly
    lo, hi = field.root_interval
    positive_lo = polys.evaluate(f, lo) > 0
    unit = 10**digits

    def rounded(t):
        x = (a + b * t) / c * unit
        n = math.floor(abs(x) + Fraction(1, 2))
        return Fraction(n if x >= 0 else -n, unit)

    while True:
        if abs(b) * (hi - lo) * unit < c and rounded(lo) == rounded(hi):
            return rounded(lo)
        mid = (lo + hi) / 2
        if (polys.evaluate(f, mid) > 0) == positive_lo:
            lo = mid
        else:
            hi = mid


@given(
    cubic_fields(),
    st.integers(-10, 10),
    st.integers(-5, 5).filter(bool),
    st.integers(1, 7),
    st.integers(1, 300),
)
@settings(max_examples=40, deadline=None)
def test_approximate_matches_bisection(field, a, b, c, digits):
    approx = ((a + b * field.generator()) / c).approximate(digits)
    assert approx.value == _bisection_decimal(field, a, b, c, digits)
    assert len(approx.text.partition(".")[2]) == digits
    assert approx.error_bound <= Fraction(1, 2 * 10**digits)


@given(
    cubic_fields(),
    st.tuples(*[st.integers(-50, 50)] * 3),
    st.integers(1, 40),
    st.integers(1, 60),
    st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_error_bound_is_the_fraction_distance_to_the_enclosure(
        field, coords, c, digits, rational):
    # The bound is computed on integers; the reference subtracts Fractions.
    x = (field.element(coords[0]) if rational
         else AlgebraicNumber(field, coords)) / c
    approx = approximate(x, digits)
    if x.is_rational():
        assert approx.error_bound == abs(approx.value - x.as_fraction())
        return
    lo, hi, den = _enclosure(field, x._raw)  # the enclosure that decided n
    rounded = approx.value
    assert approx.error_bound == max(abs(rounded - Fraction(lo, den)),
                                     abs(rounded - Fraction(hi, den)))


def test_deep_approximate_takes_few_sign_tests(monkeypatch):
    # theta^2 + 1 to 4000 places needs about 13,300 bits: one sign test per
    # bit by bisection, a few per doubling of the step by QIR
    t = NumberField((1, -1, -1, -1), (1, 2)).generator()
    calls = []
    original = polys._sign_at

    def counting(coeffs, n, d):
        calls.append(d)
        return original(coeffs, n, d)

    monkeypatch.setattr(polys, "_sign_at", counting)
    text = (t * t + 1).approximate(4000).text
    assert text.startswith("4.382975767906237494") and len(text) == 4002
    assert len(calls) < 200


def test_places_past_the_string_limit_fail_before_refining(monkeypatch):
    refines = []
    monkeypatch.setattr(NumberField, "refine", lambda self, bits=1: refines.append(bits))
    places = sys.get_int_max_str_digits() + 1
    for x in (theta(), Fraction(1, 3), 7):
        with pytest.raises(OutputTooLarge):
            approximate(x, places)
    with pytest.raises(OutputTooLarge):
        theta().approximate(places)
    assert refines == []
