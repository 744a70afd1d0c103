"""Exact polynomial utilities: Sturm chains, rational roots, deflation,
root isolation."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bcf import polys
from bcf.errors import ReduciblePolynomial


def test_trim_and_degree():
    assert polys.trim((0, 0, 1, 2)) == (1, 2)
    assert polys.trim((0, 0)) == ()
    assert polys.degree(()) == -1
    assert polys.degree((5,)) == 0
    assert polys.degree((1, 0, 0)) == 2


def test_evaluate_horner():
    assert polys.evaluate((1, -1, -1, -1), 2) == 1
    assert polys.evaluate((), 7) == 0
    assert polys.evaluate((2, 3), Fraction(1, 2)) == 4


def test_arithmetic():
    assert polys.add((1, 2), (1, -2)) == (2, 0)
    assert polys.add((1, 2), (-1, 2)) == (4,)
    assert polys.sub((1, 2), (1, 2)) == ()
    assert polys.multiply((1, 1), (1, -1)) == (1, 0, -1)
    assert polys.multiply((), (1, 2)) == ()
    assert polys.scale((1, 2), 0) == ()
    assert polys.negate((1, -2)) == (-1, 2)
    assert polys.derivative((1, -1, -1, -1)) == (3, -2, -1)
    assert polys.derivative((5,)) == ()


def test_content_primitive_clear():
    assert polys.content((4, -6, 2)) == 2
    assert polys.primitive((4, -6, 2)) == (2, -3, 1)
    assert polys.primitive((-4, -6)) == (2, 3)
    assert polys.content((-4, -6)) == 2


def test_sturm_count_roots():
    chain = polys.sturm_chain((1, -1, -1, -1))
    assert polys.count_roots(chain, Fraction(1), Fraction(2)) == 1
    assert polys.count_roots(chain, Fraction(-10), Fraction(0)) == 0
    assert polys.count_roots(chain, Fraction(-10), Fraction(10)) == 1
    # x^2 - 2 has two real roots
    chain2 = polys.sturm_chain((1, 0, -2))
    assert polys.count_roots(chain2, Fraction(-2), Fraction(2)) == 2


def test_rational_roots():
    assert sorted(polys.rational_roots((2, -1, -1))) == [
        Fraction(-1, 2),
        Fraction(1),
    ]
    assert polys.rational_roots((1, -1, -1, -1)) == []
    assert sorted(polys.rational_roots((6, -5, 1))) == [
        Fraction(1, 3),
        Fraction(1, 2),
    ]
    assert polys.rational_roots((1, 0, 1)) == []
    assert polys.rational_roots((1, -1, 0)) == [0, 1]
    # -2x^3 + x^2 + x = -x(2x + 1)(x - 1): a zero root and a negative lead
    assert polys.rational_roots((-2, 1, 1, 0)) == [Fraction(-1, 2), 0, 1]
    assert polys.rational_roots((7,)) == []


def test_is_perfect_square():
    assert polys.is_perfect_square(49)
    assert polys.is_perfect_square(0)
    assert not polys.is_perfect_square(2)
    assert not polys.is_perfect_square(-4)


def test_is_irreducible():
    assert polys.is_irreducible((1, -1, -1, -1))
    assert polys.is_irreducible((1, 0, -2))       # x^2 - 2
    assert not polys.is_irreducible((1, 0, -1))   # (x-1)(x+1)
    assert not polys.is_irreducible((1, 0, 0, -1))  # x^3 - 1
    assert polys.is_irreducible((2, -1))          # degree 1
    with pytest.raises(ValueError):
        polys.is_irreducible((1, 0, 0, 0, -1))
    with pytest.raises(ValueError):
        polys.is_irreducible((5,))


def test_isolating_intervals():
    intervals = polys.isolating_intervals((1, 0, -2))
    assert len(intervals) == 2
    chain = polys.sturm_chain((1, 0, -2))
    for lo, hi in intervals:
        assert lo < hi
        assert polys.count_roots(chain, lo, hi) == 1
    (lo, hi), (lo2, hi2) = sorted(intervals)
    assert lo < -Fraction(14142, 10000) < hi
    assert lo2 < Fraction(14142, 10000) < hi2
    # x^3 - x = (x + 1) x (x - 1): the first midpoint, 0, is a root
    with pytest.raises(ReduciblePolynomial):
        polys.isolating_intervals((1, 0, -1, 0))


@given(st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_isolating_intervals_random_cubics(degree, data):
    coeffs = [data.draw(st.integers(-5, 5)) for _ in range(degree)]
    poly = polys.trim((1, *coeffs))
    if polys.rational_roots(poly):
        return
    chain = polys.sturm_chain(poly)
    intervals = polys.isolating_intervals(poly)
    for lo, hi in intervals:
        assert polys.count_roots(chain, lo, hi) == 1


def _fraction_isolate(coeffs):
    """isolating_intervals by bisection on Fraction endpoints, the
    reference for the integer bisection: same start, same cell order."""
    chain = polys.sturm_chain(coeffs)
    c = chain[0]
    bound = 1 + Fraction(max(abs(x) for x in c[1:]), abs(c[0]))

    def variations(x):
        return polys._sign_variations(chain, x.numerator, x.denominator)

    out = []
    stack = [(-bound, bound, variations(-bound), variations(bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        n = v_lo - v_hi
        if n == 1:
            out.append((lo, hi))
        elif n > 1:
            mid = (lo + hi) / 2
            if polys._sign_at(c, mid.numerator, mid.denominator) == 0:
                raise ReduciblePolynomial(
                    f"polynomial {c} has the rational root {mid}"
                )
            v_mid = variations(mid)
            stack.append((lo, mid, v_lo, v_mid))
            stack.append((mid, hi, v_mid, v_hi))
    return sorted(out)


@given(
    st.lists(st.integers(-40, 40), min_size=1, max_size=3),
    st.integers(-12, 12).filter(bool),
)
@settings(max_examples=300, deadline=None)
def test_integer_bisection_matches_fraction_bisection(tail, lead):
    # Random integer polynomials of degree 1 to 3, reducible ones included:
    # equal interval lists, or the same error for a root at a midpoint.
    poly = (lead, *tail)
    try:
        expected = _fraction_isolate(poly)
    except ReduciblePolynomial as exc:
        with pytest.raises(ReduciblePolynomial) as raised:
            polys.isolating_intervals(poly)
        assert str(raised.value) == str(exc)
    else:
        got = polys.isolating_intervals(poly)
        assert got == expected
        assert all(type(x) is Fraction for pair in got for x in pair)


BIG = 2**70  # past 2**64, so no coefficient fits a machine word


@st.composite
def planted_polys(draw):
    """(integer polynomial, its distinct rational roots, k or None, every
    planted root as often as it was planted) built from linear factors
    q*x - p, some repeated, times x**2 - k when k is drawn (k is never a
    square, so that factor has no rational root)."""
    roots = draw(st.lists(
        st.one_of(
            st.just(Fraction(0)),
            st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
        ),
        min_size=1, max_size=3,
    ))
    poly = (draw(st.integers(1, BIG)) * draw(st.sampled_from((1, -1))),)
    planted = []
    for r in roots:
        for _ in range(draw(st.integers(1, 2))):
            poly = polys.multiply(poly, (r.denominator, -r.numerator))
            planted.append(r)
    k = draw(st.one_of(
        st.none(),
        st.integers(-6, 12).filter(lambda k: not polys.is_perfect_square(k)),
    ))
    if k is not None:
        poly = polys.multiply(poly, (1, 0, -k))
    return poly, sorted(set(roots)), k, planted


def _endpoint(roots):
    near_root = st.tuples(
        st.sampled_from(roots), st.integers(-BIG, BIG), st.integers(1, BIG)
    ).map(lambda t: t[0] + Fraction(t[1], t[2]) / BIG)
    anywhere = st.builds(
        Fraction, st.integers(-4 * BIG, 4 * BIG), st.integers(1, BIG)
    )
    return st.one_of(near_root, anywhere)


def _above_sqrt(x, k):
    """x > sqrt(k) for rational x and integer k > 0, exactly."""
    return x > 0 and x * x > k


@given(planted_polys(), st.data())
@settings(max_examples=80, deadline=None)
def test_planted_roots_found_and_counted(planted, data):
    poly, roots, k, _ = planted
    assert polys.rational_roots(poly) == roots
    chain = polys.sturm_chain(poly)
    assert all(type(c) is int for p in chain for c in p)
    for _ in range(3):
        lo, hi = sorted((data.draw(_endpoint(roots)), data.draw(_endpoint(roots))))
        assume(lo < hi and lo not in roots and hi not in roots)
        expected = sum(lo < r < hi for r in roots)
        if k is not None and k > 0:
            # sqrt(k) lies in (lo, hi); so does -sqrt(k) (negate the interval)
            expected += not _above_sqrt(lo, k) and _above_sqrt(hi, k)
            expected += not _above_sqrt(-hi, k) and _above_sqrt(-lo, k)
        assert polys.count_roots(chain, lo, hi) == expected


@given(planted_polys())
@settings(max_examples=60, deadline=None)
def test_deflate_planted_roots(planted):
    poly, _, _, planted_roots = planted
    quotient = poly
    for r in planted_roots:
        quotient = polys.deflate(quotient, r)
        assert all(type(c) is int for c in quotient)
    assert polys.rational_roots(quotient) == []
    product = quotient
    for r in planted_roots:
        product = polys.multiply(product, (r.denominator, -r.numerator))
    assert product == poly


def test_deflate_rejects_non_root():
    assert polys.deflate((2, -1, -1), Fraction(-1, 2)) == (1, -1)
    with pytest.raises(ValueError):
        polys.deflate((1, 0, -2), Fraction(1))      # remainder -1
    with pytest.raises(ValueError):
        polys.deflate((1, 0, -2), Fraction(1, 2))   # 2x - 1 does not divide
