"""Exact polynomial utilities: Sturm chains, root counts, the
irreducibility test and root isolation."""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bcf import polys
from _corpus import has_rational_root, irreducible_roots


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


def _has_rational_root(coeffs):
    return polys._has_rational_root(polys.sturm_chain(coeffs))


def test_rational_roots():
    assert _has_rational_root((2, -1, -1))       # (2x + 1)(x - 1)
    assert not _has_rational_root((1, -1, -1, -1))
    assert _has_rational_root((6, -5, 1))        # (3x - 1)(2x - 1)
    assert not _has_rational_root((1, 0, 1))
    assert _has_rational_root((1, -1, 0))
    # -2x^3 + x^2 + x = -x(2x + 1)(x - 1): a zero root and a negative lead
    assert _has_rational_root((-2, 1, 1, 0))
    assert _has_rational_root((3, -2))


def _irreducible(coeffs):
    return polys._irreducible(polys.sturm_chain(polys.primitive(coeffs)))


def test_is_irreducible():
    assert _irreducible((1, -1, -1, -1))
    assert _irreducible((1, 0, -2))          # x^2 - 2
    assert not _irreducible((1, 0, -1))      # (x-1)(x+1)
    assert not _irreducible((1, 0, 0, -1))   # x^3 - 1
    assert _irreducible((2, -1))             # degree 1
    assert not _irreducible((4, 4, 1))       # (2x + 1)^2: a repeated root
    # (x - 1)^2 (x + 1): the chain ends in x - 1, so no root search runs
    assert polys.sturm_chain((1, -1, -1, 1))[-1] == (1, -1)
    assert not _irreducible((1, -1, -1, 1))


@st.composite
def _small_polys(draw):
    """Primitive integer polynomials of degree 1 to 3 with coefficients in
    -60..60: random ones, ones with a planted rational root p/q, planted
    once or twice, and ones with a zero constant term."""
    degree = draw(st.integers(1, 3))
    coeff = st.integers(-60, 60)
    kind = draw(st.sampled_from(("random", "planted", "repeated", "zero")))
    if kind in ("random", "zero"):
        poly = (draw(coeff.filter(bool)),
                *draw(st.lists(coeff, min_size=degree, max_size=degree)))
        if kind == "zero":
            poly = poly[:-1] + (0,)
    else:
        p, q = draw(st.integers(-7, 7)), draw(st.integers(1, 7))
        planted = 2 if kind == "repeated" and degree > 1 else 1
        poly = (draw(coeff.filter(bool)), *draw(st.lists(
            st.integers(-6, 6), min_size=degree - planted,
            max_size=degree - planted)))
        for _ in range(planted):
            poly = polys.multiply(poly, (q, -p))
    poly = polys.primitive(poly)
    assume(max(map(abs, poly)) <= 60)
    return poly


@given(_small_polys())
@settings(max_examples=500, deadline=None)
def test_irreducible_is_the_rational_root_theorem(poly):
    expected = len(poly) == 2 or not has_rational_root(poly)
    assert polys._irreducible(polys.sturm_chain(poly)) == expected


def test_isolating_intervals():
    chain = polys.sturm_chain((1, 0, -2))
    intervals = polys._isolate(chain)
    assert len(intervals) == 2
    for lo, hi in intervals:
        assert lo < hi
        assert polys.count_roots(chain, lo, hi) == 1
    (lo, hi), (lo2, hi2) = intervals
    assert lo < -Fraction(14142, 10000) < hi
    assert lo2 < Fraction(14142, 10000) < hi2


@given(st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_isolating_intervals_random_cubics(degree, data):
    coeffs = [data.draw(st.integers(-5, 5)) for _ in range(degree)]
    poly = polys.trim((1, *coeffs))
    intervals = irreducible_roots(poly)
    assume(intervals is not None)
    chain = polys.sturm_chain(poly)
    for lo, hi in intervals:
        assert polys.count_roots(chain, lo, hi) == 1


def _fraction_isolate(coeffs):
    """_isolate by bisection on Fraction endpoints, the reference for the
    integer bisection: same start, same cell order."""
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
    # Random irreducible integer polynomials of degree 1 to 3: equal
    # interval lists, of Fractions.
    poly = (lead, *tail)
    got = irreducible_roots(poly)
    assume(got is not None)
    assert got == _fraction_isolate(poly)
    assert all(type(x) is Fraction for pair in got for x in pair)


BIG = 2**70  # past 2**64, so no coefficient fits a machine word


@st.composite
def planted_polys(draw):
    """(integer polynomial, its distinct rational roots, k or None) built
    from linear factors q*x - p, some repeated, times x**2 - k when k is
    drawn (k is never a square, so that factor has no rational root)."""
    roots = draw(st.lists(
        st.one_of(
            st.just(Fraction(0)),
            st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
        ),
        min_size=1, max_size=3,
    ))
    poly = (draw(st.integers(1, BIG)) * draw(st.sampled_from((1, -1))),)
    for r in roots:
        for _ in range(draw(st.integers(1, 2))):
            poly = polys.multiply(poly, (r.denominator, -r.numerator))
    k = draw(st.one_of(
        st.none(),
        st.integers(-6, 12).filter(lambda k: k < 0 or math.isqrt(k) ** 2 != k),
    ))
    if k is not None:
        poly = polys.multiply(poly, (1, 0, -k))
    return poly, sorted(set(roots)), k


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
    poly, roots, k = planted
    chain = polys.sturm_chain(poly)
    if len(chain[-1]) == 1:  # square-free, as _has_rational_root asks
        assert polys._has_rational_root(chain)
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
