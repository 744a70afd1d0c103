"""Exact polynomial utilities: Sturm chains, root counts, the
irreducibility test and root isolation."""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bcf import polys
from _corpus import former_primitive, has_rational_root, irreducible_roots


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
    assert polys.multiply((1, 1), (1, -1)) == (1, 0, -1)
    assert polys.multiply((), (1, 2)) == ()
    assert polys.negate((1, -2)) == (-1, 2)
    assert polys.derivative((1, -1, -1, -1)) == (3, -2, -1)
    assert polys.derivative((5,)) == ()


def test_content_primitive_clear():
    assert math.gcd(4, -6, 2) == 2
    assert polys.primitive((4, -6, 2)) == (2, -3, 1)
    assert polys.primitive((-4, -6)) == (2, 3)
    assert math.gcd(-4, -6) == 2


@given(coeffs=st.lists(st.integers(-50, 50), max_size=6),
       factor=st.integers(-12, 12))
@settings(max_examples=400, deadline=None)
def test_primitive_matches_its_former_body(coeffs, factor):
    # Scaled by factor: content above 1, either sign of the lead, and the
    # all-zero polynomial (factor 0 or all-zero coeffs) of any length.
    scaled = tuple(factor * c for c in coeffs)
    assert polys.primitive(scaled) == former_primitive(scaled)


def test_primitive_edge_cases_match_its_former_body():
    for coeffs in ((), (0,), (0, 0, 0), (-4, -6), (0, -3, 6, -9), (5,), (-1,)):
        assert polys.primitive(coeffs) == former_primitive(coeffs), coeffs


def test_sturm_count_roots():
    chain = polys.sturm_chain((1, -1, -1, -1))
    assert polys.count_roots(chain, Fraction(1), Fraction(2)) == 1
    assert polys.count_roots(chain, Fraction(-10), Fraction(0)) == 0
    assert polys.count_roots(chain, Fraction(-10), Fraction(10)) == 1
    # x^2 - 2 has two real roots
    chain2 = polys.sturm_chain((1, 0, -2))
    assert polys.count_roots(chain2, Fraction(-2), Fraction(2)) == 2


def _isolate_finds_root(coeffs):
    return polys._isolate(polys.sturm_chain(coeffs)) is None


def test_rational_roots():
    assert _isolate_finds_root((2, -1, -1))       # (2x + 1)(x - 1)
    assert not _isolate_finds_root((1, -1, -1, -1))
    assert _isolate_finds_root((6, -5, 1))        # (3x - 1)(2x - 1)
    assert not _isolate_finds_root((1, 0, 1))
    assert _isolate_finds_root((1, -1, 0))
    # -2x^3 + x^2 + x = -x(2x + 1)(x - 1): a zero root and a negative lead
    assert _isolate_finds_root((-2, 1, 1, 0))
    assert _isolate_finds_root((4, 4, 1))         # (2x + 1)^2: a repeated root


def _irreducible(coeffs):
    """NumberField's test: of degree 2 or 3, irreducible iff no rational root."""
    return polys._isolate(polys.sturm_chain(polys.primitive(coeffs))) is not None


def test_is_irreducible():
    assert _irreducible((1, -1, -1, -1))
    assert _irreducible((1, 0, -2))          # x^2 - 2
    assert not _irreducible((1, 0, -1))      # (x-1)(x+1)
    assert not _irreducible((1, 0, 0, -1))   # x^3 - 1
    assert not _irreducible((4, 4, 1))       # (2x + 1)^2: a repeated root
    # (x - 1)^2 (x + 1): the chain ends in x - 1, so no root search runs
    assert polys.sturm_chain((1, -1, -1, 1))[-1] == (1, -1)
    assert not _irreducible((1, -1, -1, 1))


@st.composite
def _small_polys(draw):
    """Primitive integer polynomials of degree 2 or 3 with coefficients in
    -60..60: random ones, ones with a planted rational root p/q, planted
    once or twice, and ones with a zero constant term."""
    degree = draw(st.integers(2, 3))
    coeff = st.integers(-60, 60)
    kind = draw(st.sampled_from(("random", "planted", "repeated", "zero")))
    if kind in ("random", "zero"):
        poly = (draw(coeff.filter(bool)),
                *draw(st.lists(coeff, min_size=degree, max_size=degree)))
        if kind == "zero":
            poly = poly[:-1] + (0,)
    else:
        p, q = draw(st.integers(-7, 7)), draw(st.integers(1, 7))
        planted = 2 if kind == "repeated" else 1
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
    assert _irreducible(poly) == (not has_rational_root(poly))


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


@given(st.integers(2, 3), st.data())
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
    st.lists(st.integers(-40, 40), min_size=2, max_size=3),
    st.integers(-12, 12).filter(bool),
)
@settings(max_examples=300, deadline=None)
def test_integer_bisection_matches_fraction_bisection(tail, lead):
    # Random irreducible integer polynomials of degree 2 or 3: equal
    # interval lists, of Fractions.
    poly = (lead, *tail)
    got = irreducible_roots(poly)
    assume(got is not None)
    assert got == _fraction_isolate(poly)
    assert all(type(x) is Fraction for pair in got for x in pair)


# The one-pass screen: _isolate finds every rational root on its way to the
# isolating intervals.  Factor sizes per coefficient size, so that products
# of three factors stay near the coefficient size.
_FACTOR_SIZE = {60: 7, 10**6: 100, 10**30: 10**10}


@st.composite
def _screen_polys(draw):
    """(f, planted): f primitive of degree 2 or 3 with coefficients up to
    about 60, 10**6 or 10**30, and planted whether a rational root was
    planted in it.  A planted root is 0 or +-1/2 (f then has an even lead),
    dyadic points that a bisection midpoint can meet; p/q with q odd and
    above 1, most often met inside a one-root cell; or either kind twice, a
    repeated root.  Unplanted f are random."""
    size = draw(st.sampled_from(sorted(_FACTOR_SIZE)))
    degree = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(("random", "dyadic", "grid", "repeated")))
    if kind == "random":
        coeff = st.integers(-size, size)
        return (polys.primitive((draw(coeff.filter(bool)), *draw(st.lists(
            coeff, min_size=degree, max_size=degree)))), False)
    factor = st.integers(-_FACTOR_SIZE[size], _FACTOR_SIZE[size])
    if kind == "grid" or kind == "repeated" and draw(st.booleans()):
        q = 2 * draw(st.integers(1, _FACTOR_SIZE[size])) + 1
        root = Fraction(draw(factor), q)
        assume(root.denominator > 1)
    else:
        root = draw(st.sampled_from((Fraction(0), Fraction(1, 2),
                                     Fraction(-1, 2))))
    planted = 2 if kind == "repeated" else 1
    poly = (draw(factor.filter(bool)), *draw(st.lists(
        factor, min_size=degree - planted, max_size=degree - planted)))
    for _ in range(planted):
        poly = polys.multiply(poly, (root.denominator, -root.numerator))
    return polys.primitive(poly), True


def _root_free_mod_small_prime(poly):
    """Whether poly has no root mod some prime l <= 13 that does not divide
    its lead: then it has no rational root, since a root p/q in lowest
    terms has q dividing the lead, so p/q mod l would be one."""
    return any(poly[0] % l and all(polys.evaluate(poly, x) % l
                                   for x in range(l))
               for l in (2, 3, 5, 7, 11, 13))


@given(_screen_polys())
@settings(max_examples=400, deadline=None)
def test_isolate_finds_rational_roots_in_one_pass(drawn):
    # None exactly when f has a rational root, and otherwise the intervals
    # of the Fraction bisection.  Whether an unplanted f has a rational
    # root is the rational-root theorem's answer for small coefficients;
    # for large ones, only a root-free residue field proves that it has
    # none, and f with neither answer are skipped.
    poly, planted = drawn
    if planted:
        reducible = True
    elif max(map(abs, poly)) <= 10**6:
        reducible = has_rational_root(poly)
    else:
        assume(_root_free_mod_small_prime(poly))
        reducible = False
    got = polys._isolate(polys.sturm_chain(poly))
    if reducible:
        assert got is None
    else:
        assert got == _fraction_isolate(poly)


def test_isolate_cost_is_linear_in_the_bound_bits(monkeypatch):
    # theta**3 = d**3 + 1 has one real root, which the first cell already
    # isolates; that cell's grid points are then bisected on f's own sign,
    # one evaluation per bit of the Cauchy bound, beside the 2 * 3 of the
    # chain at the cell's ends.
    calls = []
    sign_at = polys._sign_at
    monkeypatch.setattr(polys, "_sign_at", lambda *a: calls.append(a)
                        or sign_at(*a))
    for d in (10**10, 10**20, 10**30):
        poly = (1, 0, 0, -(d**3 + 1))
        chain = polys.sturm_chain(poly)
        del calls[:]
        intervals = polys._isolate(chain)
        bits = (1 + d**3 + 1).bit_length()
        assert bits + 6 <= len(calls) <= bits + 7, d
        assert intervals == _fraction_isolate(poly) and len(intervals) == 1


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
    if len(poly) > 2:  # _isolate takes degree 2 or more
        assert polys._isolate(chain) is None
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
