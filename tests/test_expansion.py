"""Digit expansion: stepping, rational fast path, periodicity, certified boxes."""

import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bcf import (
    AlgebraicNumber,
    NumberField,
    SequencePair,
    bcf_expand,
    bcf_expand_rational,
    rational_expansion_trace,
    recover_cubic_pure,
    validate,
)
from bcf import expansion, fields, polys
from bcf._kernels import rational_digits
from bcf.cli import _exact_str
from bcf.errors import (
    EmptyInterval,
    FieldMismatch,
    NonPositiveInput,
)

from _corpus import (irreducible_roots, public_step, random_cyclic_pair,
                     random_rational_pair)

ROOT = Path(__file__).resolve().parent.parent
TRIBONACCI = NumberField((1, -1, -1, -1), (1, 2))
MOORE = NumberField((1, -1, 0, -1), (1, 2))
PERIOD_TWO = NumberField((1, -1, -2, -1), (2, 3))


# -- rational oracles -----------------------------------------------------------


def test_expand_rational_oracles():
    pair = bcf_expand(Fraction(7, 4), Fraction(3, 2))
    assert pair.a == (1, 2)
    assert pair.b == (1, 1, 0)
    assert pair.terminal == 2

    pair = bcf_expand(Fraction(7, 5), Fraction(3, 2))
    assert pair.a == (1, 2)
    assert pair.b == (1, 0, 0)
    assert pair.terminal == Fraction(5, 4)

    pair = bcf_expand(Fraction(5, 2), Fraction(2))
    assert pair.a == ()
    assert pair.b == (2,)
    assert pair.terminal == Fraction(5, 2)

    pair = bcf_expand(Fraction(2), Fraction(3, 2))
    assert pair.a == (2,)
    assert pair.b == (1, 0)
    assert pair.terminal == 2


def test_integer_inputs_coerced():
    pair = bcf_expand(2, Fraction(3, 2))
    assert pair.terminated and pair.a == (2,)


def test_fast_path_matches_generic_on_oracles():
    for alpha, beta in [
        (Fraction(7, 4), Fraction(3, 2)),
        (Fraction(7, 5), Fraction(3, 2)),
        (Fraction(5, 2), Fraction(2)),
    ]:
        assert bcf_expand_rational(alpha, beta) == bcf_expand(alpha, beta)


def test_rational_trace_strictly_decreasing():
    trace = rational_expansion_trace(Fraction(7, 4), Fraction(3, 2))
    ws = [w for (_, _, w) in trace]
    assert ws == sorted(ws, reverse=True)
    assert len(set(ws)) == len(ws)
    assert all(w >= 1 for w in ws)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_fast_path_matches_generic_random(data):
    num1 = data.draw(st.integers(1, 400))
    den1 = data.draw(st.integers(1, 100))
    num2 = data.draw(st.integers(1, 400))
    den2 = data.draw(st.integers(1, 100))
    alpha, beta = Fraction(num1, den1), Fraction(num2, den2)
    fast = bcf_expand_rational(alpha, beta)
    generic = bcf_expand(alpha, beta, max_terms=10_000)
    assert fast == generic
    assert fast.terminated


def test_every_expansion_validates():
    rng = random.Random(404)
    for _ in range(100):
        alpha, beta = random_rational_pair(rng, max_den=10**4)
        pair = bcf_expand_rational(alpha, beta)
        assert validate(pair).valid


# -- field expansions and periodicity --------------------------------------------


def test_tribonacci_all_ones():
    t = TRIBONACCI.generator()
    pair = bcf_expand(t, 1 + 1 / t, max_terms=32)
    assert pair.a == (1,) * 32
    assert pair.b == (1,) * 32
    assert pair.periodicity == (0, 1)
    assert not pair.terminated


def test_moore_ones_zeros():
    m = MOORE.generator()
    pair = bcf_expand(m, 1 / m, max_terms=16)
    assert pair.a == (1,) * 16
    assert pair.b == (0,) * 16
    assert pair.periodicity == (0, 1)


def test_period_two_preperiod_and_period():
    r = PERIOD_TWO.generator()
    pair = bcf_expand(r, 2 + 1 / r, max_terms=20)
    assert pair.a == (2, 2, 3) + (2, 3) * 8 + (2,)
    assert pair.b == (2,) + (0,) * 19
    assert pair.periodicity == (1, 2)


def test_field_terminating_case():
    t = TRIBONACCI.generator()
    pair = bcf_expand(t, TRIBONACCI.element(2))
    assert pair.a == ()
    assert pair.b == (2,)
    assert pair.terminal == t


def test_rational_embeds_into_field():
    t = TRIBONACCI.generator()
    pair = bcf_expand(Fraction(3, 2), 1 + 1 / t, max_terms=8)
    assert len(pair.a) <= 8


def test_mixed_fields_rejected():
    t = TRIBONACCI.generator()
    m = MOORE.generator()
    with pytest.raises(FieldMismatch):
        bcf_expand(t, m)


def _three_branch_unify(alpha, beta):
    """The rule _unify_pair had before it embedded through
    AlgebraicNumber._coerce, kept as its reference."""
    alpha = fields._as_exact(alpha, "alpha")
    beta = fields._as_exact(beta, "beta")
    alpha_algebraic = isinstance(alpha, AlgebraicNumber)
    beta_algebraic = isinstance(beta, AlgebraicNumber)
    if alpha_algebraic and beta_algebraic:
        if alpha.field != beta.field:
            raise FieldMismatch("alpha and beta must live in the same field")
    elif alpha_algebraic:
        beta = alpha.field.element(beta)
    elif beta_algebraic:
        alpha = beta.field.element(alpha)
    return alpha, beta


# TRIBONACCI_AGAIN is another object, equal to TRIBONACCI.
TRIBONACCI_AGAIN = NumberField((1, -1, -1, -1), (Fraction(3, 2), 2))
_RATIONAL = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)
_EXACT = st.one_of(_RATIONAL, st.builds(
    AlgebraicNumber,
    st.sampled_from([TRIBONACCI, TRIBONACCI_AGAIN, MOORE]),
    st.lists(_RATIONAL, min_size=1, max_size=3),
))


@given(alpha=_EXACT, beta=_EXACT)
@example(alpha=TRIBONACCI.generator(), beta=TRIBONACCI_AGAIN.generator())
@example(alpha=MOORE.generator(), beta=TRIBONACCI.element(2))
@example(alpha=Fraction(1, 3), beta=TRIBONACCI_AGAIN.generator())
@settings(max_examples=200, deadline=None)
def test_unify_pair_matches_the_three_branch_rule(alpha, beta):
    try:
        want = _three_branch_unify(alpha, beta)
    except FieldMismatch:
        with pytest.raises(FieldMismatch, match="same field"):
            expansion._unify_pair(alpha, beta)
        return
    got = expansion._unify_pair(alpha, beta)
    for x, y in zip(got, want):
        assert type(x) is type(y) and x == y
        if isinstance(y, AlgebraicNumber):
            assert x.field is y.field and x._raw == y._raw


def test_nonpositive_inputs_rejected():
    with pytest.raises(NonPositiveInput):
        bcf_expand(Fraction(0), Fraction(1))
    with pytest.raises(NonPositiveInput):
        bcf_expand(Fraction(1), Fraction(-2))
    with pytest.raises(NonPositiveInput):
        bcf_expand_rational(Fraction(-1, 2), Fraction(1))
    # A field pair's positivity is read off both floors of step 0, also
    # when beta is integral there and the run terminates: then the exact
    # test X == aZ decides an integral alpha's floor.
    t = TRIBONACCI.generator()
    zero, one, two = (TRIBONACCI.element(k) for k in (0, 1, 2))
    for alpha, beta in [
        (-t, t),  # alpha < 0
        (t - 2, t),  # alpha in (-1, 0)
        (zero, t),  # alpha = 0
        (t, zero),  # beta = 0
        (t - 1, t - t),  # beta = 0, from arithmetic
        (t, -two),  # beta a negative integer
        (t, 1 - t),  # beta < 0, irrational
        (-t, two),  # beta integral at step 0, alpha < 0
        (t - 2, one),  # beta integral at step 0, alpha in (-1, 0)
        (zero, two),  # beta integral at step 0, alpha = 0
    ]:
        with pytest.raises(NonPositiveInput) as info:
            bcf_expand(alpha, beta, max_terms=8)
        assert str(info.value) == "expansion requires alpha > 0 and beta > 0"
    # Positive pairs next to those: a zero floor, or beta integral at step 0.
    for alpha, beta in [
        (t - 1, t),  # alpha irrational in (0, 1)
        (t, t - 1),  # beta irrational in (0, 1)
        (t - 1, t * t - 3),  # both in (0, 1)
        (t, two),  # beta a positive integer, alpha > 0
        (t - 1, one),  # beta a positive integer, alpha in (0, 1)
        (one, two),  # both positive integers: terminates at step 0
    ]:
        _assert_matches_reference(alpha, beta, 40)


def test_max_terms_validation():
    with pytest.raises(ValueError):
        bcf_expand(Fraction(3, 2), Fraction(3, 2), max_terms=0)


# A step count takes approximate's rule; 1.5 and nan once gave digits.  The
# case bcf_expand_box is bcf_expand on the box [alpha, alpha + 1] x {beta}.
_ON_A_BOX = pytest.param(
    lambda alpha, beta, count: bcf_expand((alpha, alpha + 1), beta, count),
    id="bcf_expand_box")


@pytest.mark.parametrize("expand", [bcf_expand, bcf_expand_rational, _ON_A_BOX])
@pytest.mark.parametrize("count", [1.5, math.nan, True, "3", 0])
def test_step_count_is_an_int_of_at_least_one(expand, count):
    error = ValueError if count == 0 else TypeError
    message = ("max_terms must be at least 1" if count == 0
               else f"max_terms must be an int, got {count!r}")
    with pytest.raises(error) as info:
        expand(Fraction(3, 2), Fraction(4, 3), count)
    assert type(info.value) is error and str(info.value) == message


def test_step_count_none_is_documented_where_it_is_taken():
    with pytest.raises(TypeError, match="max_terms must be an int, got None"):
        bcf_expand(Fraction(3, 2), Fraction(4, 3), None)
    assert bcf_expand_rational(Fraction(3, 2), Fraction(4, 3), None).terminated


def test_truncation_keeps_open_shape():
    t = TRIBONACCI.generator()
    pair = bcf_expand(t, 1 + 1 / t, max_terms=5)
    assert len(pair.a) == 5 and len(pair.b) == 5
    assert not pair.terminated


def test_expansion_types_are_exact():
    pair = bcf_expand(Fraction(7, 4), Fraction(3, 2))
    assert all(isinstance(d, int) for d in pair.a + pair.b)


# -- pinned cubic digits -----------------------------------------------------------

# x^3 - 2x^2 - 2x - 2, beta = theta^2 + theta: no period within 128 terms.
PINNED_A = (
    "2,2,13,1,1,16,4,5,1,2,5,1,1,39,1,1,9,8,1,1,1,665,1,7,2,15,2,2,6,1,3,19,1,1,"
    "2,1,3,1,1,2,2,2,1,1,4,2,35,4,2,4,1,2,3,1,5,4,1,56,2,1,2,1,4,1,2,2,1,2,4,3,"
    "3,1,1,12,2,1,2,5,2,2,1,1,2,1,1,4,1,2,9,16,1,3,1,2,2,4,9,1,6,2,1,3,1,4,2,1,"
    "3,9,7,1,1,2,1,61,14,23,500,1,16,1,2,6,3,1,6,1,5,1"
)
PINNED_B = (
    "11,2,3,1,1,3,3,3,0,0,1,0,0,23,0,1,1,3,0,0,1,454,1,4,2,8,1,0,0,0,0,4,0,1,1,"
    "0,0,0,0,1,0,1,0,0,4,1,23,1,0,0,0,0,0,1,1,1,0,2,1,0,0,0,1,1,1,0,0,1,2,0,2,"
    "0,0,11,1,1,2,1,1,0,0,0,0,0,0,1,0,0,5,7,0,0,1,2,1,0,0,0,5,0,1,1,0,4,1,0,2,"
    "8,3,0,0,0,0,19,0,6,352,0,6,0,0,2,1,1,6,1,2,0"
)

# (min_poly, root interval, beta as a function of theta, terms, first digits
# of a, sha256 of "a;b" written as comma-separated digits).  The last field
# is non-monic.
PINNED_DIGESTS = (
    ((1, -2, -2, 2), (0, Fraction(3, 2)), lambda t: t * t + t, 128,
     (0, 6, 4, 1, 4, 1, 1, 4),
     "5920f8edfa8824060042163774ea58f68304fb162700f871411ae1060181ed1c"),
    ((1, 2, 2, -1), (-3, 3), lambda t: t * t, 64,
     (0, 8, 1, 53, 1, 2, 2, 3),
     "e210bbe3af054b661182568f65de76ea359dadcc336f72f34e22bc6bc1f5cc40"),
    ((3, 0, -2, -5), (1, 2), lambda t: t * t + 1, 64,
     (1, 1, 2, 3, 5, 1, 7, 2),
     "78518980f75885703cd046f31618e9dd4d1a8e5d01a679fbc4b651bb922698dc"),
)


def _csv(digits):
    return ",".join(str(d) for d in digits)


def test_pinned_cubic_digits():
    t = NumberField((1, -2, -2, -2), (-3, 3)).generator()
    pair = bcf_expand(t, t * t + t, max_terms=128)
    assert (_csv(pair.a), _csv(pair.b)) == (PINNED_A, PINNED_B)
    assert pair.periodicity is None and not pair.terminated


@pytest.mark.parametrize("case", PINNED_DIGESTS, ids=lambda c: str(c[0]))
def test_pinned_cubic_digests(case):
    poly, interval, beta, terms, head, digest = case
    t = NumberField(poly, interval).generator()
    pair = bcf_expand(t, beta(t), max_terms=terms)
    assert len(pair.a) == len(pair.b) == terms
    assert pair.a[: len(head)] == head
    text = f"{_csv(pair.a)};{_csv(pair.b)}"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_adjugate_once_per_renormalisation(monkeypatch):
    # The linear step takes no inverse; only the reduction to the primitive
    # triple, once per expansion._RENORMALISE steps, takes an adjugate.
    calls = []
    adjugate = fields._adjugate_row

    def counted(field, n):
        calls.append(n)
        return adjugate(field, n)

    for terms in (40, 256):
        t = NumberField((1, -2, -2, -2), (-3, 3)).generator()
        beta = t * t + t
        calls.clear()
        monkeypatch.setattr(fields, "_adjugate_row", counted)
        pair = bcf_expand(t, beta, max_terms=terms)
        monkeypatch.undo()
        assert len(pair.a) == terms
        assert len(calls) <= -(-terms // 32) + 1


# -- the raw-state loop against the public operators -----------------------------


def _reference_expand(alpha, beta, terms):
    """bcf_expand through public operators only: public_step and ==."""
    a, b, states = [], [], []
    for i in range(terms):
        for k, state in enumerate(states):
            if state[0] == alpha and state[1] == beta:
                m = i - k
                for j in range(i, terms):
                    a.append(a[k + (j - k) % m])
                    b.append(b[k + (j - k) % m])
                return a, b, None, (k, m)
        states.append((alpha, beta))
        a_i, b_i, after = public_step(alpha, beta)
        b.append(b_i)
        if after is None:
            return a, b, alpha, None
        a.append(a_i)
        assert after[0] * (beta - b_i) == 1
        alpha, beta = after
    return a, b, None, None


# beta as a function of theta: the scan's default family and the tribonacci
# form, among which periodic expansions are common.
FAMILY = (lambda t: t * t, lambda t: t * t + t, lambda t: t * t - t,
          lambda t: t + 1, lambda t: 1 + 1 / t)


def _positive(x):
    return -x if x < 0 else x if x > 0 else x + 1


@st.composite
def field_pairs(draw, max_terms=60):
    """A positive pair in a random field of degree 2 or 3 whose minimal
    polynomial has leading coefficient 1-5, and a number of terms up to
    max_terms."""
    d = draw(st.sampled_from((2, 3, 3)))
    poly = (draw(st.integers(1, 5)),) + tuple(
        draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d))
    )
    roots = irreducible_roots(poly)
    assume(roots)
    field = NumberField(poly, draw(st.sampled_from(roots)))
    theta = field.generator()
    terms = draw(st.integers(1, max_terms))
    if draw(st.booleans()):
        assume(theta != 0)
        return _positive(theta), _positive(draw(st.sampled_from(FAMILY))(theta)), terms

    def element():
        den = draw(st.integers(1, 4))
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))
        return _positive(AlgebraicNumber(field, [Fraction(c, den) for c in coeffs]))

    return element(), element(), terms


@given(field_pairs())
@settings(max_examples=200, deadline=None)
def test_raw_loop_matches_public_operators(case):
    alpha, beta, terms = case
    a, b, terminal, periodicity = _reference_expand(alpha, beta, terms)
    pair = bcf_expand(alpha, beta, max_terms=terms)
    assert (pair.a, pair.b) == (tuple(a), tuple(b))
    assert pair.periodicity == periodicity
    assert pair.terminal == terminal
    assert (pair.terminal is None) == (terminal is None)


def _normalised_step_loop(alpha, beta, terms):
    """bcf_expand's field loop before the linear step, kept as its reference:
    the primitive triple (u, v, w) with an integer w, normalised after every
    step (one adjugate, one convolution, one gcd), each state keyed in a
    `seen` dict.  Returns (a, b, terminal, periodicity)."""
    field = alpha.field
    lead_power = field._lead_power
    (p, dp), (q, dq) = alpha._raw, beta._raw
    w = math.lcm(dp, dq)
    state = tuple(c * (w // dp) for c in p), tuple(c * (w // dq) for c in q), w
    seen, a, b = {}, [], []
    for i in range(terms):
        k = seen.setdefault(state, i)
        if k < i:
            for j in range(i, terms):
                a.append(a[k + (j - k) % (i - k)])
                b.append(b[k + (j - k) % (i - k)])
            return a, b, None, (k, i - k)
        u, v, w = state
        b_i, a_i = fields._floor(field, (v, w)), fields._floor(field, (u, w))
        b.append(b_i)
        if not any(v[1:]) and v[0] % w == 0:
            return a, b, fields._element(field, u, w), None
        a.append(a_i)
        row, det = fields._adjugate_row(field, (v[0] - b_i * w,) + v[1:])
        r = fields._convolve(field, (u[0] - a_i * w,) + u[1:], row)
        num, den = fields._normalised(
            tuple(w * lead_power * j for j in row) + r, det * lead_power
        )
        state = num[:3], num[3:], den
    return a, b, None, None


def _assert_matches_reference(alpha, beta, terms):
    a, b, terminal, periodicity = _normalised_step_loop(alpha, beta, terms)
    pair = bcf_expand(alpha, beta, max_terms=terms)
    assert (pair.a, pair.b) == (tuple(a), tuple(b))
    assert pair.periodicity == periodicity
    assert pair.terminal == terminal
    assert (pair.terminal is None) == (terminal is None)
    return pair


@given(field_pairs(max_terms=300))
@settings(max_examples=150, deadline=None)
def test_linear_loop_matches_normalised_reference(case):
    # Up to 300 terms: several reductions to the primitive triple.
    _assert_matches_reference(*case)


@pytest.mark.parametrize("field, beta, first", [
    (TRIBONACCI, lambda t: 1 + 1 / t, 1),  # periodicity (0, 1)
    (PERIOD_TWO, lambda r: 2 + 1 / r, 3),  # periodicity (1, 2)
], ids=["tribonacci", "preperiod-one"])
def test_recurrence_at_the_last_index(field, beta, first):
    # The first recurrence is at index `first`: reported when that is the
    # last index, max_terms - 1, and not when it is max_terms.
    t = field.generator()
    assert _assert_matches_reference(t, beta(t), first + 1).periodicity is not None
    assert _assert_matches_reference(t, beta(t), first).periodicity is None


def test_termination_past_max_terms_is_not_reported():
    # beta turns integral at index 2 (test_field_terminal_after_steps); with
    # max_terms 1 or 2 the run ends open before it.
    t = TRIBONACCI.generator()
    z = (t * t + 1) / 3
    a1, b1 = 2 + 1 / z, 1 + 1 / z
    alpha, beta = 3 + b1 / a1, 1 + 1 / a1
    for terms in (1, 2):
        pair = _assert_matches_reference(alpha, beta, terms)
        assert pair.terminal is None and len(pair.b) == terms
    assert _assert_matches_reference(alpha, beta, 3).terminal == z


def test_integral_alpha_partway(monkeypatch):
    # Built backwards from (alpha_2, beta_2) = (3, theta), theta the
    # tribonacci root, with digits (1, 0) and (2, 1): alpha_2 = X/Z is the
    # integer 3 with Z irrational, so the bounds on X/Z straddle 3 at any
    # precision, and only the exact test X == 3Z decides the floor; then
    # beta_3 = 0 ends the run.  Without that test the loop would refine
    # forever: on a fresh field the run asks for more precision once, to
    # its start precision.
    refinements = []
    refine_more = expansion._refine_more

    def bounded(field, least=0):
        refinements.append(field)
        assert len(refinements) <= 2, "a floor the exact test decides was refined"
        refine_more(field, least)

    monkeypatch.setattr(expansion, "_refine_more", bounded)
    t = NumberField((1, -1, -1, -1), (1, 2)).generator()
    alpha_1 = 2 + t / 3
    alpha, beta = 1 + Fraction(4, 3) / alpha_1, 1 / alpha_1
    bcf_expand(alpha, beta, max_terms=12)
    assert len(refinements) == 1
    pair = _assert_matches_reference(alpha, beta, 12)
    assert (pair.a, pair.b, pair.terminal) == ((1, 2, 3), (0, 1, 1, 0), 1 / (t - 1))
    # A rational element's bound is exact: (5/4, 3/2) in Q(sqrt 2) has
    # alpha_1 = 2 and ends with beta_2 = 0.
    field = NumberField((1, 0, -2), (1, 2))
    alpha, beta = field.element(Fraction(5, 4)), field.element(Fraction(3, 2))
    pair = _assert_matches_reference(alpha, beta, 8)
    assert (pair.a, pair.b, pair.terminal) == ((1, 2), (1, 0, 0), 2)
    assert pair == bcf_expand_rational(Fraction(5, 4), Fraction(3, 2))


def _point_tests(patch):
    """(t, verdict) of each exact point test _same_point(field, s, t), t the
    current state, through a spy bound with patch(owner, name, value)."""
    tests = []
    same_point = expansion._same_point

    def spy(field, s, t):
        tests.append((t, same_point(field, s, t)))
        return tests[-1][1]

    patch(expansion, "_same_point", spy)
    return tests


def test_false_window_repeat_is_rejected(monkeypatch):
    # (theta, theta^2 + theta), theta^3 + 2 theta = 1, finds no period.  At
    # _CELL_BITS = 0 a state's cell is its digit pair, a window of one pair,
    # which repeats by chance thousands of times within 200 terms: each exact
    # check, on the earlier state rebuilt from the current one, rejects it,
    # and the digits are those of the default cells.  Those make no check
    # within 2270 terms.  The digests are sha256 of "a;b".
    t = NumberField((1, 0, 2, -1), (-3, 3)).generator()
    tests = _point_tests(monkeypatch.setattr)
    monkeypatch.setattr(expansion, "_CELL_BITS", 0)
    pair = bcf_expand(t, t * t + t, max_terms=200)
    assert tests and not any(verdict for _, verdict in tests)
    assert pair.periodicity is None and not pair.terminated
    text = f"{_csv(pair.a)};{_csv(pair.b)}"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b81bc235be0439c4eee5e97648ed30ff756aa56080a4b53115daef304378ec21")
    monkeypatch.undo()
    tests = _point_tests(monkeypatch.setattr)
    assert bcf_expand(t, t * t + t, max_terms=200) == pair
    pair = bcf_expand(t, t * t + t, max_terms=2270)
    assert tests == []
    assert pair.periodicity is None and not pair.terminated
    text = f"{_csv(pair.a)};{_csv(pair.b)}"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d1cf560e9dd9a24d4e9b8b3fc3b2615e08655c78b2c604bb03c2e86b1a843ed7")


def _at_cell_bits(k, alpha, beta, terms):
    """bcf_expand with expansion._CELL_BITS set to k for the one call."""
    saved, expansion._CELL_BITS = expansion._CELL_BITS, k
    try:
        return bcf_expand(alpha, beta, max_terms=terms)
    finally:
        expansion._CELL_BITS = saved


def _assert_blind_to_cell_bits(alpha, beta, terms):
    # Cells only choose which earlier states get the exact test, so the
    # digits, the period and the terminal are the same at any size.
    pair = bcf_expand(alpha, beta, max_terms=terms)
    for k in (0, 1, 16, 40):
        assert _at_cell_bits(k, alpha, beta, terms) == pair


@given(seed=st.integers(0, 2**32), terms=st.integers(1, 30))
@settings(max_examples=100, deadline=None)
def test_cells_are_blind_to_their_size_on_the_criterion_9_corpus(seed, terms):
    # Acceptance criterion 9's purely periodic pairs, recovered as (alpha, beta).
    result = recover_cubic_pure(random_cyclic_pair(random.Random(seed),
                                                   max_period=4, max_digit=3))
    _assert_blind_to_cell_bits(result.alpha, result.beta, terms)


@given(field_pairs(max_terms=100))
@settings(max_examples=100, deadline=None)
def test_cells_are_blind_to_their_size_on_field_pairs(case):
    _assert_blind_to_cell_bits(*case)


def _period_eighteen():
    # A pure period of 18 digits that repeats its first 9 digits at 9.
    a = (2,) * 8 + (3,) + (2,) * 8 + (4,)
    b = (1,) * 8 + (0,) + (1,) * 8 + (0,)
    result = recover_cubic_pure((a, b))
    return result.alpha, result.beta


def _period_two():
    r = PERIOD_TWO.generator()
    return r, 2 + 1 / r


@pytest.mark.parametrize("pair, periodicity", [
    (_period_two, (1, 2)), (_period_eighteen, (0, 18)),
], ids=["preperiod-one", "period-eighteen"])
def test_period_is_confirmed_at_the_recurrence(monkeypatch, pair, periodicity):
    # The last floor decision of a periodic run is at index j + m, the state
    # that recurs: its cell finds state j, and the exact test that confirms
    # the period is made on state j + m, with the budget far past it.
    alpha, beta = pair()
    tests = _point_tests(monkeypatch.setattr)
    found = bcf_expand(alpha, beta, max_terms=40)
    last, confirmed = tests[-1]
    assert found.periodicity == periodicity and confirmed
    state = alpha, beta
    for _ in range(sum(periodicity)):
        state = public_step(*state)[2]
    (p, dp), (q, dq) = (x._raw for x in state)
    recurring = tuple(c * dq for c in p), tuple(c * dp for c in q), (dp * dq, 0, 0)
    monkeypatch.undo()
    assert expansion._same_point(alpha.field, last, recurring)


_DEEP_RUN = (
    "import hashlib\n"
    "from bcf import NumberField, bcf_expand\n"
    "def peak():\n"
    "    with open('/proc/self/status') as status:\n"
    "        return next(int(line.split()[1]) for line in status\n"
    "                    if line.startswith('VmHWM:'))\n"
    "t = NumberField((1, -2, -2, -2), (-3, 3)).generator()\n"
    "beta = t * t + t\n"
    "before = peak()\n"
    "pair = bcf_expand(t, beta, max_terms=16_000)\n"
    "growth = peak() - before\n"
    "text = ','.join(map(str, pair.a)) + ';' + ','.join(map(str, pair.b))\n"
    "print(growth, pair.periodicity, hashlib.sha256(text.encode()).hexdigest())\n"
)


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc")
def test_deep_expansion_memory_follows_the_current_state():
    # A cell keeps only state indices, so a run holds one state, whose
    # height grows linearly: 16,000 steps of the pinned cubic raise the peak
    # resident set by a few MiB.  A stored state per step would grow it
    # quadratically, by about 54 MiB here.  The peak is VmHWM (KiB) of a
    # fresh interpreter: ru_maxrss would also count the peak of the process
    # that started it, which Linux carries across fork and exec.
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", _DEEP_RUN], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    growth, periodicity, digest = proc.stdout.split()
    assert int(growth) < 20 * 1024
    assert periodicity == "None"
    assert digest == (
        "f97a11ead777d903978584efb9a3da38f5689cb489f3c6a2a9c92e3d90f71254")


def _step_through(alpha, beta, terms):
    """(a, b, terminal) from iterating public_step up to terms times."""
    a, b = [], []
    for _ in range(terms):
        a_i, b_i, after = public_step(alpha, beta)
        b.append(b_i)
        if after is None:
            return tuple(a), tuple(b), alpha
        a.append(a_i)
        alpha, beta = after
    return tuple(a), tuple(b), None


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_public_step_on_rationals_reproduces_fast_path(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    alpha, beta = random_rational_pair(rng, max_den=10**6)
    pair = bcf_expand_rational(alpha, beta)
    a, b, terminal = _step_through(alpha, beta, len(pair.b))
    assert (a, b) == (pair.a, pair.b)
    assert type(terminal) is Fraction and terminal == pair.terminal


_SQRT_TWO = NumberField((1, 0, -2), (1, 2))  # a rational has radius 0 here


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_rational_pair_matches_the_field_loop_in_q(data):
    # bcf_expand runs a rational pair on the integer kernel; the field loop
    # on the same pair in Q(sqrt 2) and the public step agree.
    parts = st.integers(1, 10**30)
    alpha, beta = (Fraction(data.draw(parts), data.draw(parts)) for _ in range(2))
    n = len(bcf_expand_rational(alpha, beta).b)
    terms = data.draw(st.integers(1, n + 1))
    pair = bcf_expand(alpha, beta, max_terms=terms)
    embedded = bcf_expand(
        _SQRT_TWO.element(alpha), _SQRT_TWO.element(beta), max_terms=terms
    )
    assert (embedded.a, embedded.b) == (pair.a, pair.b)
    assert embedded.terminal == pair.terminal
    assert _step_through(alpha, beta, terms) == (pair.a, pair.b, pair.terminal)
    assert bcf_expand_rational(alpha, beta, max_terms=terms) == pair
    assert pair.terminated == (terms >= n)
    if pair.terminated:
        assert type(pair.terminal) is Fraction


def test_public_step_on_field_pair_reproduces_terminal():
    # The pair of test_field_terminal_after_steps: beta turns integral in
    # the field after two steps, and public_step says so on an element.
    t = NumberField((1, -1, -1, -1), (1, 2)).generator()
    z = (t * t + 1) / 3
    a1, b1 = 2 + 1 / z, 1 + 1 / z
    alpha, beta = 3 + b1 / a1, 1 + 1 / a1
    pair = bcf_expand(alpha, beta)
    a, b, terminal = _step_through(alpha, beta, 64)
    assert (a, b) == (pair.a, pair.b) == ((3, 2), (1, 1, 1))
    assert isinstance(terminal, AlgebraicNumber) and terminal == pair.terminal == z


# -- recurrence detection on raw states ---------------------------------------------


@pytest.mark.parametrize("poly, interval, beta, periodicity", [
    ((1, -1, -1, -1), (1, 2), lambda t: 1 + 1 / t, (0, 1)),  # tribonacci
    ((1, -1, -2, -1), (2, 3), lambda r: 2 + 1 / r, (1, 2)),
], ids=["tribonacci", "preperiod-one"])
def test_recurrence_pinned(poly, interval, beta, periodicity):
    t = NumberField(poly, interval).generator()
    pair = bcf_expand(t, beta(t), max_terms=30)
    assert pair.periodicity == periodicity
    assert len(pair.a) == len(pair.b) == 30


def test_field_terminal_after_steps():
    # Built backwards from alpha_2 = (theta^2 + 1)/3 and beta_2 = 1, with
    # digits that match the floors: beta turns integral after two steps.
    t = NumberField((1, -1, -1, -1), (1, 2)).generator()
    z = (t * t + 1) / 3
    a1, b1 = 2 + 1 / z, 1 + 1 / z
    pair = bcf_expand(3 + b1 / a1, 1 + 1 / a1)
    assert (pair.a, pair.b) == ((3, 2), (1, 1, 1))
    assert isinstance(pair.terminal, AlgebraicNumber) and pair.terminal == z
    assert _exact_str(pair.terminal) == "<AlgebraicNumber 1/3 + 1/3*theta^2>"


# -- the capped rational kernel ------------------------------------------------------


def test_rational_digits_cap():
    u, v, w = 713722173205991698923043325531, 381433033348889187677694374246, 10**30
    a, b, trace = rational_digits([(u, v, w)])
    assert len(b) == len(a) > 10
    assert trace[-1][1] % trace[-1][2] == 0  # stopped before an integral beta
    capped = rational_digits([(u, v, w)], 10)
    assert capped == (a[:10], b[:10], trace[:11])
    assert rational_digits([(u, v, w)], len(b)) == (a, b, trace)
    assert rational_digits([(u, v, w)], len(b) + 5) == (a, b, trace)


def _one_triple_loop(u, v, w, limit=None):
    """The one-triple rational kernel from before the lockstep engine, kept
    as its reference.  A terminated run's b-side carries the integral beta
    as one digit more than its a-side; a run stopped by ``limit`` has equal
    sides."""
    a = []
    b = []
    trace = [(u, v, w)]
    while len(b) != limit:
        bi = v // w
        r = v - bi * w
        if r == 0:
            b.append(bi)
            break
        ai = u // w
        a.append(ai)
        b.append(bi)
        u, v, w = w, u - ai * w, r
        trace.append((u, v, w))
    return a, b, trace


@given(st.lists(st.integers(1, 10**40), min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_one_corner_matches_one_triple_loop(ints):
    alpha, beta = Fraction(*ints[:2]), Fraction(*ints[2:])
    w = math.lcm(alpha.denominator, beta.denominator)
    triple = (alpha.numerator * (w // alpha.denominator),
              beta.numerator * (w // beta.denominator), w)
    n = len(_one_triple_loop(*triple)[1])
    for limit in (None, 1, n - 1, n, n + 1):
        a, b, trace = _one_triple_loop(*triple, limit)
        assert rational_digits([triple], limit) == (a, b[:len(a)], trace)
        if limit == 0:
            with pytest.raises(ValueError):
                bcf_expand_rational(alpha, beta, limit)
            continue
        u, _, w_last = trace[-1]
        terminal = Fraction(u, w_last) if len(b) > len(a) else None
        assert bcf_expand_rational(alpha, beta, limit) == SequencePair(
            a, b, terminal=terminal
        )


@pytest.mark.parametrize("terms", [1, 2, 3, 4, 50])
def test_capped_fast_path_matches_generic(terms):
    # (7/5, 3/2) terminates after three b-digits.
    alpha, beta = Fraction(7, 5), Fraction(3, 2)
    fast = bcf_expand_rational(alpha, beta, max_terms=terms)
    assert fast == bcf_expand(alpha, beta, max_terms=terms)
    assert fast.terminated == (terms >= 3)
    assert (fast.terminal is None) == (terms < 3)


def test_capped_fast_path_rejects_zero_terms():
    with pytest.raises(ValueError):
        bcf_expand_rational(Fraction(7, 5), Fraction(3, 2), max_terms=0)


# -- certified boxes ----------------------------------------------------------------


def _rational_in(draw, lo, hi):
    return lo + (hi - lo) * draw(st.fractions(0, 1, max_denominator=10**6))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_box_prefix_holds_at_every_point(data):
    # Every rational of a random positive box, its corners included, starts
    # its own expansion with the box's certified digits.
    draw = data.draw
    ends = []
    for _ in range(2):
        lo = Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**5)))
        width = Fraction(1, draw(st.integers(1, 10**12)))
        ends.append((lo, lo + width))
    box = bcf_expand(*ends, max_terms=40)
    assert box.terminal is None and box.periodicity is None
    n = len(box.a)
    assert len(box.b) == n
    for _ in range(4):
        point = [_rational_in(draw, lo, hi) for lo, hi in ends]
        exact = bcf_expand_rational(*point, max_terms=40)
        assert (exact.a[:n], exact.b[:n]) == (box.a, box.b)
        assert len(exact.a) >= n


def _longest_common_prefix(corners, max_terms):
    """The (a_i, b_i) pairs that every corner's own expansion shares; a
    corner's pairs end where its beta turns integral."""
    runs = []
    for corner in corners:
        exact = bcf_expand_rational(*corner, max_terms=max_terms)
        runs.append(list(zip(exact.a, exact.b)))
    n = 0
    while all(n < len(run) for run in runs) and len({run[n] for run in runs}) == 1:
        n += 1
    return runs[0][:n]


# Box ends per kind: (numerator range, denominator range, 1 / width range).
_BOX_KINDS = {
    "split": ((1, 10**4), (1, 10**3), (1, 10**3)),
    "narrow": ((10**40, 10**42), (10**40, 10**41), (10**80, 10**90)),
    "short corner": ((1, 200), (1, 20), (10**40, 10**50)),
}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_box_prefix_is_the_longest(data):
    # Boxes that split early, boxes that agree up to max_terms, and boxes
    # with a low-height end, whose corner there terminates mid-run; under a
    # cap no box reaches (10**6) a box still stops, as its denominators fall.
    draw = data.draw
    max_terms = draw(st.one_of(st.just(10**6), st.integers(1, 30)))
    nums, dens, widths = _BOX_KINDS[draw(st.sampled_from(sorted(_BOX_KINDS)))]
    sides = []
    for _ in range(2):
        lo = Fraction(draw(st.integers(*nums)), draw(st.integers(*dens)))
        if draw(st.integers(0, 4)) == 0:
            sides.append(lo)  # a point side: a box of two corners
        else:
            sides.append((lo, lo + Fraction(1, draw(st.integers(*widths)))))
    assume(any(isinstance(side, tuple) for side in sides))
    alphas, betas = ((x if isinstance(x, tuple) else (x,)) for x in sides)
    corners = [(x, y) for x in alphas for y in betas]
    box = bcf_expand(*sides, max_terms=max_terms)
    prefix = _longest_common_prefix(corners, max_terms)
    assert list(zip(box.a, box.b)) == prefix
    assert len(box.a) == len(box.b)
    assert box.terminal is None and box.periodicity is None


def test_box_prefix_stops_at_an_integral_corner():
    tiny = Fraction(1, 10**30)
    alpha, beta = Fraction(7, 5), Fraction(3, 2)
    # The corner beta = 2 terminates at index 0, with the other corners'
    # floors: nothing is certified.
    box = bcf_expand((alpha, alpha + tiny), (Fraction(2), 2 + tiny))
    assert (box.a, box.b) == ((), ())
    # The corner (7/5, 3/2) terminates after the pairs (1, 1), (2, 0),
    # which the other corners share.
    box = bcf_expand((alpha - tiny, alpha), (beta - tiny, beta))
    assert (box.a, box.b) == ((1, 2), (1, 0))


def test_box_of_points_is_rational_expansion():
    # (7/5, 3/2) terminates after three b-digits; a cap below that stays open.
    alpha, beta = Fraction(7, 5), Fraction(3, 2)
    for terms in (1, 2, 3, 64):
        point = bcf_expand(alpha, beta, max_terms=terms)
        assert point == bcf_expand_rational(alpha, beta, max_terms=terms)
        assert point.terminal == (Fraction(5, 4) if terms >= 3 else None)
    assert bcf_expand(alpha, beta) == SequencePair(
        (1, 2), (1, 0, 0), terminal=Fraction(5, 4)
    )


def test_box_of_field_pair_is_prefix():
    # theta^3 = 2 theta^2 + 2 theta + 2: bounds on (theta, theta^2 + theta)
    # from a narrow theta interval certify a prefix of the exact expansion.
    field = NumberField((1, -2, -2, -2), (2, 3))
    for _ in range(80):
        field.refine()
    t = field.generator()
    box = bcf_expand(t.value_interval(), (t * t + t).value_interval())
    n = len(box.a)
    assert n >= 10
    exact = bcf_expand(t, t * t + t, max_terms=n)
    assert (exact.a, exact.b) == (box.a, box.b)


def test_box_needs_positive_ordered_ends():
    half, two = Fraction(1, 2), Fraction(2)
    with pytest.raises(NonPositiveInput):
        bcf_expand((Fraction(0), half), (half, two))
    with pytest.raises(NonPositiveInput):
        bcf_expand(half, (Fraction(-1), two))
    for bad in ((two, half), (half, half), (half,), (half, two, two)):
        with pytest.raises(EmptyInterval):
            bcf_expand(bad, two)
