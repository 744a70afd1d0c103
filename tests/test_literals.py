"""Number-literal grammar: accepted forms, rejection messages, helpers."""

import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bcf import (
    NumberField,
    RatFunc,
    fraction_str,
    parse_digits,
    parse_number,
    polys,
)
from bcf.errors import ParseError, ReduciblePolynomial
from bcf.literals import _INTS, _parse_int

from _corpus import canonical_ratfunc, irreducible_roots


def test_rat_literals():
    assert parse_number("rat:7/4") == Fraction(7, 4)
    assert parse_number("rat:-3/2") == Fraction(-3, 2)
    assert parse_number("rat:5") == Fraction(5)
    with pytest.raises(ParseError):
        parse_number("rat:7/0")
    with pytest.raises(ParseError):
        parse_number("rat:x")
    with pytest.raises(ParseError):
        parse_number("rat:1/2/3")


def test_alg_literals():
    value = parse_number("alg:1,-1,-1,-1@1,2")
    field = NumberField((1, -1, -1, -1), (1, 2))
    assert value == field.generator()
    # interval ends take the rat: rule: fractions parse, decimals do not
    value2 = parse_number("alg:1,-1,-1,-1@3/2,19/10")
    assert value2 == value
    with pytest.raises(ParseError) as info:
        parse_number("alg:1,-1,-1,-1@3/2,1.9")
    assert str(info.value) == ("expected an integer at position 19, got '1.9' "
                               "(grammar: alg:<c_d>,...,<c_0>@<lo>,<hi>)")
    with pytest.raises(ParseError):
        parse_number("alg:1,-1,-1,-1")  # missing interval
    with pytest.raises(ParseError):
        parse_number("alg:1,-1,-1,-1@1")  # one endpoint
    with pytest.raises(ReduciblePolynomial):
        parse_number("alg:1,0,0,-1@0,2")


def test_ratfunc_literals():
    value = parse_number("ratfunc:1,1/1,0")
    assert value == RatFunc((1, 1), (1, 0))
    assert value.evaluate(Fraction(2)) == Fraction(3, 2)
    with pytest.raises(ParseError):
        parse_number("ratfunc:1,1")  # no slash
    with pytest.raises(ParseError):
        parse_number("ratfunc:1/2/3")  # two slashes
    with pytest.raises(ParseError):
        parse_number("ratfunc:1,1/0")  # zero denominator polynomial
    with pytest.raises(ZeroDivisionError):
        parse_number("ratfunc:1/1,-2").evaluate(Fraction(2))


def test_dec_literals_gated():
    value = parse_number("dec:1.75")
    assert value == (Fraction(349, 200), Fraction(351, 200))
    with pytest.raises(ParseError):
        parse_number("dec:abc")
    with pytest.raises(ParseError):
        parse_number("dec:NaN")
    with pytest.raises(ParseError):
        parse_number("dec:Infinity")


def _decimal_box(value):
    """Reference: the box of a Decimal, x -/+ 10**exponent / 2, written
    from its digit tuple."""
    sign, digits, exponent = value.as_tuple()
    x = (-1) ** sign * int("".join(map(str, digits)))
    unit = Fraction(10) ** exponent / 2
    return (2 * x - 1) * unit, (2 * x + 1) * unit


@given(
    sign=st.sampled_from(["", "+", "-"]),
    digits=st.text("0123456789", min_size=1, max_size=40),
    point=st.integers(0, 40),
    exponent=st.integers(-60, 60),
    marker=st.sampled_from(["e", "E"]),
)
@settings(max_examples=300, deadline=None)
def test_dec_literal_is_its_box(sign, digits, point, exponent, marker):
    # A point anywhere in the digits (or none) and an explicit exponent,
    # so forms like dec:175e-2 and dec:1.75E+0 are drawn too.
    point = min(point, len(digits))
    body = sign + digits[:point] + "." + digits[point:] if point else sign + digits
    body += f"{marker}{exponent:+d}"
    lo, hi = parse_number("dec:" + body)
    assert (lo, hi) == _decimal_box(Decimal(body))
    assert lo < hi


def test_unknown_kind():
    with pytest.raises(ParseError):
        parse_number("hex:ff")
    with pytest.raises(ParseError):
        parse_number("7/4")  # bare literal without a kind tag


# int(), Fraction() and Decimal() take underscores, surrounding whitespace
# and non-ASCII digits; a literal refuses them at the first such character.
@pytest.mark.parametrize("literal, message", [
    ("rat:1_000", "unexpected character '_' at position 5 "
                  "(grammar: rat:<int>[/<int>])"),
    ("rat: 7 ", "unexpected character ' ' at position 4 "
                "(grammar: rat:<int>[/<int>])"),
    ("rat:7\t", "unexpected character '\\t' at position 5 "
                "(grammar: rat:<int>[/<int>])"),
    ("rat:\u0661\u0662", "unexpected character '\u0661' at position 4 "
                         "(grammar: rat:<int>[/<int>])"),
    ("dec: 1_5 ", "unexpected character ' ' at position 4 "
                  "(grammar: dec:<decimal>)"),
    ("dec:1.5\x1c", "unexpected character '\\x1c' at position 7 "
                    "(grammar: dec:<decimal>)"),
    ("alg:1,0,-2@ 1,2", "unexpected character ' ' at position 11 "
                        "(grammar: alg:<c_d>,...,<c_0>@<lo>,<hi>)"),
    ("ratfunc:1_0,1/1", "unexpected character '_' at position 9 "
                        "(grammar: ratfunc:<n_k>,...,<n_0>/<d_j>,...,<d_0>)"),
], ids=["rat-underscore", "rat-blanks", "rat-tab", "rat-arabic-indic",
        "dec-blank", "dec-separator", "alg-blank", "ratfunc-underscore"])
def test_literal_token_refusals(literal, message):
    with pytest.raises(ParseError) as info:
        parse_number(literal)
    assert str(info.value) == message


# A digit list takes the literal rule: "1_0, \u0661" was (10, 1) once.
@pytest.mark.parametrize("text, message", [
    ("1_0, \u0661", "unexpected character '_' at position 1"),
    ("1, 2", "unexpected character ' ' at position 2"),
    (" ", "unexpected character ' ' at position 0"),
    ("3,\u0661", "unexpected character '\u0661' at position 2"),
    ("1,2\n", "unexpected character '\\n' at position 3"),
], ids=["underscore", "blank", "only-blank", "arabic-indic", "newline"])
def test_digit_list_token_refusals(text, message):
    with pytest.raises(ParseError) as info:
        parse_digits(text)
    assert str(info.value) == message + " (grammar: <int>,<int>,...)"


def test_error_messages_carry_position_and_grammar():
    with pytest.raises(ParseError) as info:
        parse_number("rat:x")
    message = str(info.value)
    assert "position" in message
    assert "rat:<int>" in message


def test_parse_digits():
    assert parse_digits("1,2,3") == (1, 2, 3)
    assert parse_digits("") == parse_digits(None) == ()
    assert parse_digits("0") == (0,)
    with pytest.raises(ParseError):
        parse_digits("1,x")
    # positions are character offsets, as in every other literal error
    with pytest.raises(ParseError, match="at position 3, got 'x'"):
        parse_digits("10,x")


def _token_loop(text):
    """parse_digits one character, then one token, at a time: the
    reference for its fast path."""
    grammar = "<int>,<int>,..."
    for i, ch in enumerate(text):
        if ch == "_" or ch.isspace() or not ch.isascii():
            raise ParseError(f"unexpected character {ch!r} at position {i} "
                             f"(grammar: {grammar})")
    values, cursor = [], 0
    for token in text.split(",") if text else ():
        values.append(_parse_int(token, cursor, grammar))
        cursor += len(token) + 1
    return tuple(values)


# Pieces of digit-list text: signs, underscores, non-ASCII digits, the
# whitespace that int() strips and the \x1c-\x1f separators that only
# str.strip() removes, and tokens int() rejects.
_PIECES = st.sampled_from([
    "0", "1", "7", "42", "10", "-", "+", "_", "\u0661\u0662", "\u0663",
    "\uff15", " ", "\t", "\n", "\xa0", "\u2003", "\x1c", "\x1d", "\x1e",
    "\x1f", "x", "1.5", "0x1",
])
_DIGIT_TEXT = st.one_of(
    st.lists(st.lists(_PIECES, max_size=4).map("".join), min_size=1,
             max_size=6).map(",".join),
    st.text(alphabet="0123456789+-_ ,\x1c\x1f\u0661x", max_size=16),
)


def _assert_parses_as_the_token_loop(text):
    try:
        expected = _token_loop(text)
    except ParseError as error:
        with pytest.raises(ParseError) as info:
            parse_digits(text)
        assert str(info.value) == str(error)
    else:
        got = parse_digits(text)
        assert got == expected and type(got) is tuple, text
        assert all(type(d) is int for d in got)


@given(_DIGIT_TEXT)
@settings(max_examples=400, deadline=None)
def test_parse_digits_matches_the_token_loop(text):
    _assert_parses_as_the_token_loop(text)


# The edges of the lookup table that parses digit-list tokens: every key,
# the first ints past it, spellings that int() takes but no key is, an
# empty token and one past Python's integer-string limit.
_EDGE_TOKENS = ("256", "-256", "00", "-0", "+1", "007", "")


def test_parse_digits_table_edges_match_the_token_loop():
    past_the_limit = "9" * (sys.get_int_max_str_digits() + 1)
    for token in (*_INTS, *_EDGE_TOKENS, past_the_limit):
        _assert_parses_as_the_token_loop(token)
        _assert_parses_as_the_token_loop(f"1,{token},2")


def test_int_table_keys_are_the_values_spelt_by_str():
    assert all(key == str(value) for key, value in _INTS.items())


def test_fraction_str():
    assert fraction_str(Fraction(7, 4)) == "7/4"
    assert fraction_str(Fraction(5)) == "5/1"
    assert fraction_str(Fraction(-1, 3)) == "-1/3"


@given(st.one_of(
    st.integers(-(2**300), 2**300),
    st.fractions(max_denominator=2**300),
    st.builds(Fraction, st.integers(-(2**300), 2**300),
              st.integers(1, 2**300)),
    st.booleans(), st.floats(), st.text(),
))
@settings(max_examples=400, deadline=None)
def test_fraction_str_is_numerator_over_denominator(value):
    if isinstance(value, (bool, float, str)):
        with pytest.raises(TypeError):
            fraction_str(value)
        return
    q = Fraction(value)
    assert fraction_str(value) == f"{q.numerator}/{q.denominator}"


def _generic_ratfunc(num, den, x):
    """num(x) / den(x) by Horner through the generic field operators."""
    den_value = polys.evaluate(den, x)
    if den_value == 0:
        raise ZeroDivisionError("rational-function denominator vanishes at alpha")
    return polys.evaluate(num, x) / den_value


@st.composite
def _field_points(draw):
    """(field, x, min_poly): a field of degree 2 or 3 and one of its
    elements, the generator half the time."""
    degree = draw(st.integers(2, 3))
    rest = draw(st.lists(st.integers(-4, 4), min_size=degree, max_size=degree))
    poly = polys.primitive((draw(st.integers(1, 3)), *rest))
    intervals = irreducible_roots(poly)
    assume(intervals)
    field = NumberField(poly, draw(st.sampled_from(intervals)))
    x = field.generator()
    if draw(st.booleans()):
        coords = draw(st.lists(st.integers(-5, 5), min_size=degree,
                               max_size=degree))
        x = sum((c * x**k for k, c in enumerate(coords)), field.element(0))
        x = x / draw(st.integers(1, 6))
    return field, x, poly


_RATFUNC_POLY = st.lists(st.integers(-4, 4), max_size=4).map(tuple)


@given(_field_points(), _RATFUNC_POLY, _RATFUNC_POLY, st.booleans())
@settings(max_examples=300, deadline=None)
def test_ratfunc_at_a_field_element_matches_generic_horner(point, num, den,
                                                           pole):
    field, x, poly = point
    if pole:
        den = polys.multiply(den or (1,), poly)  # vanishes at the generator
    try:
        expected = _generic_ratfunc(num, den, x)
    except ZeroDivisionError as error:
        with pytest.raises(ZeroDivisionError) as info:
            RatFunc(num, den).evaluate(x)
        assert str(info.value) == str(error)
    else:
        got = RatFunc(num, den).evaluate(x)
        assert got.field is field and got._raw == expected._raw


def test_ratfunc_coefficients_are_ints():
    assert RatFunc([1, 1], [1, 0]) == RatFunc((1, 1), (1, 0))
    for num, den in (((Fraction(1, 2),), (1,)), ((1,), (True,)), ((1,), (1.0,))):
        with pytest.raises(TypeError, match="coefficient must be an int"):
            RatFunc(num, den)


# Coefficient tuples with leading zeros, a shared content (possibly 0 or
# negative, so a zero numerator and a negative leading denominator are
# drawn), and, half the time, a denominator with a pole at the point.
_LEADING = st.integers(0, 2).map(lambda n: (0,) * n)
_COEFFS = st.lists(st.integers(-4, 4), max_size=3).map(tuple)


@given(_LEADING, _COEFFS, _LEADING, _COEFFS,
       st.integers(-6, 6),
       st.one_of(st.fractions(-4, 4, max_denominator=5),
                 _field_points().map(lambda point: point[1])),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_ratfunc_is_the_canonical_pair(pad_num, num, pad_den, den, content,
                                       x, pole):
    if pole:  # a factor vanishing at x, or at the generator of x's field
        factor = ((x.denominator, -x.numerator) if isinstance(x, Fraction)
                  else x.field.min_poly)
        den = polys.multiply(den or (1,), factor)
    num = pad_num + tuple(content * c for c in num)
    den = pad_den + tuple(content * c for c in den)
    f = RatFunc(num, den)
    assert f == canonical_ratfunc(num, den)
    assert RatFunc(*f) == f and (f.num, f.den) == f
    if f.den:
        assert parse_number("ratfunc:" + str(f)) == f
    try:
        expected = _generic_ratfunc(num, den, x)
    except ZeroDivisionError as error:
        with pytest.raises(ZeroDivisionError) as info:
            f.evaluate(x)
        assert str(info.value) == str(error)
    else:
        got = f.evaluate(x)
        if isinstance(x, Fraction):
            assert got == expected
        else:
            assert got.field is x.field and got._raw == expected._raw


def test_ratfunc_prints_its_literal_body():
    assert str(RatFunc((0, 2, -4), (-2,))) == "-1,2/1"
    assert str(RatFunc((), (3, 0))) == "0/1,0"
    assert str(RatFunc((1,), ())) == "1/0"
    assert RatFunc((2,), (4, 2)) == ((1,), (2, 1))
