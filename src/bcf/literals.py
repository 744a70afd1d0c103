"""Textual literals for exact numbers, and small formatting helpers.

Grammar (one kind per literal, chosen by its prefix):

    rat:<int>[/<int>]                       exact rational, e.g. rat:7/4
    alg:<c_d>,...,<c_0>@<lo>,<hi>           root of an irreducible integer
                                            polynomial of degree 2 or 3
                                            (descending coefficients) inside
                                            the open interval (lo, hi), each
                                            end <int>[/<int>] as in rat:,
                                            e.g. alg:1,-1,-1,-1@3/2,2
    ratfunc:<n_k>,...,<n_0>/<d_j>,...,<d_0> rational function of alpha with
                                            integer coefficients, only
                                            meaningful for beta,
                                            e.g. ratfunc:1,1/1,0 = (a+1)/a
    dec:<decimal>                           finite decimal: the reals that
                                            round to it, e.g. dec:1.25

Each literal parses to one value: a rat: to a Fraction, an alg: to a field
element, a ratfunc: to a RatFunc and a dec: to its interval (lo, hi) of
Fractions, which expand takes beside a rat: or dec:.  A literal, like a
digit list, holds no blanks, underscores or non-ASCII characters.  A
RatFunc is canonical and str() gives its ratfunc: body: one module reads
and writes it.

An integer list is split at its commas and each token mapped through one
table of the small ints whose misses call int(), all at C level.

Every integer, interval ends included, is read by int() under Python's
digit limit.  Parse failures raise ParseError naming the offending token,
its position, and the expected grammar fragment; a token is quoted only up
to a short prefix.
"""

import math
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from . import polys
from .errors import ParseError
from .fields import (AlgebraicNumber, NumberField, _as_exact, _as_ints,
                     _as_rational, _inverse, _multiply, _normal, _polynomial_at,
                     bounded_str)

RAT_GRAMMAR = "rat:<int>[/<int>]"
ALG_GRAMMAR = "alg:<c_d>,...,<c_0>@<lo>,<hi>"
RATFUNC_GRAMMAR = "ratfunc:<n_k>,...,<n_0>/<d_j>,...,<d_0>"
DEC_GRAMMAR = "dec:<decimal>"
DIGITS_GRAMMAR = "<int>,<int>,..."


class RatFunc(tuple):
    """A rational function of alpha, the pair (num, den) of descending int
    coefficient tuples, both trimmed, their shared content divided out and
    den's leading coefficient positive; str() is its ratfunc: body."""

    __slots__ = ()

    def __new__(cls, num, den):
        # evaluate computes on integer numerators at a field element
        num = polys.trim(_as_ints(num, "num"))
        den = polys.trim(_as_ints(den, "den"))
        g = math.gcd(*num, *den) * (-1 if den and den[0] < 0 else 1)
        if g not in (0, 1):
            num, den = (tuple(c // g for c in p) for p in (num, den))
        return super().__new__(cls, (num, den))

    def __getnewargs__(self):  # pickles as RatFunc(num, den)
        return tuple(self)

    num = property(lambda self: self[0])
    den = property(lambda self: self[1])

    def __str__(self):
        return "/".join(",".join(map(str, p)) or "0" for p in self)

    def evaluate(self, alpha):
        """Exact value at alpha (an int, Fraction or field element).  At a
        field element both polynomials are evaluated on normalised integer
        (num, den) pairs and divided with one inverse."""
        if isinstance(alpha, AlgebraicNumber):
            field = alpha.field
            num, den = (_polynomial_at(field, p, alpha._raw) for p in self)
            if any(den[0]):
                return _normal(field, *_multiply(field, num, _inverse(field, den)))
        else:
            alpha = _as_exact(alpha, "alpha")
            den = polys.evaluate(self.den, alpha)
            if den != 0:
                return polys.evaluate(self.num, alpha) / den
        raise ZeroDivisionError("rational-function denominator vanishes at alpha")


def _excerpt(text):
    """repr of user text for an error message, cut to 20 characters and ..."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}..."


def _token_error(token, position, grammar, exc):
    """The ParseError for a token that int() rejected."""
    if str(exc).startswith("Exceeds the limit"):
        return ParseError(
            f"token at position {position} exceeds the "
            f"{sys.get_int_max_str_digits()}-digit integer-string limit, "
            f"got {_excerpt(token)} (grammar: {grammar})"
        )
    return ParseError(
        f"expected an integer at position {position}, got {_excerpt(token)} "
        f"(grammar: {grammar})"
    )


def _parse_int(token, position, grammar):
    try:
        return int(token, 10)
    except ValueError as exc:
        raise _token_error(token, position, grammar, exc) from None


def _check_characters(text, position, grammar):
    """Refuse a '_', a blank or a non-ASCII character in literal text in one
    line naming its position; C-level string tests pass clean text."""
    if not text.isascii() or "_" in text or "".join(text.split()) != text:
        i = next(i for i, ch in enumerate(text)
                 if ch == "_" or ch.isspace() or not ch.isascii())
        raise ParseError(f"unexpected character {text[i]!r} at position "
                         f"{position + i} (grammar: {grammar})")


class _IntTable(dict):
    """str(k) -> k for k in -255..255, any other token int(token); wider
    tables parsed digit lists no faster and took longer to build."""

    __missing__ = staticmethod(int)  # called as int(token), at C level


_INTS = _IntTable((str(k), k) for k in range(-255, 256))


def _parse_int_csv(text, position, grammar):
    if not text:
        raise ParseError(
            f"expected a comma-separated integer list at position {position} "
            f"(grammar: {grammar})"
        )
    tokens = text.split(",")
    try:
        return tuple(map(_INTS.__getitem__, tokens))
    except ValueError:
        pass  # the loop below raises, naming the first bad token's position
    for token in tokens:
        _parse_int(token, position, grammar)
        position += len(token) + 1


def _parse_rat(body, position, grammar=RAT_GRAMMAR):
    """<int>[/<int>] as a Fraction: a rat: body, or an alg: interval end
    with the alg: grammar in its messages."""
    head, sep, tail = body.partition("/")
    p = _parse_int(head, position, grammar)
    if not sep:
        return Fraction(p)
    q = _parse_int(tail, position + len(head) + 1, grammar)
    if q == 0:
        raise ParseError(
            f"zero denominator at position {position + len(head) + 1} "
            f"(grammar: {grammar})"
        )
    return Fraction(p, q)


def _parse_alg(body, position):
    coeff_text, sep, interval_text = body.partition("@")
    if not sep:
        raise ParseError(
            f"missing '@' in algebraic literal at position {position} "
            f"(grammar: {ALG_GRAMMAR})"
        )
    coeffs = _parse_int_csv(coeff_text, position, ALG_GRAMMAR)
    endpoints = interval_text.split(",")
    if len(endpoints) != 2:
        raise ParseError(
            f"expected two interval endpoints at position "
            f"{position + len(coeff_text) + 1}, got {_excerpt(interval_text)} "
            f"(grammar: {ALG_GRAMMAR})"
        )
    cursor = position + len(coeff_text) + 1
    lo = _parse_rat(endpoints[0], cursor, ALG_GRAMMAR)
    hi = _parse_rat(endpoints[1], cursor + len(endpoints[0]) + 1, ALG_GRAMMAR)
    return NumberField(coeffs, (lo, hi)).generator()


def _parse_ratfunc(body, position):
    parts = body.split("/")
    if len(parts) != 2:
        raise ParseError(
            f"expected exactly one '/' in rational-function literal at "
            f"position {position}, got {_excerpt(body)} "
            f"(grammar: {RATFUNC_GRAMMAR})"
        )
    num = _parse_int_csv(parts[0], position, RATFUNC_GRAMMAR)
    den = _parse_int_csv(
        parts[1], position + len(parts[0]) + 1, RATFUNC_GRAMMAR
    )
    if not polys.trim(den):
        raise ParseError(
            f"denominator is the zero polynomial at position "
            f"{position + len(parts[0]) + 1} (grammar: {RATFUNC_GRAMMAR})"
        )
    return RatFunc(num, den)


def _parse_dec(body, position):
    try:
        value = Decimal(body)
    except InvalidOperation:
        raise ParseError(
            f"expected a decimal at position {position}, got {_excerpt(body)} "
            f"(grammar: {DEC_GRAMMAR})"
        ) from None
    if not value.is_finite():
        raise ParseError(
            f"decimal literal must be finite, got {_excerpt(body)} "
            f"(grammar: {DEC_GRAMMAR})"
        )
    sign, digits, exponent = value.as_tuple()
    limit = sys.get_int_max_str_digits()
    if max(len(digits), abs(exponent)) > limit > 0:
        raise ParseError(
            f"decimal at position {position} is too large or too small for "
            f"{limit} digits, got {_excerpt(body)} (grammar: {DEC_GRAMMAR})"
        )
    x = (-1) ** sign * int("".join(map(str, digits)))
    unit = Fraction(10) ** exponent / 2
    return (2 * x - 1) * unit, (2 * x + 1) * unit


_KINDS = {"rat": (_parse_rat, RAT_GRAMMAR), "alg": (_parse_alg, ALG_GRAMMAR),
          "ratfunc": (_parse_ratfunc, RATFUNC_GRAMMAR),
          "dec": (_parse_dec, DEC_GRAMMAR)}


def parse_number(literal):
    """Parse a number literal into its value.

    Returns a Fraction for rat:, a field element for alg:, a RatFunc for
    ratfunc:, and for dec: the closed interval (lo, hi) of Fractions of the
    reals that round to it at its written precision, x -/+ 10**exponent / 2,
    a side of the box that ``bcf_expand`` expands.  Field
    construction failures (reducible polynomial, bad root interval, degree
    out of range) propagate as their own error types.
    """
    if not isinstance(literal, str):
        raise ParseError(f"number literal must be text, got {literal!r}")
    kind, sep, body = literal.partition(":")
    if not sep:
        raise ParseError(
            f"number literal needs a '<kind>:' prefix, got {_excerpt(literal)} "
            f"(kinds: rat, alg, ratfunc, dec)"
        )
    if kind not in _KINDS:
        raise ParseError(
            f"unknown literal kind {_excerpt(kind)} at position 0 "
            f"(kinds: rat, alg, ratfunc, dec)"
        )
    parse, grammar = _KINDS[kind]
    position = len(kind) + 1
    _check_characters(body, position, grammar)
    return parse(body, position)


def parse_digits(text):
    """Parse a comma-separated digit list; empty text or None means no
    digits.  Like a literal, the text holds no blanks, underscores or
    non-ASCII characters."""
    if text is None:
        return ()
    if not isinstance(text, str):
        raise TypeError(f"digit list must be text or None, got {text!r}")
    _check_characters(text, 0, DIGITS_GRAMMAR)
    return _parse_int_csv(text, 0, DIGITS_GRAMMAR) if text else ()


def fraction_str(value):
    """Render an int or Fraction as 'p/q', the denominator always explicit.
    A Fraction is already in lowest terms with a positive denominator."""
    value = _as_rational(value, "value")
    return bounded_str(value, lambda q: f"{q.numerator}/{q.denominator}")
