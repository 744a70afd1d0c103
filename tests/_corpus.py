"""Shared random-corpus generators used across the test modules, the
reference rule for a rational function's canonical form, the former body
of polys.primitive, the rational-root theorem as the reference for
irreducibility, and one expansion step through public operators.

Everything is seeded by the caller so each test module owns its stream;
the generators only promise admissibility, not any particular
distribution.
"""

from __future__ import annotations

import math
from fractions import Fraction

from bcf import SequencePair, polys, validate


def random_valid_digits(rng, length):
    """A digit pair satisfying the admissibility rules at every index.

    a_i is drawn from [1, 9]; b_i from [0, a_i], bumped to [1, a_i] when
    the previous pair was equal so the zero-lookahead rule can never fire.
    Index 0 uses the same scheme, which keeps the pair admissible under
    any periodic extension as well.
    """
    a, b = [], []
    previous_equal = False
    for _ in range(length):
        a_i = rng.randint(1, 9)
        low = 1 if previous_equal else 0
        b_i = rng.randint(low, a_i)
        previous_equal = a_i == b_i
        a.append(a_i)
        b.append(b_i)
    return tuple(a), tuple(b)


def random_valid_pair(rng, length=None):
    if length is None:
        length = rng.randint(9, 30)
    a, b = random_valid_digits(rng, length)
    pair = SequencePair(a, b)
    assert validate(pair).valid or validate(pair).indeterminate
    return pair


def random_cyclic_pair(rng, max_period=4, max_digit=3):
    """A purely periodic pair valid as an infinite periodic sequence."""
    while True:
        m = rng.randint(1, max_period)
        a = tuple(rng.randint(1, max_digit) for _ in range(m))
        b = tuple(rng.randint(0, a[i]) for i in range(m))
        pair = SequencePair(a, b, periodicity=(0, m))
        if validate(pair).valid:
            return pair


def random_rational_pair(rng, max_den=10**6):
    """A pair of positive rationals with denominators up to max_den."""
    alpha_den = rng.randint(1, max_den)
    beta_den = rng.randint(1, max_den)
    alpha = Fraction(rng.randint(1, 4 * alpha_den), alpha_den)
    beta = Fraction(rng.randint(1, 4 * beta_den), beta_den)
    return alpha, beta


def public_step(alpha, beta):
    """One expansion step through public operators only (floor, -, 1 / x
    and *): (a, b, the next pair), the next pair None where beta == b ends
    the run."""
    a, b = math.floor(alpha), math.floor(beta)
    if beta == b:
        return a, b, None
    inv = 1 / (beta - b)
    return a, b, (inv, (alpha - a) * inv)


def canonical_ratfunc(num, den):
    """(num, den) trimmed, their shared content divided out and the leading
    denominator coefficient made positive: the rule RatFunc keeps, written
    out step by step as the reference its tests compare with."""
    num = polys.trim(num)
    den = polys.trim(den)
    g = math.gcd(*num, *den)
    if g > 1:
        num = tuple(c // g for c in num)
        den = tuple(c // g for c in den)
    if den and den[0] < 0:
        num = polys.negate(num)
        den = polys.negate(den)
    return num, den


def former_primitive(coeffs):
    """polys.primitive as it was before it called _positive_primitive: the
    reference its current body must match."""
    coeffs = polys.trim(coeffs)
    if not coeffs:
        return ()
    g = math.gcd(*coeffs)
    if coeffs[0] < 0:
        g = -g
    return tuple(c // g for c in coeffs)


def _divisors(n):
    """The positive divisors of a nonzero int."""
    n = abs(n)
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return {*small, *(n // k for k in small)}


def has_rational_root(coeffs):
    """Whether an integer polynomial of degree >= 1 has a rational root, by
    brute force over the rational-root theorem: a root p/q in lowest terms
    has p dividing the constant term and q the leading coefficient, and 0
    is a root when the constant term is 0."""
    coeffs = polys.trim(coeffs)
    if coeffs[-1] == 0:
        return True
    return any(polys.evaluate(coeffs, Fraction(s * p, q)) == 0
               for p in _divisors(coeffs[-1]) for q in _divisors(coeffs[0])
               for s in (1, -1))


def irreducible_roots(coeffs):
    """The isolating intervals of an integer polynomial of degree 2 or 3
    that is irreducible over Q, or None when it is reducible: a polynomial
    of degree at most 3 is reducible exactly when it has a rational root."""
    if has_rational_root(coeffs):
        return None
    return polys._isolate(polys.sturm_chain(polys.primitive(coeffs)))
