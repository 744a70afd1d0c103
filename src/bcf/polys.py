"""Exact polynomial utilities over the integers and rationals.

Polynomials are tuples of coefficients in descending order of power; the
zero polynomial is the empty tuple.  Rational-coefficient helpers work on
``fractions.Fraction`` values, integer helpers on plain ``int``.
"""

from __future__ import annotations

import math
from fractions import Fraction


def trim(coeffs):
    """Drop leading zero coefficients; the zero polynomial becomes ()."""
    coeffs = tuple(coeffs)
    i = 0
    while i < len(coeffs) and coeffs[i] == 0:
        i += 1
    return coeffs[i:]


def degree(coeffs):
    """Degree of the polynomial, -1 for the zero polynomial."""
    return len(trim(coeffs)) - 1


def evaluate(coeffs, x):
    """Horner evaluation; works for any value supporting * and +."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def derivative(coeffs):
    coeffs = trim(coeffs)
    n = len(coeffs) - 1
    return trim(c * (n - i) for i, c in enumerate(coeffs[:-1])) if n >= 1 else ()


def negate(coeffs):
    return tuple(-c for c in coeffs)


def add(f, g):
    f, g = tuple(f), tuple(g)
    if len(f) < len(g):
        f, g = g, f
    pad = len(f) - len(g)
    return trim(tuple(f[:pad]) + tuple(fc + gc for fc, gc in zip(f[pad:], g)))


def sub(f, g):
    return add(f, negate(g))


def scale(coeffs, k):
    if k == 0:
        return ()
    return tuple(c * k for c in trim(coeffs))


def multiply(f, g):
    f, g = trim(f), trim(g)
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, fc in enumerate(f):
        for j, gc in enumerate(g):
            out[i + j] += fc * gc
    return tuple(out)


def content(coeffs):
    """Nonnegative gcd of the integer coefficients (0 for zero polynomial)."""
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    return g


def primitive(coeffs):
    """Divide out the content and force a positive leading coefficient."""
    coeffs = trim(coeffs)
    if not coeffs:
        return ()
    g = content(coeffs)
    if coeffs[0] < 0:
        g = -g
    return tuple(c // g for c in coeffs)


def clear_denominators(coeffs):
    """Scale a rational polynomial to coprime integer coefficients."""
    coeffs = trim(Fraction(c) for c in coeffs)
    if not coeffs:
        return ()
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    return primitive(int(c * lcm) for c in coeffs)


def divmod_q(f, g):
    """Quotient and remainder in Q[x]; coefficients become Fractions."""
    fn = list(trim(Fraction(c) for c in f))
    gn = list(trim(Fraction(c) for c in g))
    if not gn:
        raise ZeroDivisionError("polynomial division by zero polynomial")
    if len(fn) < len(gn):
        return (), tuple(fn)
    q = [Fraction(0)] * (len(fn) - len(gn) + 1)
    rem = fn[:]
    lead = gn[0]
    for i in range(len(q)):
        coef = rem[i] / lead
        q[i] = coef
        if coef:
            for j, gc in enumerate(gn):
                rem[i + j] -= coef * gc
    return trim(q), trim(rem[len(q):])


def sturm_chain(coeffs):
    """Canonical Sturm chain of a nonzero polynomial (Fraction coefficients)."""
    p0 = trim(Fraction(c) for c in coeffs)
    if not p0:
        raise ValueError("Sturm chain of the zero polynomial")
    chain = [p0]
    p1 = derivative(p0)
    if p1:
        chain.append(p1)
        while degree(chain[-1]) >= 1:
            _, r = divmod_q(chain[-2], chain[-1])
            if not r:
                break
            chain.append(negate(r))
    return chain


def _sign(x):
    return (x > 0) - (x < 0)


def sign_variations(chain, x):
    """Number of sign changes of the chain evaluated at x (zeros skipped)."""
    signs = [s for s in (_sign(evaluate(p, x)) for p in chain) if s != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_roots(chain, lo, hi):
    """Distinct real roots in the open interval (lo, hi).

    Requires that neither endpoint is a root of the chain's first polynomial.
    """
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def is_perfect_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


def monicize(coeffs):
    """Monic integer polynomial whose roots are lead * (roots of coeffs)."""
    coeffs = trim(coeffs)
    lead = coeffs[0]
    out = [1]
    power = 1
    for c in coeffs[1:]:
        out.append(c * power)
        power *= lead
    return tuple(out)


def integer_roots_monic(coeffs):
    """Sorted distinct integer roots of a monic integer polynomial."""
    g = trim(coeffs)
    if g[0] != 1:
        raise ValueError("polynomial is not monic")
    roots = set()
    while len(g) > 1 and g[-1] == 0:
        roots.add(0)
        g = g[:-1]
    if len(g) <= 1:
        return sorted(roots)
    bound = 1 + max(abs(c) for c in g[1:])
    chain = sturm_chain(g)
    half = Fraction(1, 2)
    stack = [(Fraction(-bound) - half, Fraction(bound) + half)]
    while stack:
        lo, hi = stack.pop()
        if count_roots(chain, lo, hi) == 0:
            continue
        if hi - lo <= 1:
            k = math.floor(lo) + 1
            if k < hi and evaluate(g, k) == 0:
                roots.add(k)
            continue
        mid = (lo + hi) / 2
        if mid.denominator == 1 and evaluate(g, int(mid)) == 0:
            # An integer root sits exactly on the midpoint; the half-unit
            # neighbourhood around it contains no other integer.
            roots.add(int(mid))
            stack.append((lo, mid - half))
            stack.append((mid + half, hi))
            continue
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(roots)


def rational_roots(coeffs):
    """Sorted distinct rational roots of an integer polynomial."""
    c = trim(coeffs)
    if degree(c) < 1:
        return []
    lead = c[0]
    out = set()
    for k in integer_roots_monic(monicize(c)):
        r = Fraction(k, lead)
        if evaluate(c, r) == 0:
            out.add(r)
    return sorted(out)


def is_irreducible(coeffs):
    """Irreducibility over Q for integer polynomials of degree 1 to 3.

    Degree 1 is always irreducible; degree 2 is reducible exactly when its
    discriminant is a perfect square; degree 3 is reducible exactly when it
    has a rational root.
    """
    c = primitive(coeffs)
    d = degree(c)
    if d < 1 or d > 3:
        raise ValueError(f"irreducibility test supports degrees 1-3, got {d}")
    if d == 1:
        return True
    if d == 2:
        disc = c[1] * c[1] - 4 * c[0] * c[2]
        return not is_perfect_square(disc)
    return not rational_roots(c)


def isolating_intervals(coeffs):
    """Disjoint open rational intervals, one per real root.

    Requires a squarefree integer polynomial with no rational roots (for
    example an irreducible polynomial of degree >= 2), so that bisection
    midpoints can never land on a root.
    """
    c = trim(coeffs)
    if degree(c) < 1:
        return []
    chain = sturm_chain(c)
    bound = 1 + Fraction(max(abs(x) for x in c[1:]), abs(c[0]))
    out = []
    stack = [(Fraction(-bound), bound)]
    while stack:
        lo, hi = stack.pop()
        n = count_roots(chain, lo, hi)
        if n == 0:
            continue
        if n == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if evaluate(c, mid) == 0:
            raise ValueError("rational root encountered during isolation")
        stack.append((lo, mid))
        stack.append((mid, hi))
    out.sort()
    return out
