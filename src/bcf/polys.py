"""Exact polynomial utilities over the integers and rationals.

Polynomials are tuples of coefficients in descending order of power; the
zero polynomial is the empty tuple.  Rational-coefficient helpers work on
``fractions.Fraction`` values, integer helpers on plain ``int``.  Real-root
counting is integer-only: Sturm chains have integer coefficients and are
evaluated at a rational n/d through the homogeneous integer form of the
polynomial.
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


def _positive_primitive(coeffs):
    """The integer polynomial with content 1 that is coeffs (rational or
    integer) times a positive rational; unlike primitive, signs are kept."""
    coeffs = trim(coeffs)
    lcm = math.lcm(*(c.denominator for c in coeffs))
    coeffs = [c.numerator * (lcm // c.denominator) for c in coeffs]
    g = content(coeffs) or 1
    return tuple(c // g for c in coeffs)


def clear_denominators(coeffs):
    """Scale a rational polynomial to coprime integer coefficients."""
    return primitive(_positive_primitive(Fraction(c) for c in coeffs))


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


def _remainder(f, g):
    """A positive multiple of the remainder of integer f by integer g."""
    rem, lead = list(f), g[0]
    top = len(f) - len(g) + 1
    for i in range(top):
        c = rem[i] if lead > 0 else -rem[i]
        rem = [abs(lead) * x for x in rem]
        for j, gc in enumerate(g, i):
            rem[j] -= c * gc
    return trim(rem[top:])


def sturm_chain(coeffs):
    """Canonical Sturm chain p, p', -rem(p, p'), ... of a nonzero polynomial,
    each member scaled by a positive rational to integers of content 1, so
    every sign, and hence every root count, is the classical chain's."""
    p0 = _positive_primitive(coeffs)
    if not p0:
        raise ValueError("Sturm chain of the zero polynomial")
    chain = [p0]
    p1 = _positive_primitive(derivative(p0))
    if p1:
        chain.append(p1)
        while len(chain[-1]) > 1:
            r = _remainder(chain[-2], chain[-1])
            if not r:
                break
            chain.append(negate(_positive_primitive(r)))
    return chain


def _sign(x):
    return (x > 0) - (x < 0)


def _sign_at(coeffs, n, d):
    """Sign of an integer polynomial at n / d, d > 0, in integers only: the
    sign of the homogeneous sum of c_i * n**(deg-i) * d**i."""
    acc = coeffs[0]
    dk = 1
    for c in coeffs[1:]:
        dk *= d
        acc = acc * n + c * dk
    return _sign(acc)


def _sign_variations(chain, n, d):
    """Sign changes of the chain at n / d, d > 0 (zeros skipped)."""
    signs = [s for s in (_sign_at(p, n, d) for p in chain) if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def count_roots(chain, lo, hi):
    """Distinct real roots in the open interval (lo, hi), lo and hi rational.

    Requires that neither endpoint is a root of the chain's first polynomial.
    """
    return (_sign_variations(chain, lo.numerator, lo.denominator)
            - _sign_variations(chain, hi.numerator, hi.denominator))


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

    def variations(k):
        return _sign_variations(chain, 2 * k + 1, 2)

    # (lo, hi, variations at lo + 1/2, variations at hi + 1/2): bisection
    # between half-integers, held as ints, where no monic g has a root.
    stack = [(-bound - 1, bound, variations(-bound - 1), variations(bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if evaluate(g, hi) == 0:
                roots.add(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = variations(mid)
        stack.append((lo, mid, v_lo, v_mid))
        stack.append((mid, hi, v_mid, v_hi))
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

    def variations(x):
        return _sign_variations(chain, x.numerator, x.denominator)

    out = []
    # (lo, hi, variations at lo, variations at hi)
    stack = [(-bound, bound, variations(-bound), variations(bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        n = v_lo - v_hi
        if n == 0:
            continue
        if n == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if _sign_at(chain[0], mid.numerator, mid.denominator) == 0:
            raise ValueError("rational root encountered during isolation")
        v_mid = variations(mid)
        stack.append((lo, mid, v_lo, v_mid))
        stack.append((mid, hi, v_mid, v_hi))
    out.sort()
    return out
