"""Exact polynomial utilities over the integers.

Polynomials are tuples of coefficients in descending order of power; the
zero polynomial is the empty tuple.  The arithmetic helpers
(``evaluate``, ``derivative``, ``negate``, ``multiply``) accept any
numbers; the rest take integer coefficients and compute in integers only.
Sturm chains have integer coefficients and are evaluated at a rational n/d
through the homogeneous integer form.  One bisection of the chain,
``_isolate``, answers both root questions the package asks of a polynomial
of degree 2 or 3: whether it has a rational root, and so is reducible, and
where its real roots lie.
"""

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


def multiply(f, g):
    f, g = trim(f), trim(g)
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, fc in enumerate(f):
        for j, gc in enumerate(g):
            out[i + j] += fc * gc
    return tuple(out)


def primitive(coeffs):
    """Divide out the content and force a positive leading coefficient."""
    coeffs = _positive_primitive(coeffs)
    return negate(coeffs) if coeffs and coeffs[0] < 0 else coeffs


def _positive_primitive(coeffs):
    """coeffs divided by its content; unlike primitive, signs are kept."""
    coeffs = trim(coeffs)
    g = math.gcd(*coeffs)
    return coeffs if g <= 1 else tuple(c // g for c in coeffs)


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
    """Canonical Sturm chain p, p', -rem(p, p'), ... of a nonzero integer
    polynomial, each member an integer polynomial of content 1: the classical
    member times a positive rational, so every sign, and hence every root
    count, is the classical chain's."""
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


def _isolate(chain):
    """Sorted disjoint open rational intervals, one per real root of
    chain[0], of degree >= 2, or None when chain[0] has a rational root: of
    degree 2 or 3 it is then reducible over Q, and only then.

    The chain is bisected on cells whose ends are integers over one
    denominator |lead| * 2**e, down to cells with one root; only the
    returned intervals become Fractions.  Every rational root is a grid
    point k / |lead|, met in one of three ways: a repeated root ends the
    chain in a non-constant gcd(f, f'); a midpoint on the grid is a root;
    or a one-root cell holds one, found by bisecting the cell's grid points
    on chain[0]'s own sign, which at a cell end x is sign(lead) times
    (-1)**(roots above x).
    """
    if len(chain[-1]) > 1:
        return None
    c = chain[0]
    lead = abs(c[0])
    bound = lead + max(abs(x) for x in c[1:])  # 1 + max|c_i| / lead, over lead
    v_top = _sign_variations(chain, bound, lead)
    out = []
    # (lo, hi, e, variations at lo / den, variations at hi / den), where
    # den = lead * 2**e
    stack = [(-bound, bound, 0, _sign_variations(chain, -bound, lead), v_top)]
    while stack:
        lo, hi, e, v_lo, v_hi = stack.pop()
        n = v_lo - v_hi
        if n == 0:
            continue
        if n == 1:
            # Grid points a < k < b, a = floor(lo / 2**e), b = ceil(hi / 2**e):
            # each is on the side of the root where chain[0] has its sign at lo.
            sign_lo = -_sign(c[0]) if (v_lo - v_top) % 2 else _sign(c[0])
            a, b = lo >> e, -(-hi >> e)
            while b - a > 1:
                k = (a + b) // 2
                s = _sign_at(c, k, lead)
                if not s:
                    return None
                if s == sign_lo:
                    a = k
                else:
                    b = k
            out.append((Fraction(lo, lead << e), Fraction(hi, lead << e)))
            continue
        mid, e = lo + hi, e + 1
        # mid / den is a rational root only on the grid, as (mid >> e) / lead
        if not mid & ((1 << e) - 1) and not _sign_at(c, mid >> e, lead):
            return None
        v_mid = _sign_variations(chain, mid, lead << e)
        stack.append((2 * lo, mid, e, v_lo, v_mid))
        stack.append((mid, 2 * hi, e, v_mid, v_hi))
    out.sort()
    return out
