"""Exact polynomial utilities over the integers.

Polynomials are tuples of coefficients in descending order of power; the
zero polynomial is the empty tuple.  The arithmetic helpers (``evaluate``,
``add``, ``multiply``, ...) accept any numbers; the rest take integer
coefficients and compute in integers only.  Sturm chains have integer
coefficients and are evaluated at a rational n/d through the homogeneous
integer form.  ``rational_roots`` bisects the polynomial's own chain on the
grid its leading coefficient fixes, and a cell with one root on the sign of
the square-free part; ``deflate`` divides a root out exactly.  Their private
twins ``_chain_roots``, ``_irreducible`` and ``_isolate`` take the chain
itself, so that one chain serves every question asked of one polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ReduciblePolynomial


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
    return math.gcd(*coeffs)


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
    """coeffs divided by its content; unlike primitive, signs are kept."""
    coeffs = trim(coeffs)
    g = content(coeffs) or 1
    return tuple(c // g for c in coeffs)


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


def is_perfect_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


def rational_roots(coeffs):
    """Sorted distinct rational roots of an integer polynomial.

    A root p/q in lowest terms has q dividing the leading coefficient, so
    every rational root is k / |lead| for an integer k, and none lies on
    the half-grid (2k + 1) / (2 |lead|).  The polynomial's own Sturm chain
    is bisected between half-grid points, held as the int k, down to cells
    holding one distinct root.  That root is a simple root of the
    square-free part f / gcd(f, f'), so such a cell is bisected on that
    part's sign alone (f itself keeps its sign at a double root) down to
    one grid point, which is then tested exactly.
    """
    if degree(coeffs) < 1:
        return []
    return _chain_roots(sturm_chain(coeffs))


def _chain_roots(chain):
    """rational_roots of chain[0], of degree >= 1, from its Sturm chain."""
    c = chain[0]
    lead = abs(c[0])
    # The chain ends in gcd(f, f'), a constant when f is square-free.
    free = c if len(chain[-1]) == 1 else _exact_quotient(c, chain[-1])
    # Cauchy: every root has |x| < 1 + max|c_i| / lead = bound / lead.
    bound = lead + max(abs(x) for x in c[1:])

    def variations(k):
        return _sign_variations(chain, 2 * k + 1, 2 * lead)

    roots = []
    # (lo, hi, variations at lo, variations at hi), each end a half-grid k.
    stack = [(-bound - 1, bound, variations(-bound - 1), variations(bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if v_lo - v_hi == 1:
            sign_lo = _sign_at(free, 2 * lo + 1, 2 * lead)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _sign_at(free, 2 * mid + 1, 2 * lead) == sign_lo:
                    lo = mid
                else:
                    hi = mid
        if hi - lo == 1:
            if _sign_at(c, hi, lead) == 0:
                roots.append(Fraction(hi, lead))
            continue
        mid = (lo + hi) // 2
        v_mid = variations(mid)
        stack.append((lo, mid, v_lo, v_mid))
        stack.append((mid, hi, v_mid, v_hi))
    return sorted(roots)


def _exact_quotient(f, g):
    """f / g for integer polynomials where the primitive g divides f; by
    Gauss's lemma the quotient has integer coefficients, so the long
    division runs in integers.  Raises ValueError when g does not divide f.
    """
    rem = list(trim(f))
    top = len(rem) - len(g) + 1
    quotient = []
    for i in range(top):
        q, r = divmod(rem[i], g[0])
        if r:
            raise ValueError(f"{g} does not divide {f}")
        quotient.append(q)
        for j, gc in enumerate(g[1:], i + 1):
            rem[j] -= q * gc
    if top < 1 or any(rem[top:]):
        raise ValueError(f"{g} does not divide {f}")
    return tuple(quotient)


def deflate(coeffs, root):
    """The quotient of an integer polynomial by q*x - p, where root = p/q
    is one of its roots; by Gauss's lemma the quotient has integer
    coefficients, so the division runs in integers."""
    return _exact_quotient(coeffs, (root.denominator, -root.numerator))


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
    return _irreducible(sturm_chain(c))


def _irreducible(chain):
    """is_irreducible of chain[0], primitive of degree 1 to 3, from its
    Sturm chain: the rational-root search runs on that chain."""
    c = chain[0]
    if len(c) == 3:
        return not is_perfect_square(c[1] * c[1] - 4 * c[0] * c[2])
    return len(c) == 2 or not _chain_roots(chain)


def isolating_intervals(coeffs):
    """Sorted disjoint open rational intervals, one per distinct real root
    of an integer polynomial, found by bisection on its Sturm chain.

    Raises ReduciblePolynomial when a bisection midpoint is a root: that
    root is rational, so the polynomial (of degree >= 2, since a degree-1
    root is isolated by the starting interval) is reducible.
    """
    if degree(coeffs) < 1:
        return []
    return _isolate(sturm_chain(coeffs))


def _isolate(chain):
    """isolating_intervals of chain[0], of degree >= 1, from its Sturm
    chain.  Each cell's ends are integers over one denominator |lead| * 2**e,
    as in _chain_roots; only the returned intervals become Fractions."""
    c = chain[0]
    lead = abs(c[0])
    bound = lead + max(abs(x) for x in c[1:])  # 1 + max|c_i| / lead, over lead
    out = []
    # (lo, hi, den, variations at lo / den, variations at hi / den)
    stack = [(-bound, bound, lead, _sign_variations(chain, -bound, lead),
              _sign_variations(chain, bound, lead))]
    while stack:
        lo, hi, den, v_lo, v_hi = stack.pop()
        n = v_lo - v_hi
        if n == 0:
            continue
        if n == 1:
            out.append((Fraction(lo, den), Fraction(hi, den)))
            continue
        mid, den = lo + hi, 2 * den
        if _sign_at(c, mid, den) == 0:
            raise ReduciblePolynomial(
                f"polynomial {c} has the rational root {Fraction(mid, den)}"
            )
        v_mid = _sign_variations(chain, mid, den)
        stack.append((2 * lo, mid, den, v_lo, v_mid))
        stack.append((mid, 2 * hi, den, v_mid, v_hi))
    out.sort()
    return out
