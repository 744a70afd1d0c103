"""Integer kernels for the digit-sequence loops and 3x3 integer matrices.

``rational_digits`` steps the integer triples (u, v, w) of a rational point
or, in lockstep, of a box's corners.  Every convergent comes from one
third-order recurrence, X_i = a_i*X_{i-1} + b_i*X_{i-2} + X_{i-3}:
``convergent_triples`` streams it forward, ``convergent_matrix`` multiplies
digit matrices in blocks on a product tree, and ``backward_entry`` runs it
from the tail.  ``det3``, ``mat_mul3`` and ``_adjugate`` are the one set of
3x3 integer matrix helpers.

Every function works on plain arbitrary-precision integers, Python sequences
and 3x3 matrices given as tuples of row tuples.
"""

# Digits per leaf of convergent_matrix's product tree; on random digits 1-9
# and n from 200 to 40,000, packed leaves of 32 to 96 digits ran within 12%.
_BLOCK = 48


def rational_digits(corners, limit=None):
    """Expand rational pairs (alpha, beta) = (u/w, v/w), w > 0, in lockstep.

    Each of the 1, 2 or 4 triples runs u' = w, v' = u - a*w, w' = v - b*w,
    where a = floor(u/w) and b = floor(v/w); the denominators strictly
    decrease.  The run stops before the first index where the triples'
    pairs (a, b) differ or some beta is integral (w divides v), or after
    ``limit`` pairs.  Triples after the first need no division: one keeps
    the first's digits exactly when 0 <= u - a*w < w and 0 < v - b*w < w.

    Returns ``(a, b, trace)``: the shared digits, as many a's as b's, and
    the first triple at each index, from the input to where the run stopped.
    """
    (u, v, w), rest = corners[0], corners[1:]
    a = []
    b = []
    trace = [(u, v, w)]
    while len(b) != limit:
        bi = v // w
        r = v - bi * w
        if r == 0:
            break
        ai = u // w
        if rest:
            rest = [(z, x - ai * z, y - bi * z) for x, y, z in rest]
            if not all(0 <= t < z and 0 < s < z for z, t, s in rest):
                break
        a.append(ai)
        b.append(bi)
        u, v, w = w, u - ai * w, r
        trace.append((u, v, w))
    return a, b, trace


def convergent_triples(a, b, n):
    """Yield the convergent triples (A_i, B_i, C_i) for i = 0..n.

    Each of A, B, C obeys the third-order forward recurrence
    X_i = a_i*X_{i-1} + b_i*X_{i-2} + X_{i-3}; the three sequences differ
    only in their notional seeds (X_{-1}, X_{-2}, X_{-3}):
    A: (1, 0, 0), B: (0, 1, 0), C: (0, 0, 1).
    """
    a1, a2, a3 = 1, 0, 0
    b1, b2, b3 = 0, 1, 0
    c1, c2, c3 = 0, 0, 1
    for i in range(n + 1):
        ai = a[i]
        bi = b[i]
        ta = ai * a1 + bi * a2 + a3
        tb = ai * b1 + bi * b2 + b3
        tc = ai * c1 + bi * c2 + c3
        yield ta, tb, tc
        a1, a2, a3 = ta, a1, a2
        b1, b2, b3 = tb, b1, b2
        c1, c2, c3 = tc, c1, c2


def backward_entry(a, b, m, n):
    """Return (A_{m,n}, B_{m,n}, A_{m+1,n}) by the backward recurrence in m.

    Uses A_{m,n} = a_m*A_{m+1,n} + b_{m+1}*A_{m+2,n} + A_{m+3,n} with the
    notional start A_{n+1,n} = 1, A_{n+2,n} = A_{n+3,n} = 0, and
    B_{m,n} = b_m*A_{m+1,n} + A_{m+2,n}.
    """
    x1, x2, x3 = 1, 0, 0
    for k in range(n, m - 1, -1):
        bk1 = b[k + 1] if k + 1 <= n else 0
        x1, x2, x3 = a[k] * x1 + bk1 * x2 + x3, x1, x2
    return x1, b[m] * x2 + x3, x2


def convergent_matrix(a, b, n):
    """Multiply the digit matrices for indices 0..n on a product tree.

    Returns a 3x3 tuple of tuples whose rows are (A_n, A_{n-1}, A_{n-2}),
    (B_n, B_{n-1}, B_{n-2}), (C_n, C_{n-1}, C_{n-2}): the transposed product
    of the per-digit matrices [[a_i, b_i, 1], [1, 0, 0], [0, 1, 0]].  Each
    leaf covers _BLOCK consecutive digits and runs the row recurrence
    (x, y, z) -> (a_i*x + b_i*y + z, x, y) from the identity, its three rows
    packed into one integer per column; ``mat_mul3`` then multiplies
    neighbouring leaves pairwise, level by level, so the few big products
    have balanced sizes.  For n = -1 the product is empty and the identity
    comes back.

    Digits must be nonnegative, as ``SequencePair`` makes them.  A leaf of
    L digits packs into slots of w = L * bit_length(m) bits, m = max a +
    max b + 1, that never carry: a step multiplies the largest entry by at
    most a_i + b_i + 1, so entries stay <= prod(a_i + b_i + 1) <= m**L < 2**w.
    """
    level = []
    for start in range(0, n + 1, _BLOCK):
        stop = min(start + _BLOCK, n + 1)
        a_leaf, b_leaf = a[start:stop], b[start:stop]
        w = len(a_leaf) * (max(a_leaf) + max(b_leaf) + 1).bit_length()
        x, y, z = 1, 1 << w, 1 << 2 * w
        for ai, bi in zip(a_leaf, b_leaf):
            x, y, z = ai * x + bi * y + z, x, y
        mask, w2 = (1 << w) - 1, 2 * w
        level.append(((x & mask, y & mask, z & mask),
                      (x >> w & mask, y >> w & mask, z >> w & mask),
                      (x >> w2, y >> w2, z >> w2)))
    while len(level) > 1:
        paired = [mat_mul3(x, y) for x, y in zip(level[::2], level[1::2])]
        level = paired + level[2 * len(paired):]
    return level[0] if level else ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def det3(m):
    """Determinant of a 3x3 matrix."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def mat_mul3(x, y):
    """Product x*y of two 3x3 matrices."""
    (x11, x12, x13), (x21, x22, x23), (x31, x32, x33) = x
    (y11, y12, y13), (y21, y22, y23), (y31, y32, y33) = y
    return (
        (x11 * y11 + x12 * y21 + x13 * y31,
         x11 * y12 + x12 * y22 + x13 * y32,
         x11 * y13 + x12 * y23 + x13 * y33),
        (x21 * y11 + x22 * y21 + x23 * y31,
         x21 * y12 + x22 * y22 + x23 * y32,
         x21 * y13 + x22 * y23 + x23 * y33),
        (x31 * y11 + x32 * y21 + x33 * y31,
         x31 * y12 + x32 * y22 + x33 * y32,
         x31 * y13 + x32 * y23 + x33 * y33),
    )


def _adjugate(m):
    """Adjugate of a 3x3 matrix, so that adj(m) * m = det(m) * I."""
    return tuple(
        tuple(
            m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
            - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]
            for j in range(3)
        )
        for i in range(3)
    )
