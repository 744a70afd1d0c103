"""Integer kernels for the digit-sequence loops and 3x3 integer matrices.

Every convergent comes from one third-order recurrence,
X_i = a_i*X_{i-1} + b_i*X_{i-2} + X_{i-3}: ``convergent_triples`` runs it
forward, ``convergent_matrix`` accumulates it as a product of digit
matrices, and ``backward_entry`` runs it from the tail.  ``det3``,
``mat_mul3`` and ``_adjugate`` are the one set of 3x3 integer matrix helpers.

Every function works on plain arbitrary-precision integers, Python sequences
and 3x3 matrices given as tuples of row tuples.
"""


def rational_digits(u, v, w, limit=None):
    """Expand the rational pair (alpha, beta) = (u/w, v/w) digit by digit.

    Runs the integer triple recurrence u' = w, v' = u - a*w, w' = v - b*w,
    where a = floor(u/w) and b = floor(v/w), until beta becomes integral
    (w divides v).  The denominators strictly decrease, so the run always
    terminates.  With ``limit`` it stops after that many digit pairs, like
    ``bcf_expand(max_terms=limit)``, unless beta turns integral first.

    Returns ``(a, b, trace)``; ``trace`` lists every (u, v, w) triple
    visited, starting with the input.  A terminated run's b-side carries
    one digit more than its a-side, and its unreduced terminal alpha is u/w
    of the last triple; a run stopped by ``limit`` has equal sides.
    """
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


def convergent_triples(a, b, n):
    """Return the convergent triples (A_i, B_i, C_i) for i = 0..n.

    Each of A, B, C obeys the third-order forward recurrence
    X_i = a_i*X_{i-1} + b_i*X_{i-2} + X_{i-3}; the three sequences differ
    only in their notional seeds (X_{-1}, X_{-2}, X_{-3}):
    A: (1, 0, 0), B: (0, 1, 0), C: (0, 0, 1).
    """
    a1, a2, a3 = 1, 0, 0
    b1, b2, b3 = 0, 1, 0
    c1, c2, c3 = 0, 0, 1
    out = []
    for i in range(n + 1):
        ai = a[i]
        bi = b[i]
        ta = ai * a1 + bi * a2 + a3
        tb = ai * b1 + bi * b2 + b3
        tc = ai * c1 + bi * c2 + c3
        out.append((ta, tb, tc))
        a1, a2, a3 = ta, a1, a2
        b1, b2, b3 = tb, b1, b2
        c1, c2, c3 = tc, c1, c2
    return out


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
    """Accumulate the digit-matrix product for indices 0..n.

    Returns a 3x3 tuple of tuples whose rows are (A_n, A_{n-1}, A_{n-2}),
    (B_n, B_{n-1}, B_{n-2}), (C_n, C_{n-1}, C_{n-2}): the transposed product
    of the per-digit matrices [[a_i, b_i, 1], [1, 0, 0], [0, 1, 0]].  Each row
    evolves by (x, y, z) -> (a_i*x + b_i*y + z, x, y).  For n = -1 the
    product is empty and the identity comes back.
    """
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for i in range(n + 1):
        ai = a[i]
        bi = b[i]
        for r in rows:
            r[0], r[1], r[2] = ai * r[0] + bi * r[1] + r[2], r[0], r[1]
    return tuple(tuple(r) for r in rows)


def det3(m):
    """Determinant of a 3x3 matrix."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def mat_mul3(x, y):
    """Product x*y of two 3x3 matrices."""
    return tuple(
        tuple(sum(p * q for p, q in zip(row, col)) for col in zip(*y))
        for row in x
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
