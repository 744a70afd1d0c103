"""Evaluation of digit-sequence pairs: tree sums, convergents, diagnostics.

A sequence pair encodes two intertwined towers of fractions (the alpha tree
and the beta tree).  Truncating both at depth n and collapsing yields the
n-term convergents alpha_n = A_n/C_n and beta_n = B_n/C_n, where A, B, C
are integer triple-recurrence sequences.  This module computes those
convergents by three independent routes (a streamed forward recurrence, a
backward recurrence, and digit-matrix products multiplied in blocks on a
balanced product tree, the route ``eval`` prints), the determinant
invariant tying them together, exact convergence diagnostics, and text
renderings of the trees.
"""

import sys
from collections import deque, namedtuple
from fractions import Fraction
from itertools import pairwise

from . import _kernels
from .errors import IndexOutOfRange, InvalidSequence, OutputTooLarge
from .fields import _as_exact, _check_count, _check_index, _check_int, _shown
from .sequences import _check_digits, as_pair as _as_pair

# Through depth d, render_tree writes F(d + 5) - 3 digit nodes (F(1) = F(2)
# = 1): 1,346,266 at depth 26 and 2,178,306 at depth 27, past the budget.
_RENDER_NODE_BUDGET = 2**21
_RENDER_DEPTH_LIMIT = 26


def _digit_lists(seqs, n, refusal=None):
    """Digits 0..n of seqs (through as_pair) as two lists: the one reader of
    the six convergent routes.  n must be an int, not a bool; then the
    route's range test refusal(n) may return an error to raise, and the
    index rule refuses a negative n, before any digit is read."""
    pair = _as_pair(seqs)
    _check_int(n, "index")
    error = refusal and refusal(n)
    if error:
        raise error
    _check_index(n)
    if n < len(pair.a) and n < len(pair.b):
        return pair.a[:n + 1], pair.b[:n + 1]
    return ([pair.digit_a(i) for i in range(n + 1)],
            [pair.digit_b(i) for i in range(n + 1)])


class ConvergentTriple(namedtuple("ConvergentTriple", "n A B C")):
    """Exact n-term convergent data: integers A, B, C with alpha_n = A/C."""

    __slots__ = ()

    @property
    def alpha(self):
        return Fraction(self.A, self.C)

    @property
    def beta(self):
        return Fraction(self.B, self.C)


class ConvergenceDiagnostics(
        namedtuple("ConvergenceDiagnostics", "delta dmax certificate")):
    """Exact gap series of a sequence pair.

    ``delta`` holds Delta_n = |A_n/C_n - A_{n-1}/C_{n-1}| for n = 1..N;
    ``dmax`` holds D_n = max(Delta_{n-1}, Delta_{n-2}, Delta_{n-3}) for
    n = 4..N.  ``certificate`` is True when D_{n+1} <= D_n at every
    consecutive index and D_{n+4} < (35/36) * D_n at every index four
    apart — the exact monotone-domination guarantees.
    """

    __slots__ = ()

    def delta_at(self, n):
        _check_int(n, "n")
        if not 1 <= n <= len(self.delta):
            raise IndexOutOfRange(
                f"delta is available for 1 <= n <= {len(self.delta)}, got {_shown(n)}"
            )
        return self.delta[n - 1]

    def dmax_at(self, n):
        _check_int(n, "n")
        if not 4 <= n <= len(self.dmax) + 3:
            raise IndexOutOfRange(
                f"dmax is available for 4 <= n <= {len(self.dmax) + 3}, "
                f"got {_shown(n)}"
            )
        return self.dmax[n - 4]


def _exact_positive(value, what):
    value = _as_exact(value, what)
    if not value > 0:
        raise ValueError(f"{what} must be positive")
    return value


def tree_sum(a, b):
    """Collapse a finite pair of towers to exact values (alpha, beta).

    Both sequences must have the same length; every entry except the last
    is a nonnegative integer digit, and the final entries are the positive
    terminal values standing at the deepest level.  Folding upward applies
    alpha <- a_k + beta'/alpha' and beta <- b_k + 1/alpha' until the pair
    [{alpha_0}, {beta_0}] remains.  A bad digit is an InvalidSequence (a
    ValueError), a terminal entry that is not an exact number a TypeError,
    and a nonpositive one a ValueError.
    """
    a, b = list(a), list(b)
    if len(a) != len(b):
        raise ValueError(
            f"sequences must have equal length, got {len(a)} and {len(b)}"
        )
    if not a:
        raise ValueError("sequences must be nonempty")
    _check_digits("a", a[:-1])
    _check_digits("b", b[:-1])
    x = _exact_positive(a[-1], "terminal alpha entry")
    y = _exact_positive(b[-1], "terminal beta entry")
    for k in range(len(a) - 2, -1, -1):
        x, y = a[k] + y / x, b[k] + 1 / x
    return x, y


def convergent(seqs, n):
    """n-term convergent triple by the forward three-term recurrence."""
    a, b = _digit_lists(seqs, n)
    A, B, C = deque(_kernels.convergent_triples(a, b, n), maxlen=1).pop()
    return ConvergentTriple(n, A, B, C)


def convergent_sequence(seqs, n):
    """All convergent triples for indices 0..n (one forward pass)."""
    a, b = _digit_lists(seqs, n)
    return [
        ConvergentTriple(i, A, B, C)
        for i, (A, B, C) in enumerate(_kernels.convergent_triples(a, b, n))
    ]


def convergent_backward(seqs, m, n):
    """Table entries (A_mn, B_mn, A_{m+1,n}) by the backward recurrence.

    The recurrence runs over the first index at fixed n; at m = 0 the
    entries coincide with the forward convergent (A_n, B_n) and C_n.
    """
    _check_int(m, "m")
    a, b = _digit_lists(
        seqs, n, lambda n: not 0 <= m <= n
        and IndexOutOfRange(f"need 0 <= m <= n, got m={_shown(m)}, n={_shown(n)}"))
    return _kernels.backward_entry(a, b, m, n)


def convergent_matrix(seqs, n):
    """n-term convergent triple read off a product of digit matrices.

    Each digit pair contributes R_i = [[a_i, b_i, 1], [1, 0, 0], [0, 1, 0]];
    the product, multiplied in digit blocks on a balanced tree, carries the
    last three convergent triples as its columns, and (A_n, B_n, C_n) is its
    first column.
    """
    a, b = _digit_lists(seqs, n)
    rows = _kernels.convergent_matrix(a, b, n)
    return ConvergentTriple(n, rows[0][0], rows[1][0], rows[2][0])


def det_invariant(seqs, n):
    """Determinant of the last three convergent triples (expected value 1)."""
    a, b = _digit_lists(seqs, n, lambda n: n < 2 and IndexOutOfRange(
        f"determinant needs n >= 2, got {_shown(n)}"))
    return _kernels.det3(_kernels.convergent_matrix(a, b, n))


def gap_diagnostics(seqs, N):
    """Exact convergence diagnostics over the first N+1 digit pairs.

    Requires N >= 8 (so at least a few dominated-maximum terms exist) and
    a_i >= 1 for 1 <= i <= N, the hypothesis under which the gap series
    is guaranteed to shrink.
    """
    a, b = _digit_lists(seqs, N, lambda N: N < 8 and ValueError(
        f"diagnostics need N >= 8, got {_shown(N)}"))
    for i in range(1, N + 1):
        if a[i] < 1:
            raise InvalidSequence(f"diagnostics require a[{i}] >= 1, got {a[i]}")
    triples = _kernels.convergent_triples(a, b, N)
    delta = tuple(
        Fraction(abs(A * C1 - A1 * C), C * C1)
        for (A1, _, C1), (A, _, C) in pairwise(triples)
    )
    dmax = tuple(
        max(delta[n - 2], delta[n - 3], delta[n - 4]) for n in range(4, N + 1)
    )
    ratio = Fraction(35, 36)
    monotone = all(later <= earlier for earlier, later in zip(dmax, dmax[1:]))
    contracting = all(
        dmax[i + 4] < ratio * dmax[i] for i in range(len(dmax) - 4)
    )
    return ConvergenceDiagnostics(delta, dmax, monotone and contracting)


def node_counts(depth):
    """Nodes per level: a-nodes of the alpha tree, b-nodes of the beta tree.

    Within either tree the level counts follow the Fibonacci rule
    count(L+1) = count(L) + count(L-1) once both node kinds are summed;
    the alpha tree starts from a single a-node, the beta tree from a
    single b-node.  A depth of sys.maxsize or more raises OutputTooLarge.
    """
    _check_count(depth, "depth", 0)
    if depth >= sys.maxsize:
        raise OutputTooLarge(f"depth {_shown(depth)}: more levels than a tuple holds")
    levels, fa, fb, beta = [], 1, 0, 1
    for _ in range(depth + 1):
        levels.append((fa, beta))
        fa, fb, beta = fa + fb, fa, fb
    return tuple(zip(*levels))


def _render_ascii(pair, depth):
    lines = []

    def a_node(level, label):
        lines.append(f"{'  ' * level}{label}a[{level}]={pair.digit_a(level)}")
        if level < depth:
            b_node(level + 1, "num ")
            a_node(level + 1, "den ")

    def b_node(level, label):
        lines.append(f"{'  ' * level}{label}b[{level}]={pair.digit_b(level)}")
        if level < depth:
            lines.append(f"{'  ' * (level + 1)}num 1")
            a_node(level + 1, "den ")

    a_node(0, "alpha: ")
    lines.append("")
    b_node(0, "beta: ")
    return "\n".join(lines)


def _render_latex(pair, depth):
    def a_expr(level):
        d = pair.digit_a(level)
        if level == depth:
            return str(d)
        return f"{d}+\\cfrac{{{b_expr(level + 1)}}}{{{a_expr(level + 1)}}}"

    def b_expr(level):
        d = pair.digit_b(level)
        if level == depth:
            return str(d)
        return f"{d}+\\cfrac{{1}}{{{a_expr(level + 1)}}}"

    return f"\\alpha = {a_expr(0)}\n\\beta = {b_expr(0)}"


def render_tree(seqs, depth, format="ascii"):
    """Render both towers down to the given level as stable plain text.

    In ``ascii`` format each node occupies one line in an indented outline
    (two spaces per level): a-nodes expand into a ``num`` branch holding the
    next b-digit and a ``den`` branch holding the next a-digit, b-nodes into
    a literal ``num 1`` and a ``den`` branch.  Nodes at the cutoff level
    show just their digit.  In ``latex`` format each tower collapses to one
    line of nested ``\\cfrac`` markup.  Output uses LF separators, has no
    trailing whitespace, and carries no trailing newline.  Through depth d
    the towers hold F(d + 5) - 3 digit nodes (F(1) = F(2) = 1), more than
    2**21 from depth 27 on, where OutputTooLarge is raised.
    """
    pair = _as_pair(seqs)
    _check_index(depth, "depth")
    if depth > _RENDER_DEPTH_LIMIT:
        raise OutputTooLarge(
            f"depth {_shown(depth)} renders more than {_RENDER_NODE_BUDGET} nodes"
        )
    if format == "ascii":
        return _render_ascii(pair, depth)
    if format == "latex":
        return _render_latex(pair, depth)
    raise ValueError(f"unknown format {format!r}; expected 'ascii' or 'latex'")
