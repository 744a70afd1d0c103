"""Admissibility rules for digit pairs and representation checks for reals.

A digit pair can only arise from an expansion when, at every index i >= 1,
a_i >= 1 and a_i >= b_i, and whenever a_i = b_i the following b-digit is
nonzero.  ``validate`` applies those rules to a stored pair.  The
representation checks take an exact pair (alpha, beta) plus candidate
digits, advance the recurrence with the *given* digits through the public
operators (``expansion._next``, one inversion per step), and test the
defining inequalities (proper) or the floor conditions (appropriate)
along the way.
"""

from collections import namedtuple
from itertools import chain

from .errors import IndexOutOfRange
from .expansion import _next, _unify_pair
from .fields import _check_index, floor_of
from .sequences import as_pair

RULE_A_BELOW_ONE = "a_below_one"
RULE_A_LESS_THAN_B = "a_less_than_b"
RULE_EQUAL_THEN_B_ZERO = "equal_then_b_zero"


class ValidationReport(namedtuple(
        "ValidationReport", "valid violations indeterminate last_checked")):
    """Outcome of the admissibility rules on a stored digit pair.

    ``violations`` lists (index, rule) pairs; ``valid`` is true exactly when
    it is empty.  ``indeterminate`` lists indices where a_i = b_i but the
    lookahead digit b_{i+1} lies beyond the stored data, so the zero-check
    could not be decided.  ``last_checked`` is the highest digit index
    examined (-1 when there are no digits).
    """

    __slots__ = ()


def validate(seqs):
    """Apply the admissibility rules to every checkable index of a pair.

    Index 0 is unconstrained as the start of the sequence, but when a pair
    is purely periodic its leading digits recur at every multiple of the
    period, so the rules are also applied to that recurrence (reported at
    the first wrapped index beyond the stored digits).  With that wrap
    check, every rule instance of the infinite periodic sequence is
    covered and no index is indeterminate; terminated pairs carry one
    extra b-digit that settles the final lookahead.
    """
    pair = as_pair(seqs)
    n = len(pair.a)
    slots = zip(range(1, n), pair.a[1:], pair.b[1:])
    if pair.periodicity is not None and pair.preperiod == 0:
        wrap = pair.period * -(-n // pair.period)
        slots = chain(slots, [(wrap, pair.a[0], pair.b[0])])
    violations = []
    indeterminate = []
    for i, a_i, b_i in slots:
        if a_i < 1:
            violations.append((i, RULE_A_BELOW_ONE))
        if a_i < b_i:
            violations.append((i, RULE_A_LESS_THAN_B))
        if a_i == b_i:
            try:
                lookahead = pair.digit_b(i + 1)
            except IndexOutOfRange:
                indeterminate.append(i)
            else:
                if lookahead == 0:
                    violations.append((i, RULE_EQUAL_THEN_B_ZERO))
    return ValidationReport(
        valid=not violations,
        violations=tuple(violations),
        indeterminate=tuple(indeterminate),
        last_checked=n - 1,
    )


def _tail_states(alpha, beta, pair, n):
    """Yield (k, alpha_k, beta_k) for k = 0..n, advancing with given digits."""
    _check_index(n, "n")
    yield 0, alpha, beta
    for i in range(n):
        alpha, beta = _next(alpha, beta, pair.digit_a(i), pair.digit_b(i))
        yield i + 1, alpha, beta


def check_proper(alpha, beta, seqs, n):
    """Whether the digits give a proper representation of (alpha, beta).

    The tail pairs (alpha_k, beta_k) are computed by running the expansion
    recurrence with the digits as given; the representation is proper when
    every tail with 1 <= k <= n satisfies beta_k > 0, alpha_k > 1, and
    alpha_k > beta_k (all strict).  n = 0 is vacuously proper.  Raises
    ZeroDivisionError if some beta_i equals b_i exactly, which means the
    recurrence itself breaks down.
    """
    pair = as_pair(seqs)
    alpha, beta = _unify_pair(alpha, beta)
    for k, tail_alpha, tail_beta in _tail_states(alpha, beta, pair, n):
        if k == 0:
            continue
        if not (tail_beta > 0 and tail_alpha > 1 and tail_alpha > tail_beta):
            return False
    return True


def check_appropriate(alpha, beta, seqs, n):
    """Whether the digits give an appropriate representation of (alpha, beta).

    Same tail computation as check_proper; the representation is
    appropriate when floor(alpha_k) = a_k and floor(beta_k) = b_k for
    every 0 <= k <= n (index 0 included).
    """
    pair = as_pair(seqs)
    alpha, beta = _unify_pair(alpha, beta)
    for k, tail_alpha, tail_beta in _tail_states(alpha, beta, pair, n):
        if floor_of(tail_alpha) != pair.digit_a(k):
            return False
        if floor_of(tail_beta) != pair.digit_b(k):
            return False
    return True
