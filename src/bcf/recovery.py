"""Cubic recovery from periodic digit pairs, and a scanner for periodicity.

An eventually periodic expansion pins down its source pair algebraically.
Each digit pair contributes a unimodular matrix R_i = [[a_i, b_i, 1],
[1, 0, 0], [0, 1, 0]], one step of the convergent recurrence
X_i = a_i*X_{i-1} + b_i*X_{i-2} + X_{i-3}.  The preperiod product P and
the period product Q are read from the one kernel
``_kernels.convergent_matrix`` and combined with the kernel module's 3x3
helpers into the integer transfer matrix M = P^-1 Q P, with the row
eigen-relation (alpha, beta, 1) M = lambda (alpha, beta, 1).  Eliminating
lambda gives beta as a rational function of alpha and, after substitution,
an integer polynomial relation for alpha whose degree-4 coefficient cancels
identically.  That elimination is written once, in
``recover_cubic_eventual``; a purely periodic pair is the case P = I.
Recovery has one degeneracy guard: M's characteristic polynomial chi, a
monic integer cubic with constant term -1, must not vanish at 1 or -1,
its only possible rational roots.  Past the guard chi is irreducible,
alpha is cubic and the primitive relation is its minimal polynomial;
recovery isolates alpha's root in a convergent ball that alpha's Sturm
chain checks, and rebuilds the exact (alpha, beta) pair.

A scanner then probes cubic fields for periodic expansions
experimentally; the period of each expansion is the one ``bcf_expand``
finds, when a state of its orbit recurs.  Each scanned polynomial gets
one Sturm chain.  The rational-root search on it decides
irreducibility first (a cubic is reducible exactly when it has a rational
root), whatever the signs of the roots; the same chain isolates the real
roots; a root's sign is read from its isolating interval and the sign of
f(0), and a field is built, on that chain, for each positive root only.
"""

import os
from collections import namedtuple

from . import _kernels, polys
from .errors import (
    BcfError,
    DegenerateSystem,
    InvalidSequence,
    NonPositiveInput,
)
from .expansion import bcf_expand
from .fields import _as_ints, _check_count, _field_on_chain
from .literals import RatFunc
from .sequences import SequencePair, as_pair
from .treeval import convergent_sequence
from .validation import validate


class RecoveredCubic(namedtuple(
        "RecoveredCubic", "poly beta_expr field alpha beta quartic matrix")):
    """Recovered algebraic description of a periodic expansion's source.

    ``poly`` is the minimal polynomial of alpha: integer coefficients in
    descending order, content 1, positive leading coefficient, degree 3.
    ``beta_expr`` is the RatFunc, a canonical (numerator, denominator)
    pair of integer coefficient tuples, giving beta in alpha.  ``field``,
    ``alpha``, and ``beta`` carry the reconstructed exact values;
    ``quartic`` is the degree-4 elimination polynomial as a 5-tuple whose
    leading entry is certified zero (its sign is whatever the elimination
    gives, so only its roots carry meaning); ``matrix`` is the integer
    transfer matrix, the plain period product for a pure period.
    """

    __slots__ = ()


def _pad5(coeffs):
    """One product of the elimination, trimmed as polys.multiply returns it,
    zero-padded on the left to five entries: beta's numerator has degree
    <= 2 and its denominator <= 1, so each of the three products that sum
    to the quartic has degree <= 4."""
    return (0,) * (5 - len(coeffs)) + coeffs


def _field_in_ball(chain, ball_pair):
    """The number field of the irreducible chain[0], on its Sturm chain
    chain, whose root the convergents of ball_pair approach.

    alpha_h sits within 144 * max(Delta_{h-2}, Delta_{h-1}, Delta_h) of the
    limit: the gap series is dominated by that monotone maximum, which
    contracts by 35/36 every four indices, so the tail sum is at most
    4 * 36 times it.  The ball is never empty (consecutive convergent
    triples have determinant 1), and the horizon doubles until the chain
    counts exactly one root of the polynomial in it.
    """
    horizon = 8
    while True:
        alphas = [t.alpha for t in convergent_sequence(ball_pair, horizon)[-4:]]
        radius = 144 * max(abs(x - y) for x, y in zip(alphas, alphas[1:]))
        lo, hi = alphas[-1] - radius, alphas[-1] + radius
        if polys.count_roots(chain, lo, hi) == 1:
            return _field_on_chain(chain, lo, hi)
        horizon *= 2


def recover_cubic_pure(seqs):
    """Recover (alpha, beta) from one full period of a purely periodic pair.

    A pure period is the eventual case with an empty preperiod (P = I, so
    the transfer matrix is the period's own digit product): the pair's
    period is read off (its marked period, or all its digits when it is
    unmarked) and handed to ``recover_cubic_eventual``.
    """
    pair = as_pair(seqs)
    if pair.terminated:
        raise InvalidSequence("a terminated pair has no period to recover")
    if pair.periodicity is not None:
        k, m = pair.periodicity
        if k != 0:
            raise InvalidSequence(
                "pair has a preperiod; use recover_cubic_eventual"
            )
        a, b = pair.a[:m], pair.b[:m]
    else:
        a, b = pair.a, pair.b
    return recover_cubic_eventual(((), ()), (a, b))


def transfer_matrix(preperiod, period):
    """Integer matrix M = P^-1 Q P for the given preperiod and period digits.

    P multiplies the preperiod digit matrices in decreasing index order
    (identity for an empty preperiod) and Q does the same over one period;
    every factor has determinant 1, so P^-1 = adj(P) and M is integral and
    unimodular.  ``_kernels.convergent_matrix`` gives the transposes K_P
    and K_Q, so M is the transpose of K_P K_Q adj(K_P).  A terminated
    argument, or an empty period, raises InvalidSequence.
    """
    pre, per = as_pair(preperiod), as_pair(period)
    if pre.terminated or per.terminated:
        raise InvalidSequence("terminated pairs have no period to recover")
    if not per.a:
        raise InvalidSequence("period must contain at least one digit pair")
    kp, kq = (_kernels.convergent_matrix(pair.a, pair.b, len(pair.a) - 1)
              for pair in (pre, per))
    m = _kernels.mat_mul3(kp, _kernels.mat_mul3(kq, _kernels._adjugate(kp)))
    return tuple(zip(*m))


def recover_cubic_eventual(preperiod, period):
    """Recover (alpha, beta) from preperiod plus period digit pairs.

    Builds the transfer matrix M and eliminates the eigenvalue from the
    row relation (alpha, beta, 1) M = lambda (alpha, beta, 1): beta =
    (-M13 a^2 + (M11 - M33) a + M31) / (M23 a - M21), and substitution
    into the middle column yields the elimination quartic.

    One guard comes first.  chi(x) = det(xI - M) = x^3 - tr(M) x^2 +
    tr(adj M) x - 1 is a monic integer cubic with constant term -1, so
    its only possible rational roots are 1 and -1, and a rational root
    means that 1, alpha and beta are linearly dependent: DegenerateSystem
    is raised when chi(1) or chi(-1) is 0.  Past the guard chi is
    irreducible, so M21 and M23 are not both 0 (row 2 of M would be a
    left eigenvector with the rational eigenvalue M22), and alpha, which
    lies in Q(lambda) and is not rational, is cubic.  The relation has
    degree at most 3 and vanishes at the alpha-coordinates of the three
    conjugate eigenvectors; it is not zero, since then every alpha would
    give an eigenvector, which needs a double root of chi.  So the
    primitive relation is alpha's minimal polynomial.
    """
    pre, per = as_pair(preperiod), as_pair(period)
    matrix = transfer_matrix(pre, per)
    pair = SequencePair(pre.a + per.a, pre.b + per.b,
                        periodicity=(len(pre.a), len(per.a)))
    report = validate(pair)
    if not report.valid:
        raise InvalidSequence(
            f"digits fail the admissibility rules at {list(report.violations)}"
        )
    adjugate = _kernels._adjugate(matrix)
    chi = (1, -(matrix[0][0] + matrix[1][1] + matrix[2][2]),
           adjugate[0][0] + adjugate[1][1] + adjugate[2][2], -1)
    if 0 in (polys.evaluate(chi, 1), polys.evaluate(chi, -1)):
        raise DegenerateSystem(
            "transfer matrix has eigenvalue 1 or -1: "
            "1, alpha and beta are linearly dependent"
        )
    (m11, m12, m13), (m21, m22, m23), (m31, m32, m33) = matrix
    beta_num = polys.trim((-m13, m11 - m33, m31))
    beta_den = polys.trim((m23, -m21))
    terms = (
        polys.multiply((m12, m32), polys.multiply(beta_den, beta_den)),
        polys.multiply((-m13, m22 - m33), polys.multiply(beta_num, beta_den)),
        polys.multiply((-m23,), polys.multiply(beta_num, beta_num)),
    )
    quartic5 = tuple(map(sum, zip(*map(_pad5, terms))))
    min_poly = polys.primitive(quartic5)
    field = _field_in_ball(polys.sturm_chain(min_poly), pair)
    alpha = field.generator()
    beta_expr = RatFunc(beta_num, beta_den)
    return RecoveredCubic(
        poly=min_poly,
        beta_expr=beta_expr,
        field=field,
        alpha=alpha,
        beta=beta_expr.evaluate(alpha),
        quartic=quartic5,
        matrix=matrix,
    )


# -- experimental scanner ----------------------------------------------------

STATUS_PERIODIC = "periodic"
STATUS_TERMINATED = "terminated"
STATUS_EXHAUSTED = "exhausted"
STATUS_SKIPPED_REDUCIBLE = "skipped-reducible"
STATUS_SKIPPED_NO_POSITIVE_ROOT = "skipped-no-positive-root"
STATUS_SKIPPED_NONPOSITIVE_BETA = "skipped-nonpositive-beta"
STATUS_ERROR = "error"


class ScanRecord(namedtuple("ScanRecord", "min_poly interval beta_expr status "
                             "preperiod period digits_preview")):
    """One scanner observation: a field/RatFunc candidate and what happened.

    ``min_poly`` and ``status`` are always set; ``interval`` (a pair of
    Fractions), ``beta_expr`` (a RatFunc), ``preperiod``, ``period`` and
    ``digits_preview`` (an (a, b) pair of digit tuples) are None where the
    status leaves them unknown.
    """

    __slots__ = ()


def _root_is_positive(f, lo, hi):
    """Whether f's one root in (lo, hi) is positive, for f(0) != 0: with 0
    inside, exactly when f has its sign at lo at 0 too."""
    if lo < 0 < hi:
        return polys._sign(f[-1]) == polys._sign_at(f, lo.numerator, lo.denominator)
    return lo >= 0


def _scan_single_poly(task):
    coeffs, candidates, horizon, preview = task
    records = []

    def record(status, interval=None, beta_expr=None, preperiod=None,
               period=None, digits=None):
        records.append(ScanRecord(coeffs, interval, beta_expr, status,
                                  preperiod, period, digits))

    if polys.degree(coeffs) != 3:
        record(STATUS_ERROR)
        return records
    # One chain and one bisection serve the irreducibility test, the
    # isolation and every field, which is built for positive roots only.
    f = polys.primitive(coeffs)
    chain = polys.sturm_chain(f)
    intervals = polys._isolate(chain)
    if intervals is None:
        record(STATUS_SKIPPED_REDUCIBLE)
        return records
    roots = [
        ((lo, hi), _field_on_chain(chain, lo, hi).generator())
        for lo, hi in intervals
        if _root_is_positive(f, lo, hi)
    ]
    if not roots:
        record(STATUS_SKIPPED_NO_POSITIVE_ROOT)
        return records
    for interval, alpha in roots:
        for beta_expr in candidates:
            try:
                beta = beta_expr.evaluate(alpha)
                pair = bcf_expand(alpha, beta, max_terms=horizon)
            except NonPositiveInput:
                record(STATUS_SKIPPED_NONPOSITIVE_BETA, interval, beta_expr)
                continue
            except (BcfError, ZeroDivisionError):
                record(STATUS_ERROR, interval, beta_expr)
                continue
            digits = (pair.a[:preview], pair.b[:preview])
            if pair.terminated:
                record(STATUS_TERMINATED, interval, beta_expr, digits=digits)
            elif pair.periodicity is not None:
                k, m = pair.periodicity
                record(STATUS_PERIODIC, interval, beta_expr, k, m, digits)
            else:
                record(STATUS_EXHAUSTED, interval, beta_expr, digits=digits)
    return records


def conjecture_scan(field_family, beta_candidates, horizon, jobs=None,
                    preview_digits=8):
    """Probe cubic fields for eventually periodic expansions.

    ``field_family`` iterates integer coefficient tuples of cubic
    polynomials; ``beta_candidates`` iterates RatFuncs, or (num, den)
    pairs of integer coefficient tuples that become one, giving beta in
    alpha; ``horizon`` bounds each expansion, whose first ``preview_digits``
    (>= 0) digit pairs its record keeps; a coefficient or count that is not
    an int, or is a bool, is a TypeError.  Every (positive root, candidate)
    combination yields one ScanRecord; reducible polynomials, rootless
    families, nonpositive betas, and per-candidate failures are recorded as
    skips or errors, never raised.  A hit reports what was found within the
    horizon; an exhausted record proves that no state of its expansion
    recurs with j + m <= horizon - 1 (see bcf_expand).  ``jobs`` is None or
    at least 1; above 1, min(jobs, polynomials, CPUs) worker processes share
    the polynomials.
    """
    _check_count(horizon, "horizon")
    _check_count(preview_digits, "preview_digits", 0)
    if jobs is not None:
        _check_count(jobs, "jobs")
    family = [_as_ints(coeffs, "field_family") for coeffs in field_family]
    candidates = [
        beta if isinstance(beta, RatFunc) else RatFunc(*beta)
        for beta in beta_candidates
    ]
    if not candidates:
        raise ValueError("beta_candidates must be nonempty")
    tasks = [
        (coeffs, candidates, horizon, preview_digits) for coeffs in family
    ]
    workers = min(jobs or 1, len(tasks))
    if workers > 1:  # only then is the CPU count asked for
        workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        # Imported here: only a parallel scan pays the pool's import time.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_scan_single_poly, tasks))
    else:
        chunks = [_scan_single_poly(task) for task in tasks]
    return [record for chunk in chunks for record in chunk]
