"""Periodicity, cubic recovery, transfer matrices, the scanner."""

import concurrent.futures
import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bcf import (
    ExpansionState,
    NumberField,
    SequencePair,
    _kernels,
    bcf_expand,
    bcf_step,
    conjecture_scan,
    polys,
    recover_cubic_eventual,
    recover_cubic_pure,
    recovery,
    transfer_matrix,
    validate,
)
from bcf.cli import run
from bcf.errors import (
    BcfError,
    DegenerateSystem,
    InvalidSequence,
    NonPositiveInput,
)
from bcf.recovery import (
    ScanRecord,
    STATUS_EXHAUSTED,
    STATUS_ERROR,
    STATUS_PERIODIC,
    STATUS_SKIPPED_NO_POSITIVE_ROOT,
    STATUS_SKIPPED_NONPOSITIVE_BETA,
    STATUS_SKIPPED_REDUCIBLE,
    STATUS_TERMINATED,
)

from _corpus import (canonical_ratfunc, former_primitive, irreducible_roots,
                     random_cyclic_pair)


# -- periodicity ------------------------------------------------------------------


def test_expand_finds_the_repeat_detect_period_finds():
    # bcf_expand keys states on primitive integer triples; the reference here
    # keys the same orbit on the values (alpha, beta) that bcf_step returns,
    # as the retired detect_period did, over the same 17 states.
    rng = random.Random(4242)
    for _ in range(10):
        result = recover_cubic_pure(random_cyclic_pair(rng))
        alpha, beta = result.alpha, result.beta
        a = rng.randint(1, 3)
        b = rng.randint(0, a)
        for x, y in ((alpha, beta), (a + beta / alpha, b + 1 / alpha)):
            state, seen, found = ExpansionState(x, y, 0), {}, None
            for i in range(17):
                k = seen.setdefault((state.alpha, state.beta), i)
                if k < i:
                    found = (k, i - k)
                    break
                state = bcf_step(state)[2]
            assert found is not None
            assert bcf_expand(x, y, max_terms=17).periodicity == found


# -- pure recovery ------------------------------------------------------------------


def test_recover_period_one_closed_forms():
    cases = {
        ((1,), (1,)): (1, -1, -1, -1),
        ((1,), (0,)): (1, -1, 0, -1),
        ((2,), (2,)): (1, -2, -2, -1),
        ((3,), (1,)): (1, -3, -1, -1),
    }
    for (a, b), poly in cases.items():
        result = recover_cubic_pure((a, b))
        assert result.poly == poly
        assert result.quartic[0] == 0


def test_recover_tribonacci_pair():
    result = recover_cubic_pure(((1,), (1,)))
    assert result.poly == (1, -1, -1, -1)
    assert result.alpha.approximate(12).text == "1.839286755214"
    # beta = alpha^2 - alpha = 1 + 1/alpha
    assert result.beta_expr == ((1, -1, 0), (1,))
    t = result.alpha
    assert result.beta == 1 + 1 / t


def test_recover_moore_pair():
    result = recover_cubic_pure(((1,), (0,)))
    assert result.poly == (1, -1, 0, -1)
    assert result.alpha.approximate(4).text == "1.4656"
    assert result.beta == 1 / result.alpha


def test_recover_two_two_pair():
    result = recover_cubic_pure(((2,), (2,)))
    assert result.poly == (1, -2, -2, -1)
    assert result.alpha.approximate(6).text == "2.831177"
    assert result.beta == 2 + 1 / result.alpha


def test_recover_certified_interval():
    result = recover_cubic_pure(((1,), (1,)))
    lo, hi = result.field.root_interval
    chain = polys.sturm_chain(result.poly)
    assert polys.count_roots(chain, lo, hi) == 1
    assert lo < Fraction(18392, 10000) < hi


def test_recover_accepts_marked_periodic_pair():
    pair = SequencePair((1, 1, 1), (1, 1, 1), periodicity=(0, 1))
    result = recover_cubic_pure(pair)
    assert result.poly == (1, -1, -1, -1)


def test_recover_rejects_bad_input():
    with pytest.raises(InvalidSequence):
        recover_cubic_pure(SequencePair((1, 2), (1, 1, 0), terminal=2))
    with pytest.raises(InvalidSequence):
        recover_cubic_pure(((), ()))
    with pytest.raises(InvalidSequence):
        recover_cubic_pure(((1, 2), (1, 3)))  # a_1 < b_1
    with pytest.raises(InvalidSequence):
        recover_cubic_pure(
            SequencePair((2, 2, 3), (2, 0, 0), periodicity=(1, 2))
        )  # preperiod: wrong entry point


def test_recover_round_trip_small():
    rng = random.Random(909)
    for _ in range(20):
        pair = random_cyclic_pair(rng)
        result = recover_cubic_pure(pair)
        m = pair.period
        need = 3 * m
        again = bcf_expand(result.alpha, result.beta, max_terms=need)
        assert again.a[:need] == tuple(pair.digit_a(i) for i in range(need))
        assert again.b[:need] == tuple(pair.digit_b(i) for i in range(need))


# -- transfer matrix and eventual recovery --------------------------------------------


def test_transfer_matrix_worked_example():
    matrix = transfer_matrix(((2,), (2,)), ((2, 3), (0, 0)))
    assert matrix == ((4, 5, 2), (2, 2, 1), (1, 1, 0))


def _reference_transfer_matrix(pre, per):
    """P^-1 Q P from explicit digit matrices and their inverses."""

    def mul(x, y):
        return tuple(
            tuple(sum(x[r][k] * y[k][c] for k in range(3)) for c in range(3))
            for r in range(3)
        )

    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    forward = backward = cycle = identity
    for a_i, b_i in zip(pre.a, pre.b):
        forward = mul(((a_i, b_i, 1), (1, 0, 0), (0, 1, 0)), forward)
        backward = mul(backward, ((0, 1, 0), (0, 0, 1), (1, -a_i, -b_i)))
    for a_i, b_i in zip(per.a, per.b):
        cycle = mul(((a_i, b_i, 1), (1, 0, 0), (0, 1, 0)), cycle)
    return mul(backward, mul(cycle, forward))


def test_transfer_matrix_unimodular():
    rng = random.Random(111)
    for _ in range(30):
        pre = random_cyclic_pair(rng)
        per = random_cyclic_pair(rng)
        matrix = transfer_matrix(
            SequencePair(pre.a, pre.b), SequencePair(per.a, per.b)
        )
        det = (
            matrix[0][0] * (matrix[1][1] * matrix[2][2] - matrix[1][2] * matrix[2][1])
            - matrix[0][1] * (matrix[1][0] * matrix[2][2] - matrix[1][2] * matrix[2][0])
            + matrix[0][2] * (matrix[1][0] * matrix[2][1] - matrix[1][1] * matrix[2][0])
        )
        assert det == 1
        assert matrix == _reference_transfer_matrix(pre, per)
    # an empty preperiod leaves the period product itself
    empty, period = SequencePair((), ()), SequencePair((2, 1), (1, 0))
    assert transfer_matrix(empty, period) == (
        _reference_transfer_matrix(empty, period)
    )


def test_recover_eventual_period_two():
    result = recover_cubic_eventual(((2,), (2,)), ((2, 3), (0, 0)))
    assert result.poly == (1, -1, -2, -1)
    assert result.alpha.approximate(10).text == "2.1478990357"
    assert result.matrix == ((4, 5, 2), (2, 2, 1), (1, 1, 0))
    assert result.quartic[0] == 0
    # beta = 2 + 1/alpha recovered as a rational function of alpha
    assert result.beta == 2 + 1 / result.alpha


def test_recover_eventual_empty_preperiod_matches_pure():
    rng = random.Random(333)
    periods = [SequencePair((1,), (1,), periodicity=(0, 1))]
    periods += [random_cyclic_pair(rng, max_period=3) for _ in range(15)]
    for pair in periods:
        period = SequencePair(pair.a, pair.b)
        eventual = recover_cubic_eventual(((), ()), period)
        pure = recover_cubic_pure(pair)
        assert eventual.poly == pure.poly
        assert eventual.beta_expr == pure.beta_expr
        assert eventual.field.root_interval == pure.field.root_interval
        assert eventual.alpha == pure.alpha
        assert eventual.beta == pure.beta


def test_recover_pure_carries_the_period_transfer_matrix():
    rng = random.Random(334)
    for _ in range(10):
        pair = random_cyclic_pair(rng, max_period=4)
        period = (pair.a[:pair.period], pair.b[:pair.period])
        result = recover_cubic_pure(pair)
        assert result.matrix == transfer_matrix(((), ()), period)
        assert result.quartic[0] == 0


def _count_calls(monkeypatch, module, name):
    """The argument tuples of every call to module.name."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("preperiod, period, fields", [
    (((2,), (2,)), ((2, 3), (0, 0)), 1),
    # horizon 8's ball holds no root, so the ball doubles once
    (((), ()), ((1, 3), (0, 0)), 2),
], ids=["first-ball", "second-ball"])
def test_recover_builds_one_sturm_chain(monkeypatch, preperiod, period, fields):
    # One chain of the relation, alpha's minimal polynomial once the
    # transfer matrix passes its degeneracy guard, serves the root count of
    # every ball the field tries; no rational root is searched for.
    chains = _count_calls(monkeypatch, polys, "sturm_chain")
    searches = _count_calls(monkeypatch, polys, "_isolate")
    counts = _count_calls(monkeypatch, polys, "count_roots")
    recover_cubic_eventual(preperiod, period)
    assert (len(chains), len(searches), len(counts)) == (1, 0, fields)


def test_recover_eventual_matches_pure_on_tail():
    eventual = recover_cubic_eventual(((2,), (2,)), ((2, 3), (0, 0)))
    # the periodic tail's own expansion lives in the same field: its pure
    # recovery returns the same minimal polynomial
    pure = recover_cubic_pure(((2, 3), (0, 0)))
    assert pure.poly == eventual.poly


@st.composite
def _periodic_digits(draw):
    """(preperiod, period) digit pairs, admissible as an eventually
    periodic pair: preperiod 0-3, period 1-6, digits at most 9."""
    k, m = draw(st.integers(0, 3)), draw(st.integers(1, 6))
    a = tuple(draw(st.lists(st.integers(1, 9), min_size=k + m,
                            max_size=k + m)))
    b = tuple(draw(st.integers(0, ai)) for ai in a)
    assume(validate(SequencePair(a, b, periodicity=(k, m))).valid)
    return (a[:k], b[:k]), (a[k:], b[k:])


@given(digits=_periodic_digits())
@settings(max_examples=300, deadline=None)
def test_transfer_matrix_has_no_eigenvalue_one_and_poly_is_cubic(digits):
    # det(+-I - M), by the one determinant helper rather than the trace and
    # adjugate form of the guard: chi(1) and chi(-1) up to sign.
    preperiod, period = digits
    matrix = transfer_matrix(preperiod, period)
    for s in (1, -1):
        shifted = tuple(
            tuple(s * (i == j) - matrix[i][j] for j in range(3))
            for i in range(3)
        )
        assert _kernels.det3(shifted) != 0
    result = recover_cubic_eventual(preperiod, period)
    assert polys.degree(result.poly) == 3
    assert result.poly == polys.primitive(result.quartic)


# det 1, M21 = M23 = 0, and eigenvalue 1 (chi = (x - 1)(x^2 - 3x + 1))
_DEGENERATE = ((2, 0, 1), (0, 1, 0), (1, 0, 1))
_DEGENERATE_MESSAGE = (
    "transfer matrix has eigenvalue 1 or -1: "
    "1, alpha and beta are linearly dependent"
)


def test_eigenvalue_one_is_the_degenerate_system(monkeypatch, capsys):
    monkeypatch.setattr(recovery, "transfer_matrix", lambda *_: _DEGENERATE)
    with pytest.raises(DegenerateSystem) as info:
        recover_cubic_eventual(((), ()), ((1,), (1,)))
    assert str(info.value) == _DEGENERATE_MESSAGE
    assert run(["recover", "--period-a", "1", "--period-b", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {_DEGENERATE_MESSAGE}\n"


# polys.add, sub and scale as they were when the recovery elimination was
# built from them: the reference that the sum of three padded products
# must match.
def _add_before(f, g):
    f, g = tuple(f), tuple(g)
    if len(f) < len(g):
        f, g = g, f
    pad = len(f) - len(g)
    return polys.trim(f[:pad] + tuple(fc + gc for fc, gc in zip(f[pad:], g)))


def _sub_before(f, g):
    return _add_before(f, polys.negate(g))


def _scale_before(coeffs, k):
    if k == 0:
        return ()
    return tuple(c * k for c in polys.trim(coeffs))


def _recovery_before(preperiod, period):
    """(poly, quartic) as recover_cubic_eventual built them before, after
    the same eigenvalue guard, or the DegenerateSystem message."""
    matrix = recovery.transfer_matrix(preperiod, period)
    adjugate = _kernels._adjugate(matrix)
    chi = (1, -(matrix[0][0] + matrix[1][1] + matrix[2][2]),
           adjugate[0][0] + adjugate[1][1] + adjugate[2][2], -1)
    if 0 in (polys.evaluate(chi, 1), polys.evaluate(chi, -1)):
        return _DEGENERATE_MESSAGE
    (m11, m12, m13), (m21, m22, m23), (m31, m32, m33) = matrix
    beta_num = polys.trim((-m13, m11 - m33, m31))
    beta_den = polys.trim((m23, -m21))
    quartic = _sub_before(
        _add_before(
            polys.multiply(
                polys.trim((m12, m32)), polys.multiply(beta_den, beta_den)
            ),
            polys.multiply(
                polys.trim((-m13, m22 - m33)),
                polys.multiply(beta_num, beta_den),
            ),
        ),
        _scale_before(polys.multiply(beta_num, beta_num), m23),
    )
    return former_primitive(quartic), (0,) * (5 - len(quartic)) + quartic


def _recovery_now(preperiod, period):
    try:
        result = recover_cubic_eventual(preperiod, period)
    except DegenerateSystem as exc:
        return str(exc)
    return result.poly, result.quartic


@given(digits=_periodic_digits())
@settings(max_examples=250, deadline=None)
def test_summed_products_match_the_former_elimination(digits):
    assert _recovery_now(*digits) == _recovery_before(*digits)


@st.composite
def _degenerate_matrices(draw):
    """P B adj(P) for a unimodular P, a product of shears, and B of
    determinant 1 with an eigenvalue 1 or -1 on its first column."""
    p = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.permutations(range(3)))[:2]
        shear = [[int(r == c) for c in range(3)] for r in range(3)]
        shear[i][j] = draw(st.integers(-3, 3))
        p = _kernels.mat_mul3(p, shear)
    e = draw(st.sampled_from((1, -1)))
    r, s, t = (draw(st.integers(-4, 4)) for _ in range(3))
    # lower block of determinant e, so that det B = e * e = 1
    lower = draw(st.sampled_from((((r, 1), (-e, 0)), ((1, r), (0, e)))))
    b = ((e, s, t), (0, *lower[0]), (0, *lower[1]))
    return tuple(map(tuple, _kernels.mat_mul3(
        p, _kernels.mat_mul3(b, _kernels._adjugate(p)))))


@given(matrix=_degenerate_matrices())
@settings(max_examples=100, deadline=None)
def test_degenerate_systems_match_the_former_elimination(matrix):
    assert _kernels.det3(matrix) == 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recovery, "transfer_matrix", lambda *_: matrix)
        now = _recovery_now(((), ()), ((1,), (1,)))
        assert now == _recovery_before(((), ()), ((1,), (1,)))
    assert now == _DEGENERATE_MESSAGE


# Long-period recoveries whose monicised cubic has coefficients past 2^64,
# pinned from the Fraction-based Sturm search: (preperiod, period) ->
# (min_poly, root interval, beta_expr, alpha to 30 places).
LONG_PERIOD_RECOVERIES = [
    (((5,), (5,)), ((7, 5, 9, 7, 7), (6, 5, 7, 7, 5)),
     (2267669, -2649543, -48463664, -69609937),
     (Fraction(96338050250628317, 16661444928110675),
      Fraction(96348882947145533, 16661444928110675)),
     ((-3157, 11901, 36741), (410, -2371)),
     "5.782419653900351714949585917075"),
    (((8, 5), (4, 5)), ((4, 8, 8, 3, 5, 1), (1, 4, 2, 3, 3, 0)),
     (34881425, -970809400, 8995200465, -27749817167),
     (Fraction(1017903788561, 113167602080),
      Fraction(1017952015889, 113167602080)),
     ((5265, 539833, -5281707), (149530, -1345003)),
     "8.994870289028000750656845159038"),
    (((8, 2, 4), (4, 1, 0)), ((5, 2, 8, 6, 8, 9), (0, 2, 1, 6, 4, 7)),
     (60113460, -1739500848, 16513124568, -51594205297),
     (Fraction(3390478511212, 393885460445),
      Fraction(3392319064588, 393885460445)),
     ((287874, -3776013, 11170633), (249968, -2152253)),
     "8.610114177779287068244513232401"),
]


@pytest.mark.parametrize(
    "preperiod, period, poly, interval, beta_expr, alpha_text",
    LONG_PERIOD_RECOVERIES,
)
def test_recover_eventual_long_period_pinned(
    preperiod, period, poly, interval, beta_expr, alpha_text
):
    # the monicised cubic, with coefficients c_i * lead**(i-1), is past 2^64
    monic = [c * poly[0] ** (i - 1) for i, c in enumerate(poly) if i]
    assert max(abs(c) for c in monic) >= 2**64
    result = recover_cubic_eventual(preperiod, period)
    assert result.poly == poly
    assert result.field.root_interval == interval
    assert result.beta_expr == beta_expr
    assert result.alpha.approximate(30).text == alpha_text


def test_recover_eventual_rejects_bad_digits():
    with pytest.raises(InvalidSequence):
        recover_cubic_eventual(((2,), (2,)), ((), ()))
    with pytest.raises(InvalidSequence):
        recover_cubic_eventual(((1,), (2,)), ((1, 2), (1, 3)))


def test_recover_eventual_rejects_inadmissible_cycle():
    # a_i = 0 inside the cycle breaks the admissibility rules outright
    with pytest.raises(InvalidSequence):
        recover_cubic_eventual(((0,), (0,)), ((0,), (0,)))


# -- longer periods -------------------------------------------------------------------


def test_recover_longer_period_consistency():
    rng = random.Random(222)
    for _ in range(10):
        pair = random_cyclic_pair(rng, max_period=4)
        result = recover_cubic_pure(pair)
        # alpha must satisfy its minimal polynomial exactly
        assert polys.evaluate(result.poly, result.alpha) == 0
        assert polys.degree(result.poly) in (2, 3)
        # the quartic elimination certificate
        assert result.quartic[0] == 0


# -- scanner ---------------------------------------------------------------------------


def test_scan_finds_tribonacci_periodicity():
    records = conjecture_scan(
        [(1, -1, -1, -1)],
        [((1, -1, 0), (1,))],  # beta = alpha^2 - alpha = 1 + 1/alpha
        horizon=16,
    )
    assert len(records) == 1
    record = records[0]
    assert record.status == STATUS_PERIODIC
    assert (record.preperiod, record.period) == (0, 1)
    assert record.digits_preview[0] == (1,) * 8
    assert record.min_poly == (1, -1, -1, -1)


def test_open_run_bound_is_tight_on_a_scan_box():
    # A run left open at horizon H proves that no state recurs with
    # j + m <= H - 1 (bcf_expand), and no more: each periodic record (j, m)
    # of the monic -2:2 box is found at max_terms = j + m + 1, and at
    # j + m the run is open.
    from bcf import cli

    box = [(1, c2, c1, c0) for c2 in range(-2, 3) for c1 in range(-2, 3)
           for c0 in range(-2, 3)]
    records = [r for r in conjecture_scan(box, cli._DEFAULT_SCAN_BETAS, 128)
               if r.status == STATUS_PERIODIC]
    assert len(records) == 73
    for r in records:
        alpha = NumberField(r.min_poly, r.interval).generator()
        beta, horizon = r.beta_expr.evaluate(alpha), r.preperiod + r.period
        found = bcf_expand(alpha, beta, max_terms=horizon + 1)
        assert found.periodicity == (r.preperiod, r.period)
        open_run = bcf_expand(alpha, beta, max_terms=horizon)
        assert open_run.periodicity is None and not open_run.terminated


def test_period_is_found_past_a_repeated_window():
    # The pure period of m = 18 digits repeats its first 9 digit pairs at 9,
    # where no state recurs, so a window of digits at 18 has two earlier
    # starts, 0 and 9, and only the first is the recurrence: a loop that
    # tests only the latest earlier candidate misses it.
    a = (2,) * 8 + (3,) + (2,) * 8 + (4,)
    b = (1,) * 8 + (0,) + (1,) * 8 + (0,)
    result = recover_cubic_pure((a, b))
    assert bcf_expand(result.alpha, result.beta, max_terms=18).periodicity is None
    for horizon in (19, 40):
        found = bcf_expand(result.alpha, result.beta, max_terms=horizon)
        assert found.periodicity == (0, 18)
        assert (found.a[:18], found.b[:18]) == (a, b)


@given(digits=_periodic_digits())
@settings(max_examples=300, deadline=None)
def test_open_run_bound_is_tight_on_recovered_pairs(digits):
    # The pair behind a marked preperiod of k digits and period of m digits
    # recurs with j + p <= k + m for its reported (j, p), which max_terms =
    # j + p + 1 finds and max_terms = j + p leaves open.
    preperiod, period = digits
    result = recover_cubic_eventual(preperiod, period)
    k, m = len(preperiod[0]), len(period[0])
    found = bcf_expand(result.alpha, result.beta, max_terms=k + m + 1)
    assert found.periodicity is not None
    j, p = found.periodicity
    assert j + p <= k + m
    again = bcf_expand(result.alpha, result.beta, max_terms=j + p + 1)
    assert again.periodicity == (j, p)
    open_run = bcf_expand(result.alpha, result.beta, max_terms=j + p)
    assert open_run.periodicity is None and not open_run.terminated


def test_scan_keeps_ratfunc_candidates_as_given(monkeypatch):
    # A RatFunc is already canonical: the scan uses it as is, and only a
    # (num, den) pair is built into one.
    from bcf import cli
    from bcf.literals import RatFunc

    assert all(type(beta) is RatFunc for beta in cli._DEFAULT_SCAN_BETAS)
    built, new = [], RatFunc.__new__
    monkeypatch.setattr(RatFunc, "__new__",
                        lambda cls, *pair: built.append(pair) or new(cls, *pair))
    records = conjecture_scan([(1, -1, -1, -1)], cli._DEFAULT_SCAN_BETAS, 8)
    assert built == []
    assert [r.beta_expr for r in records] == list(cli._DEFAULT_SCAN_BETAS)
    assert all(r.beta_expr is beta
               for r, beta in zip(records, cli._DEFAULT_SCAN_BETAS))
    conjecture_scan([(1, -1, -1, -1)], [((2, 0), (2,))], 8)
    assert built == [((2, 0), (2,))]


def test_scan_skips_reducible_and_rootless():
    records = conjecture_scan(
        [(1, 0, 0, -1), (1, 0, 0, 1), (1, 2, 2, 1)],
        [((1, 0, 0), (1,))],
        horizon=8,
    )
    statuses = {tuple(r.min_poly): r.status for r in records}
    assert statuses[(1, 0, 0, -1)] == STATUS_SKIPPED_REDUCIBLE  # x^3 - 1
    # x^3 + 1 is also reducible; x^3 + 2x^2 + 2x + 1 too ((x+1) factor)
    assert statuses[(1, 0, 0, 1)] == STATUS_SKIPPED_REDUCIBLE
    assert statuses[(1, 2, 2, 1)] == STATUS_SKIPPED_REDUCIBLE


def test_scan_reducible_found_by_isolation_or_field():
    records = conjecture_scan(
        # x^3 - x: three rational roots; (x - 3)(x^2 + 1): one real root,
        # and it is rational; both fail the one irreducibility test; tribonacci
        [(1, 0, -1, 0), (1, -3, 1, -3), (1, -1, -1, -1)],
        [((1, 0, 0), (1,))],
        horizon=8,
    )
    assert [r.status for r in records[:2]] == [STATUS_SKIPPED_REDUCIBLE] * 2
    assert len(records) == 3 and records[2].min_poly == (1, -1, -1, -1)
    assert records[2].status in {
        STATUS_PERIODIC, STATUS_TERMINATED, STATUS_EXHAUSTED
    }


def test_scan_no_positive_root():
    # x^3 + x + 1 has its only real root near -0.68
    records = conjecture_scan(
        [(1, 0, 1, 1)], [((1, 0, 0), (1,))], horizon=8
    )
    assert records[0].status == STATUS_SKIPPED_NO_POSITIVE_ROOT


def test_scan_nonpositive_beta_is_skipped():
    # x^3 + x - 1 has its root near 0.68, where alpha^2 - alpha < 0
    records = conjecture_scan(
        [(1, 0, 1, -1)], [((1, -1, 0), (1,))], horizon=8
    )
    assert [r.status for r in records] == [STATUS_SKIPPED_NONPOSITIVE_BETA]
    assert records[0].beta_expr == ((1, -1, 0), (1,))


def test_scan_beta_pole_is_error():
    # 1 / (alpha^3 + alpha - 1) divides by the minimal polynomial itself
    records = conjecture_scan(
        [(1, 0, 1, -1)], [((1,), (1, 0, 1, -1))], horizon=8
    )
    assert [r.status for r in records] == [STATUS_ERROR]


def test_scan_statuses_cover_horizon_exhaustion():
    # a beta with no special relation to alpha typically exhausts the horizon
    records = conjecture_scan(
        [(1, -1, -1, -1)], [((1, 0, 0, 7), (1,))], horizon=6
    )
    assert records[0].status in {STATUS_EXHAUSTED, STATUS_PERIODIC}


def test_scan_parallel_matches_serial():
    family = [(1, c2, -1, -1) for c2 in range(-2, 3)]
    betas = [((1, 0, 0), (1,)), ((1, -1, 0), (1,))]
    serial = conjecture_scan(family, betas, horizon=10, jobs=1)
    parallel = conjecture_scan(family, betas, horizon=10, jobs=2)
    assert serial == parallel


def test_scan_pool_never_outnumbers_polynomials_or_cpus(monkeypatch):
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    betas = [((1, 0, 0), (1,))]
    conjecture_scan([(1, 0, 0, -2)], betas, horizon=8, jobs=10**6)
    assert sizes == []
    family = [(1, 0, 0, c0) for c0 in (-2, -3, -5)]
    pooled = conjecture_scan(family, betas, horizon=8, jobs=10**6)
    assert sizes == [2]
    assert pooled == conjecture_scan(family, betas, horizon=8, jobs=1)


def test_serial_scan_never_asks_for_the_cpu_count(monkeypatch):
    asked = _count_calls(monkeypatch, os, "cpu_count")
    for jobs in (None, 1):
        conjecture_scan([(1, 0, 0, -2), (1, 0, 0, -3)], [((1, 0, 0), (1,))],
                        horizon=8, jobs=jobs)
    assert asked == []


def test_scan_builds_one_sturm_chain_per_polynomial(monkeypatch):
    # reducible (x^3 - x, (x - 3)(x^2 + 1)), no positive root, one and three
    # positive roots: one chain each, and one bisection that both tests
    # irreducibility and isolates the roots
    chains = _count_calls(monkeypatch, polys, "sturm_chain")
    bisections = _count_calls(monkeypatch, polys, "_isolate")
    for coeffs in [(1, 0, -1, 0), (1, -3, 1, -3), (1, 0, 1, 1),
                   (1, -1, -1, -1), (1, -6, 9, -3)]:
        del chains[:], bisections[:]
        conjecture_scan([coeffs], [((1, 0, 0), (1,))], horizon=8)
        assert (len(chains), len(bisections)) == (1, 1), coeffs


def _reference_scan(coeffs, candidates, horizon, preview):
    """conjecture_scan of one polynomial the long way: reducibility by the
    rational-root theorem, a NumberField per real root, the sign of each
    root by the generic comparison, beta by Horner through the generic
    field operators, then bcf_expand."""
    def record(status, interval=None, beta_expr=None, k=None, m=None,
               digits=None):
        return ScanRecord(coeffs, interval, beta_expr, status, k, m, digits)

    intervals = irreducible_roots(coeffs)
    if intervals is None:
        return [record(STATUS_SKIPPED_REDUCIBLE)]
    roots = []
    for lo, hi in intervals:
        alpha = NumberField(coeffs, (lo, hi)).generator()
        if alpha > 0:
            roots.append(((lo, hi), alpha))
    if not roots:
        return [record(STATUS_SKIPPED_NO_POSITIVE_ROOT)]
    records = []
    for interval, alpha in roots:
        for num, den in candidates:
            beta_expr = canonical_ratfunc(num, den)
            try:
                den_value = polys.evaluate(den, alpha)
                if den_value == 0:
                    raise ZeroDivisionError("pole")
                beta = polys.evaluate(num, alpha) / den_value
                if beta <= 0:
                    raise NonPositiveInput("beta <= 0")
                pair = bcf_expand(alpha, beta, max_terms=horizon)
            except NonPositiveInput:
                records.append(record(STATUS_SKIPPED_NONPOSITIVE_BETA,
                                      interval, beta_expr))
                continue
            except (BcfError, ZeroDivisionError):
                records.append(record(STATUS_ERROR, interval, beta_expr))
                continue
            digits = (pair.a[:preview], pair.b[:preview])
            if pair.terminated:
                records.append(record(STATUS_TERMINATED, interval, beta_expr,
                                      digits=digits))
            elif pair.periodicity is not None:
                records.append(record(STATUS_PERIODIC, interval, beta_expr,
                                      *pair.periodicity, digits))
            else:
                records.append(record(STATUS_EXHAUSTED, interval, beta_expr,
                                      digits=digits))
    return records


_SCAN_POLY = st.lists(st.integers(-4, 4), min_size=3, max_size=3).flatmap(
    lambda rest: st.integers(1, 3).map(lambda lead: (lead, *rest))
)
_BETA_POLY = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(tuple)


@given(coeffs=_SCAN_POLY,
       candidates=st.lists(st.tuples(_BETA_POLY, _BETA_POLY), min_size=1,
                           max_size=3),
       horizon=st.integers(1, 16), preview=st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_scan_matches_the_per_root_reference(coeffs, candidates, horizon,
                                             preview):
    records = conjecture_scan([coeffs], candidates, horizon,
                              preview_digits=preview)
    assert records == _reference_scan(coeffs, candidates, horizon, preview)


def test_cli_import_leaves_the_process_pool_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    script = "import sys, bcf.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"


def test_scan_validates_arguments():
    with pytest.raises(ValueError):
        conjecture_scan([(1, 0, 0, -2)], [((1, 0, 0), (1,))], horizon=0)
    with pytest.raises(ValueError):
        conjecture_scan([(1, 0, 0, -2)], [], horizon=8)
    # A negative slice would cut digits off the end of every preview.
    with pytest.raises(ValueError, match="preview_digits"):
        conjecture_scan([(1, 0, 0, -2)], [((1, 0, 0), (1,))], horizon=8,
                        preview_digits=-1)
    records = conjecture_scan([(1, 0, 0, -2)], [((1, 0, 0), (1,))], horizon=8,
                              preview_digits=0)
    assert records and all(r.digits_preview == ((), ()) for r in records)


@pytest.mark.parametrize("family, candidate", [
    ((1, 0, 0, -2.5), ((1, 0, 0), (1,))),
    ((1, 0, 0, -2), ((1.5, 0, 0), (1,))),
], ids=["float-family", "float-candidate"])
def test_scan_rejects_non_integer_coefficients(family, candidate):
    # int() would truncate these to x^3 - 2 and to beta = alpha^2, and the
    # scan would report what it found for those instead.
    with pytest.raises(TypeError, match="coefficient must be an int"):
        conjecture_scan([family], [candidate], 8)


# -- recovery is pinned on the acceptance corpus -----------------------------------


def test_recovery_on_the_criterion_9_corpus_is_pinned():
    # The 100 purely periodic pairs of acceptance criterion 9.  Each pair's
    # transfer matrix is taken with an empty preperiod and with the previous
    # pair's period as preperiod, whose adjugate has negative entries.  The
    # digests were recorded with a per-digit convergent_matrix and a
    # sum-of-products mat_mul3, so they hold the product tree to those.
    rng = random.Random(20260818 + 9)
    pairs = [random_cyclic_pair(rng, max_period=4, max_digit=3)
             for _ in range(100)]
    matrices = []
    out = io.StringIO()
    for previous, pair in zip(pairs[-1:] + pairs, pairs):
        matrices.append(transfer_matrix(((), ()), (pair.a, pair.b)))
        matrices.append(
            transfer_matrix((previous.a, previous.b), (pair.a, pair.b))
        )
        argv = ["recover", "--period-a", ",".join(map(str, pair.a)),
                "--period-b", ",".join(map(str, pair.b))]
        with contextlib.redirect_stdout(out):
            assert run(argv) == 0
    assert hashlib.sha256(repr(matrices).encode()).hexdigest() == (
        "8a846cd20742ec092d20d418ab7cf06122f2cfb35202d639e39d914ee9fee070"
    )
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "1b3fad0a51d028e1dd73fbf99c9987cebfd7021248cbc30455bacd7da2fe642c"
    )


# The pure cubic family theta^3 = d^3 + 1, a measured census and no theorem:
# (theta, theta^2) and (theta, theta^2 + theta) were periodic for every d
# measured, with these (preperiod, period) for d = 2..5 and, from d = 6 on,
# (8, 10) or (11, 13) by d's parity for theta^2 and (1, 13) for theta^2 +
# theta.  recover returns x^3 - (d^3 + 1) and the input field, and the
# period's eigenvalue is eps^6 for the unit eps = theta^2 + d theta + d^2
# (theta^3 - d^3 = 1).
_FAMILY_SMALL_D = {2: ((8, 10), (10, 10)), 3: ((10, 10), (12, 10)),
                   4: ((8, 10), (10, 10)), 5: ((23, 10), (10, 10))}


def _check_family_member(d):
    periods = _FAMILY_SMALL_D.get(d) or (
        (8, 10) if d % 2 == 0 else (11, 13), (1, 13))
    poly = (1, 0, 0, -(d**3 + 1))
    field = NumberField(poly, (d, d + 1))
    theta = field.generator()
    unit = theta**2 + d * theta + d * d
    for beta, (k, m) in zip((theta**2, theta**2 + theta), periods):
        pair = bcf_expand(theta, beta, max_terms=64)
        assert pair.periodicity == (k, m), (d, beta)
        pre, per = (pair.a[:k], pair.b[:k]), (pair.a[k:k + m], pair.b[k:k + m])
        result = recover_cubic_eventual(pre, per)
        assert (result.poly, result.field, result.alpha, result.beta) == (
            poly, field, theta, beta)
        matrix = transfer_matrix(pre, per)
        assert (theta * matrix[0][2] + beta * matrix[1][2] + matrix[2][2]
                == unit**6)


def test_pure_cubic_family_census():
    for d in range(2, 61):
        _check_family_member(d)


@given(st.integers(61, 10**30))
@settings(max_examples=15, deadline=None)
def test_pure_cubic_family_census_at_large_d(d):
    _check_family_member(d)
