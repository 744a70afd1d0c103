"""Admissibility rules, proper/appropriate equivalence, tail checks."""

import random
from fractions import Fraction

import pytest

from bcf import (
    NumberField,
    SequencePair,
    RULE_A_BELOW_ONE,
    RULE_A_LESS_THAN_B,
    RULE_EQUAL_THEN_B_ZERO,
    bcf_expand,
    bcf_expand_rational,
    check_appropriate,
    check_proper,
    validate,
)
from bcf import fields
from bcf.errors import IndexOutOfRange

from _corpus import random_rational_pair, random_valid_pair

TRIBONACCI = NumberField((1, -1, -1, -1), (1, 2))
PERIOD_TWO = NumberField((1, -1, -2, -1), (2, 3))


# -- rule checks -----------------------------------------------------------------


def test_all_ones_valid():
    report = validate(((1, 1, 1, 1), (1, 1, 1, 1)))
    assert report.valid
    assert report.violations == ()
    # rule (ii) at the final stored index cannot be decided on an open pair
    assert report.indeterminate == (3,)
    assert report.last_checked == 3


def test_a_less_than_b_violation():
    report = validate(((5, 2, 2), (1, 2, 3)))
    assert not report.valid
    assert report.violations == ((2, RULE_A_LESS_THAN_B),)


def test_equal_then_b_zero_violation():
    report = validate(((3, 2, 2, 1), (0, 2, 0, 1)))
    assert not report.valid
    assert (1, RULE_EQUAL_THEN_B_ZERO) in report.violations


def test_a_below_one_violation():
    report = validate(((3, 0, 2), (1, 0, 1)))
    assert not report.valid
    assert (1, RULE_A_BELOW_ONE) in report.violations


def test_index_zero_unconstrained():
    # a_0 < b_0 and a_0 = 0 are fine at the start of a sequence
    report = validate(((0, 2), (5, 1)))
    assert report.valid


def test_terminated_pair_settles_lookahead():
    # extra b-digit decides rule (ii) at the last a-index
    report = validate(SequencePair((1, 1), (1, 1, 0), terminal=Fraction(3, 2)))
    assert not report.valid
    assert report.violations == ((1, RULE_EQUAL_THEN_B_ZERO),)
    report = validate(SequencePair((1, 1), (1, 1, 1), terminal=Fraction(3, 2)))
    assert report.valid
    assert report.indeterminate == ()


def test_periodic_pair_has_no_indeterminate():
    report = validate(SequencePair((1, 1), (1, 1), periodicity=(0, 1)))
    assert report.valid
    assert report.indeterminate == ()


def test_periodic_wrap_constrains_leading_digits():
    # cyclic recurrence of index 0 violates a >= b beyond the stored digits
    report = validate(SequencePair((2, 3), (3, 0), periodicity=(0, 2)))
    assert not report.valid
    assert report.violations == ((2, RULE_A_LESS_THAN_B),)
    # the equal pair (2, 2) recurs with lookahead b = 2 != 0: admissible
    report = validate(SequencePair((2,), (2,), periodicity=(0, 1)))
    assert report.valid
    # an equal leading pair whose cyclic successor has b = 0 is not
    report = validate(SequencePair((2, 3), (2, 0), periodicity=(0, 2)))
    assert not report.valid
    assert report.violations == ((2, RULE_EQUAL_THEN_B_ZERO),)
    # with a nonzero successor digit the same cycle is fine
    report = validate(SequencePair((2, 3), (2, 1), periodicity=(0, 2)))
    assert report.valid
    # the wrap index is the stored length rounded up to whole periods
    report = validate(SequencePair((0, 1, 1), (0, 1, 1), periodicity=(0, 2)))
    assert report.violations == ((4, RULE_A_BELOW_ONE),)


def test_preperiod_shields_leading_digits():
    # with a nonzero preperiod the leading digits never recur
    report = validate(SequencePair((2, 3, 2), (3, 0, 0), periodicity=(1, 2)))
    assert report.valid


def test_every_expansion_validates():
    rng = random.Random(555)
    for _ in range(60):
        alpha, beta = random_rational_pair(rng, max_den=10**4)
        assert validate(bcf_expand_rational(alpha, beta)).valid
    t = TRIBONACCI.generator()
    assert validate(bcf_expand(t, 1 + 1 / t, max_terms=24)).valid


# -- proper / appropriate -----------------------------------------------------------


def test_tribonacci_proper_and_appropriate():
    t = TRIBONACCI.generator()
    beta = 1 + 1 / t
    pair = bcf_expand(t, beta, max_terms=12)
    assert check_proper(t, beta, pair, 10)
    assert check_appropriate(t, beta, pair, 10)


def test_counterexample_fails_both():
    r = PERIOD_TWO.generator()
    beta = 2 + 1 / r
    ones_twos = SequencePair((1, 1, 1, 1), (2, 2, 2, 2))
    assert not check_proper(r, beta, ones_twos, 3)
    assert not check_appropriate(r, beta, ones_twos, 3)


def test_vacuous_at_zero():
    assert check_proper(Fraction(7, 4), Fraction(3, 2), ((9, 9), (9, 9)), 0)


def test_proper_strictness():
    # alpha_1 = 1 exactly: (1 < alpha_1) fails under strict comparison
    # expansion digits of (2, 3/2): alpha_1 = 2, beta_1 = 1 -> use digits
    # that force alpha_1 = 1: alpha = 3/2, beta = 3/2, a_0 = b_0 = 1 gives
    # alpha_1 = 1/(1/2) = 2; instead take beta - b_0 = 1 -> alpha_1 = 1.
    pair = ((1, 1), (1, 1))
    assert not check_proper(Fraction(3, 2), Fraction(2), pair, 1)


def test_zero_division_signals_breakdown():
    # beta_0 = b_0 makes the first inversion undefined; the digits agree
    # with the floors at index 0 so neither check returns early
    with pytest.raises(ZeroDivisionError):
        check_proper(Fraction(5, 2), Fraction(2), ((2, 1), (2, 1)), 1)
    with pytest.raises(ZeroDivisionError):
        check_appropriate(Fraction(5, 2), Fraction(2), ((2, 1), (2, 1)), 1)


def test_zero_division_in_a_field():
    # beta_0 = 2 is an integral field element equal to b_0.
    t = TRIBONACCI.generator()
    two = TRIBONACCI.element(2)
    with pytest.raises(ZeroDivisionError):
        check_proper(t, two, ((1, 1), (2, 1)), 1)
    with pytest.raises(ZeroDivisionError):
        check_appropriate(t, two, ((1, 1), (2, 1)), 1)


def test_one_inversion_per_tail_step(monkeypatch):
    t = NumberField((1, -2, -2, -2), (-3, 3)).generator()
    beta = t * t + t
    pair = bcf_expand(t, beta, max_terms=41)
    count = [0]
    # The step inverts through the adjugate body, not the _inverse wrapper.
    inverse = fields._adjugate_row

    def counted_inverse(field, n):
        count[0] += 1
        return inverse(field, n)

    monkeypatch.setattr(fields, "_adjugate_row", counted_inverse)
    assert check_proper(t, beta, pair, 40)
    assert count[0] == 40
    assert check_appropriate(t, beta, pair, 40)
    assert count[0] == 80


def test_tail_index_errors():
    with pytest.raises(IndexOutOfRange):
        check_proper(Fraction(3, 2), Fraction(3, 2), ((1,), (1,)), 2)
    with pytest.raises(IndexOutOfRange):
        check_proper(Fraction(3, 2), Fraction(3, 2), ((1,), (1,)), -1)


def test_proper_iff_appropriate_on_expansions():
    rng = random.Random(606)
    for _ in range(40):
        alpha, beta = random_rational_pair(rng, max_den=10**3)
        pair = bcf_expand_rational(alpha, beta)
        if not pair.a:
            continue  # immediate termination leaves nothing to check
        n = len(pair.a) - 1
        proper = check_proper(alpha, beta, pair, n)
        appropriate = check_appropriate(alpha, beta, pair, n)
        assert proper == appropriate
        assert appropriate  # genuine expansions are always appropriate
