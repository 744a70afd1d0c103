"""Library entry points refuse bad input with one exact error, and answer
edge values exactly."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcf
from bcf import (
    AlgebraicNumber,
    BcfError,
    ExpansionState,
    NumberField,
    RatFunc,
    SequencePair,
    approximate,
    bcf_expand,
    bcf_step,
    check_appropriate,
    check_proper,
    conjecture_scan,
    convergent,
    convergent_backward,
    convergent_matrix,
    det_invariant,
    floor_of,
    fraction_str,
    gap_diagnostics,
    node_counts,
    parse_digits,
    polys,
    recover_cubic_pure,
    render_tree,
)
from bcf.errors import (EmptyInterval, IndexOutOfRange, InvalidSequence,
                        OutputTooLarge, ParseError, RootCountNotOne)
from bcf.literals import parse_number
from bcf.recovery import ScanRecord, recover_cubic_eventual

TRIBONACCI = NumberField((1, -1, -1, -1), (1, 2))


def _past_the_limit(call):
    """call, to be run under a digit limit of 640, which 10**700 is past."""
    def run():
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            call()
        finally:
            sys.set_int_max_str_digits(limit)
    return run


# A number past the digit limit, and how a message quotes it: by its size.
_HUGE = 10**700
_HUGE_BITS = f"number of {_HUGE.bit_length()} bits"


def _not_an_int(call, what, value):
    return call, TypeError, f"{what} must be an int, got {value!r}"


_PERIODIC = SequencePair((2, 1), (1, 1), periodicity=(0, 2))
_SCAN = ([(1, 0, 0, -2)], [((1, 0, 0), (1,))], 8)
_TAIL = (Fraction(7, 4), Fraction(3, 2), SequencePair((1, 2), (0, 1)))
_TWELVE = SequencePair([1] * 12, [0] * 12)
_SHORT = SequencePair([1] * 3, [0] * 3)
_NOT_A_PAIR = "expected a SequencePair or an (a, b) pair of digit sequences, got "
_REFUSALS = {
    "fraction_str past the string limit": (
        _past_the_limit(lambda: fraction_str(Fraction(10**700, 3))), OutputTooLarge,
        "an integer in the output has more than 640 decimal digits, "
        "Python's limit for integer-to-string conversion",
    ),
    "approximate to 0 places": (
        lambda: approximate(TRIBONACCI.generator(), 0), ValueError,
        "decimal_digits must be at least 1",
    ),
    "approximate to nan places": (
        lambda: approximate(TRIBONACCI.generator(), math.nan), TypeError,
        "decimal_digits must be an int, got nan",
    ),
    "approximate to 1.5 places": (
        lambda: approximate(TRIBONACCI.generator(), 1.5), TypeError,
        "decimal_digits must be an int, got 1.5",
    ),
    "approximate to True places": (
        lambda: approximate(TRIBONACCI.generator(), True), TypeError,
        "decimal_digits must be an int, got True",
    ),
    "parse_digits of an int": (
        lambda: parse_digits(5), TypeError, "digit list must be text or None, got 5",
    ),
    "bcf_step of a string": (
        lambda: bcf_step("x"), TypeError, "state must be an ExpansionState, got 'x'",
    ),
    "parse_number of an int": (
        lambda: parse_number(5), ParseError, "number literal must be text, got 5",
    ),
    "alg literal without coefficients": (
        lambda: parse_number("alg:@1,2"), ParseError,
        "expected a comma-separated integer list at position 4 "
        "(grammar: alg:<c_d>,...,<c_0>@<lo>,<hi>)",
    ),
    "four coordinates in a cubic field": (
        lambda: AlgebraicNumber(TRIBONACCI, [1, 2, 3, 4]), ValueError,
        "need at most 3 coordinates for a degree-3 field, got 4",
    ),
    "as_fraction of an irrational": (
        lambda: TRIBONACCI.generator().as_fraction(), ValueError,
        "element is irrational",
    ),
    "float power": (
        lambda: TRIBONACCI.generator() ** 0.5, TypeError,
        "unsupported operand type(s) for ** or pow(): 'AlgebraicNumber' and 'float'",
    ),
    "float preperiod": (
        lambda: SequencePair((1,), (1,), periodicity=(0.0, 1)), InvalidSequence,
        "periodicity must be a pair of ints",
    ),
    "negative tree depth": (
        lambda: node_counts(-1), ValueError, "depth must be nonnegative, got -1",
    ),
    # node_counts returns one entry per level, which no tuple holds from
    # sys.maxsize levels on.
    "tree depth 2**63 - 1": (
        lambda: node_counts(2**63 - 1), OutputTooLarge,
        "depth 9223372036854775807: more levels than a tuple holds",
    ),
    "tree depth 10**30": (
        lambda: node_counts(10**30), OutputTooLarge,
        f"depth {10**30}: more levels than a tuple holds",
    ),
    "Sturm chain of the zero polynomial": (
        lambda: polys.sturm_chain(()), ValueError,
        "Sturm chain of the zero polynomial",
    ),
    "terminated preperiod": (
        lambda: recover_cubic_eventual(
            SequencePair((1,), (1, 0), terminal=Fraction(2)), ((1,), (1,))
        ),
        InvalidSequence, "terminated pairs have no period to recover",
    ),
    "scan to a horizon of 1.5 steps": (
        lambda: conjecture_scan([(1, 0, 0, -2)], [((1, 0, 0), (1,))], 1.5),
        TypeError, "horizon must be an int, got 1.5",
    ),
    "scan with no workers": (
        lambda: conjecture_scan(*_SCAN, jobs=0), ValueError, "jobs must be at least 1",
    ),
    "scan preview of -1 digits": (
        lambda: conjecture_scan(*_SCAN, preview_digits=-1), ValueError,
        "preview_digits must be at least 0",
    ),
    # Every count and index argument takes one type rule: an int, not a bool.
    "scan on 1.5 workers": _not_an_int(
        lambda: conjecture_scan(*_SCAN, jobs=1.5), "jobs", 1.5),
    "scan on True workers": _not_an_int(
        lambda: conjecture_scan(*_SCAN, jobs=True), "jobs", True),
    "scan preview of True digits": _not_an_int(
        lambda: conjecture_scan(*_SCAN, preview_digits=True), "preview_digits", True),
    "scan preview of 1.5 digits": _not_an_int(
        lambda: conjecture_scan(*_SCAN, preview_digits=1.5), "preview_digits", 1.5),
    "convergent at True": _not_an_int(
        lambda: convergent(_PERIODIC, True), "index", True),
    "convergent at 1.5": _not_an_int(
        lambda: convergent(_PERIODIC, 1.5), "index", 1.5),
    "convergent_backward from m 0.5": _not_an_int(
        lambda: convergent_backward(_PERIODIC, 0.5, 3), "m", 0.5),
    "convergent_matrix at 2.0": _not_an_int(
        lambda: convergent_matrix(_PERIODIC, 2.0), "index", 2.0),
    "gap_diagnostics at 8.5": _not_an_int(
        lambda: gap_diagnostics(_PERIODIC, 8.5), "index", 8.5),
    "node_counts at depth 1.5": _not_an_int(
        lambda: node_counts(1.5), "depth", 1.5),
    "render_tree at depth True": _not_an_int(
        lambda: render_tree(_PERIODIC, True), "depth", True),
    "check_proper to n 1.5": _not_an_int(
        lambda: check_proper(*_TAIL, 1.5), "n", 1.5),
    "check_proper to n True": _not_an_int(
        lambda: check_proper(*_TAIL, True), "n", True),
    "check_appropriate to n 2.5": _not_an_int(
        lambda: check_appropriate(*_TAIL, 2.5), "n", 2.5),
    "check_appropriate to n -1": (
        lambda: check_appropriate(*_TAIL, -1), IndexOutOfRange,
        "n must be nonnegative, got -1"),
    "digit_a at True": _not_an_int(
        lambda: _PERIODIC.digit_a(True), "digit index", True),
    "digit_b at False": _not_an_int(
        lambda: _PERIODIC.digit_b(False), "digit index", False),
    "digit_a at 1.5": _not_an_int(
        lambda: _PERIODIC.digit_a(1.5), "digit index", 1.5),
    "digit_b at 2.0": _not_an_int(
        lambda: _PERIODIC.digit_b(2.0), "digit index", 2.0),
    "digit_a at -1": (
        lambda: _PERIODIC.digit_a(-1), IndexOutOfRange,
        "digit index must be nonnegative, got -1"),
    "digit_b of an open pair at -3": (
        lambda: SequencePair((1, 2), (0, 1)).digit_b(-3), IndexOutOfRange,
        "digit index must be nonnegative, got -3"),
    # An int index keeps each route's own range test, message and class.
    "det_invariant at 1": (
        lambda: det_invariant(_TWELVE, 1), IndexOutOfRange,
        "determinant needs n >= 2, got 1"),
    "gap_diagnostics at 7 on three digits": (
        lambda: gap_diagnostics(_SHORT, 7), ValueError,
        "diagnostics need N >= 8, got 7"),
    "gap_diagnostics at 5 on three digits": (
        lambda: gap_diagnostics(_SHORT, 5), ValueError,
        "diagnostics need N >= 8, got 5"),
    "convergent_backward from m -1": (
        lambda: convergent_backward(_TWELVE, -1, 3), IndexOutOfRange,
        "need 0 <= m <= n, got m=-1, n=3"),
    "convergent_backward from m past n": (
        lambda: convergent_backward(_TWELVE, 4, 3), IndexOutOfRange,
        "need 0 <= m <= n, got m=4, n=3"),
    # One rule reads a digit pair: a SequencePair or two digit sequences.
    "convergent of None": (
        lambda: convergent(None, 3), TypeError, _NOT_A_PAIR + "None"),
    "convergent of three sequences": (
        lambda: convergent(((1,), (1,), (1,)), 3), TypeError,
        _NOT_A_PAIR + "((1,), (1,), (1,))"),
    "recover_cubic_pure of one digit list": (
        lambda: recover_cubic_pure([1, 2]), TypeError, _NOT_A_PAIR + "[1, 2]"),
    # refine takes the count rule from 0.
    "refine by 'x' bits": _not_an_int(
        lambda: TRIBONACCI.refine("x"), "bits", "x"),
    "refine by 1.5 bits": _not_an_int(
        lambda: TRIBONACCI.refine(1.5), "bits", 1.5),
    "refine by True bits": _not_an_int(
        lambda: TRIBONACCI.refine(True), "bits", True),
    "refine by -3 bits": (
        lambda: TRIBONACCI.refine(-3), ValueError, "bits must be at least 0"),
    # A message quotes a caller's number past the digit limit by its size.
    "NumberField on an interval past the limit": (
        _past_the_limit(lambda: NumberField((1, 0, -2), (_HUGE, 10 * _HUGE))),
        RootCountNotOne,
        f"interval (a positive {_HUGE_BITS}, a positive number of "
        f"{(10 * _HUGE).bit_length()} bits) contains 0 roots, expected exactly 1"),
    "NumberField on a reversed interval past the limit": (
        _past_the_limit(lambda: NumberField((1, 0, -2), (Fraction(_HUGE, 3), 1))),
        EmptyInterval,
        f"root interval must satisfy lo < hi, got (a positive number of "
        f"{_HUGE.bit_length()} bits over 2 bits, 1)"),
    "convergent at an index past the limit": (
        _past_the_limit(lambda: convergent(_SHORT, -_HUGE)), IndexOutOfRange,
        f"index must be nonnegative, got a negative {_HUGE_BITS}"),
    "det_invariant at an index past the limit": (
        _past_the_limit(lambda: det_invariant(_SHORT, -_HUGE)), IndexOutOfRange,
        f"determinant needs n >= 2, got a negative {_HUGE_BITS}"),
    "SequencePair of a digit past the limit": (
        _past_the_limit(lambda: SequencePair([-_HUGE], [0])), InvalidSequence,
        f"a[0] must be nonnegative, got a negative {_HUGE_BITS}"),
    "SequencePair of a period past the limit": (
        _past_the_limit(lambda: SequencePair([1], [1], periodicity=(_HUGE, 1))),
        InvalidSequence,
        f"periodicity (a positive {_HUGE_BITS}, 1) needs at least a positive "
        f"{_HUGE_BITS} stored digits, have 1"),
    "digit_a past the limit": (
        _past_the_limit(lambda: _SHORT.digit_a(_HUGE)), IndexOutOfRange,
        f"a[a positive {_HUGE_BITS}] is beyond the 3 stored digits"),
    # A type refusal quotes a value past the limit by its type and size.
    "SequencePair of a Fraction digit past the limit": (
        _past_the_limit(lambda: SequencePair([Fraction(_HUGE)], [0])),
        InvalidSequence, f"a[0] must be an int, got a positive Fraction of "
        f"{_HUGE.bit_length()} bits"),
    "refine by a Fraction past the limit": (
        _past_the_limit(lambda: NumberField((1, 0, -2), (1, 2)).refine(
            Fraction(_HUGE))), TypeError,
        f"bits must be an int, got a positive Fraction of {_HUGE.bit_length()} bits"),
    "bcf_expand to a Fraction past the limit": (
        _past_the_limit(lambda: bcf_expand(Fraction(3, 2), Fraction(4, 3),
                                           Fraction(-_HUGE, 3))), TypeError,
        f"max_terms must be an int, got a negative Fraction of "
        f"{_HUGE.bit_length()} bits over 2 bits"),
    "NumberField of a Fraction coefficient past the limit": (
        _past_the_limit(lambda: NumberField((1, 0, Fraction(_HUGE, 3)), (1, 2))),
        TypeError, f"min_poly coefficient must be an int, got a positive "
        f"Fraction of {_HUGE.bit_length()} bits over 2 bits"),
}
# RatFunc.evaluate and floor_of take exact numbers only, by _as_exact's rule.
_EXACT = "must be an int, Fraction or AlgebraicNumber, got "
for _value in (1.5, True, "3"):
    _REFUSALS.update({
        f"RatFunc.evaluate at {_value!r}": (
            lambda v=_value: RatFunc((1, 1), (2,)).evaluate(v), TypeError,
            f"alpha {_EXACT}{_value!r}"),
        f"floor_of {_value!r}": (
            lambda v=_value: floor_of(v), TypeError, f"x {_EXACT}{_value!r}"),
    })
# The six treeval routes read the pair and the index through one reader,
# which refuses a non-int index before any route's range test.
for _value in (True, 1.5, "3", None):
    _REFUSALS.update({
        f"det_invariant at {_value!r}": _not_an_int(
            lambda v=_value: det_invariant(_TWELVE, v), "index", _value),
        f"gap_diagnostics at {_value!r}": _not_an_int(
            lambda v=_value: gap_diagnostics(_TWELVE, v), "index", _value),
        f"convergent_backward from m {_value!r} to 0": _not_an_int(
            lambda v=_value: convergent_backward(_TWELVE, v, 0), "m", _value),
        f"convergent_backward from 2 to n {_value!r}": _not_an_int(
            lambda v=_value: convergent_backward(_TWELVE, 2, v), "index", _value),
    })


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_bad_input_raises_its_exact_error(case):
    call, error, message = _REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_evaluate_and_floor_of_take_an_int():
    value = RatFunc((1, 0), (1,)).evaluate(3)
    assert type(value) is Fraction and value == 3
    assert RatFunc((1, 1), (2,)).evaluate(Fraction(3, 2)) == Fraction(5, 4)
    assert floor_of(5) == 5 and floor_of(Fraction(-3, 2)) == -2


def test_number_field_equality():
    assert (TRIBONACCI == 1) is False
    assert (TRIBONACCI.generator() == "1") is False
    # A degree-1 polynomial has one root, whatever interval isolates it.
    assert NumberField((2, -3), (1, 2)) == NumberField((2, -3), (0, 3))
    # Disjoint intervals isolate different roots of one polynomial.
    assert NumberField((1, 0, -2), (1, 2)) != NumberField((1, 0, -2), (-2, -1))


def test_degree_one_refinement_keeps_the_middle_half_around_its_root():
    # The bisection midpoint of (-1, 1) is the root 0 itself.
    field = NumberField((1, 0), (-1, 1))
    field.refine()
    assert field.interval() == (Fraction(-1, 2), Fraction(1, 2))


def test_empty_and_constant_polynomials():
    assert polys.primitive(()) == ()


def test_scan_records_a_non_cubic_as_error():
    records = conjecture_scan([(1, 0, -2)], [((1, 0, 0), (1,))], 4)
    assert records == [
        ScanRecord((1, 0, -2), None, None, "error", None, None, None)
    ]


# Arguments for every public callable: small ints (every index, size and
# place count is at most 64), bools, Fractions, floats with nan, None,
# strings (literals and digit lists among them), field elements of two
# fields, digit pairs and expansion states, and tuples nesting them.
_ELEMENTS = [TRIBONACCI.generator(), TRIBONACCI.generator() ** 2 + 1,
             1 / TRIBONACCI.generator(),
             NumberField((1, 0, -2), (1, 2)).generator()]
_OBJECTS = [SequencePair((1, 2), (0, 1)),
            SequencePair((2, 1), (1, 1), periodicity=(0, 2)),
            SequencePair((1,), (1, 0), terminal=Fraction(2)),
            ExpansionState(Fraction(3, 2), Fraction(4, 3), 0)]
_ATOMS = st.one_of(
    st.integers(-64, 64), st.booleans(),
    st.builds(Fraction, st.integers(-64, 64), st.integers(1, 64)),
    st.floats(-64, 64) | st.just(math.nan), st.none(),
    st.text(max_size=8) | st.sampled_from([
        "rat:7/4", "alg:1,-1,-1,-1@1,2", "ratfunc:1,1/1,0", "dec:1.5",
        "1,2,3", "0,1", "ascii", "latex"]),
    st.sampled_from(_ELEMENTS + _OBJECTS),
)
_ARGUMENTS = st.recursive(
    _ATOMS, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=10)
_CALLABLES = sorted(name for name in bcf.__all__ if callable(getattr(bcf, name)))


@pytest.mark.parametrize("name", _CALLABLES)
@given(args=st.lists(_ARGUMENTS, max_size=4))
@settings(max_examples=30, deadline=None)
def test_public_callables_raise_only_documented_errors(name, args):
    if name == "conjecture_scan" and len(args) > 3:
        args[3] = 1  # jobs: never a worker pool
    try:
        getattr(bcf, name)(*args)
    except (BcfError, TypeError, ValueError, ZeroDivisionError):
        pass
