"""SequencePair container semantics: shapes, digit extension, equality."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcf import SequencePair
from bcf.errors import IndexOutOfRange, InvalidSequence
from bcf.sequences import _check_digits


def test_open_pair_shape():
    pair = SequencePair((1, 2), (1, 0))
    assert pair.a == (1, 2) and pair.b == (1, 0)
    assert not pair.terminated
    assert pair.terminal is None and pair.periodicity is None


def test_terminated_pair_shape():
    pair = SequencePair((1, 2), (1, 1, 0), terminal=2)
    assert pair.terminated
    assert pair.terminal == Fraction(2)
    assert isinstance(pair.terminal, Fraction)


def test_shape_errors():
    with pytest.raises(InvalidSequence):
        SequencePair((1, 2), (1,))  # open pair needs equal lengths
    with pytest.raises(InvalidSequence):
        SequencePair((1,), (1, 0, 0), terminal=2)  # needs len(b) = len(a)+1
    with pytest.raises(InvalidSequence):
        SequencePair((1,), (1, 0), terminal=2, periodicity=(0, 1))
    with pytest.raises(InvalidSequence):
        SequencePair((1, 2), (1, 0), periodicity=(0, 3))  # k+m > len
    with pytest.raises(InvalidSequence):
        SequencePair((1, 2), (1, 0), periodicity=(0, 0))  # m >= 1
    with pytest.raises(InvalidSequence):
        SequencePair((1, 2), (1, 0), periodicity=(-1, 2))
    for bad in ((True, 1), (0, False), (0, 1, 2), (0,), 5, (0, 1.0), "01"):
        with pytest.raises(InvalidSequence, match="pair of ints"):
            SequencePair((1, 2), (1, 0), periodicity=bad)


def test_digit_type_checks():
    with pytest.raises(InvalidSequence):
        SequencePair((1.0, 2), (1, 0))
    with pytest.raises(InvalidSequence):
        SequencePair((True, 2), (1, 0))
    with pytest.raises(InvalidSequence):
        SequencePair((-1, 2), (1, 0))


def _digit_loop(name, digits):
    """_check_digits one digit at a time: the reference for its fast path."""
    out = []
    for i, d in enumerate(digits):
        if isinstance(d, bool) or not isinstance(d, int):
            raise InvalidSequence(f"{name}[{i}] must be an int, got {d!r}")
        if d < 0:
            raise InvalidSequence(f"{name}[{i}] must be nonnegative, got {d}")
        out.append(d)
    return tuple(out)


class _Digit(int):
    """An int subclass: accepted as a digit, but not by the fast path."""


_DIGIT_ITEMS = st.one_of(
    st.integers(-3, 12),
    st.integers(0, 2**80),
    st.integers(0, 5).map(_Digit),
    st.booleans(),
    st.sampled_from([1.0, "1", None, Fraction(1, 2), Fraction(2)]),
)


@given(st.lists(_DIGIT_ITEMS, max_size=8),
       st.sampled_from([list, tuple, iter]))
@settings(max_examples=400, deadline=None)
def test_check_digits_matches_the_digit_loop(items, container):
    try:
        expected = _digit_loop("a", container(items))
    except InvalidSequence as error:
        with pytest.raises(InvalidSequence) as info:
            _check_digits("a", container(items))
        assert str(info.value) == str(error)
    else:
        got = _check_digits("a", container(items))
        assert type(got) is tuple and got == expected
        assert list(map(type, got)) == list(map(type, expected))


def test_periodic_extension():
    pair = SequencePair((9, 2, 3), (9, 0, 0), periodicity=(1, 2))
    assert [pair.digit_a(i) for i in range(7)] == [9, 2, 3, 2, 3, 2, 3]
    assert [pair.digit_b(i) for i in range(7)] == [9, 0, 0, 0, 0, 0, 0]
    assert pair.preperiod == 1 and pair.period == 2


def test_open_pair_extension_stops():
    pair = SequencePair((1, 2), (1, 0))
    assert pair.digit_a(1) == 2
    with pytest.raises(IndexOutOfRange):
        pair.digit_a(2)
    with pytest.raises(IndexOutOfRange):
        pair.digit_b(2)
    with pytest.raises(IndexOutOfRange):
        pair.digit_a(-1)


def test_terminated_extension_has_extra_b():
    pair = SequencePair((1, 2), (1, 1, 0), terminal=2)
    assert pair.digit_b(2) == 0
    with pytest.raises(IndexOutOfRange):
        pair.digit_a(2)
    with pytest.raises(IndexOutOfRange):
        pair.digit_b(3)


def test_equality_and_hash():
    p1 = SequencePair((1, 1), (1, 1), periodicity=(0, 1))
    p2 = SequencePair((1, 1), (1, 1), periodicity=(0, 1))
    p3 = SequencePair((1, 1), (1, 1))
    assert p1 == p2 and hash(p1) == hash(p2)
    assert p1 != p3
    assert p1 != ((1, 1), (1, 1))


def test_tuple_construction_helper():
    from bcf.sequences import as_pair

    pair = as_pair(((1, 2), (1, 0)))
    assert isinstance(pair, SequencePair)
    assert as_pair(pair) is pair


def test_repr_of_terminated_and_periodic_pairs():
    terminated = SequencePair([1, 2], [1, 1, 0], terminal=Fraction(3, 2))
    assert repr(terminated) == (
        "SequencePair(a=[1, 2], b=[1, 1, 0], terminal=Fraction(3, 2))"
    )
    periodic = SequencePair((9, 2, 3), (9, 0, 0), periodicity=[1, 2])
    assert repr(periodic) == (
        "SequencePair(a=[9, 2, 3], b=[9, 0, 0], periodicity=(1, 2))"
    )
    assert repr(SequencePair((), ())) == "SequencePair(a=[], b=[])"


def test_pair_is_immutable():
    pair = SequencePair((1, 2), (1, 0))
    for name, value in (("a", (3,)), ("b", (0,)), ("terminal", 1),
                        ("periodicity", (0, 1))):
        with pytest.raises(AttributeError):
            setattr(pair, name, value)
    assert pair.a == (1, 2) and pair.b == (1, 0)


def test_non_field_assignment_is_an_attribute_error():
    pair = SequencePair((1, 2), (1, 0))
    with pytest.raises(AttributeError):
        pair.other = 0
    assert not hasattr(pair, "other")


@pytest.mark.parametrize("pair", [
    SequencePair((1, 2), (1, 0)),
    SequencePair((1, 2), (1, 1, 0), terminal=Fraction(5, 3)),
    SequencePair((9, 2, 3), (9, 0, 0), periodicity=(1, 2)),
])
def test_pickle_and_deepcopy_round_trip(pair):
    import copy
    import pickle

    for clone in (pickle.loads(pickle.dumps(pair)), copy.deepcopy(pair)):
        assert clone == pair and hash(clone) == hash(pair)
        assert repr(clone) == repr(pair)


def test_list_and_tuple_inputs_build_equal_pairs():
    from_lists = SequencePair([9, 2, 3], [9, 0, 0], periodicity=[1, 2])
    from_tuples = SequencePair((9, 2, 3), (9, 0, 0), periodicity=(1, 2))
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert type(from_lists.a) is tuple and type(from_lists.b) is tuple
    assert type(from_lists.periodicity) is tuple
    assert from_lists.periodicity == (1, 2)
    terminated = SequencePair([1], [1, 0], terminal=2)
    assert terminated == SequencePair((1,), (1, 0), terminal=Fraction(2))
    assert type(terminated.terminal) is Fraction
