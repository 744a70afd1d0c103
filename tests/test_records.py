"""Result records are immutable named tuples: each keeps its field order,
pickles and deep-copies to an equal value with an equal hash, refuses
assignment, and prints as Name(field=value, ...); SequencePair keeps its
own repr, and every way of building one checks its digits."""

import copy
import pickle
from fractions import Fraction

import pytest

from bcf import (
    ExpansionState,
    NumberField,
    SequencePair,
    Terminated,
    approximate,
    conjecture_scan,
    convergent,
    gap_diagnostics,
    recover_cubic_pure,
    validate,
)
from bcf.errors import InvalidSequence

_PERIODIC = SequencePair((2, 1), (1, 1), periodicity=(0, 2))
_RECORDS = {
    "SequencePair": (
        SequencePair((9, 2, 3), (9, 0, 0), periodicity=(1, 2)),
        ("a", "b", "terminal", "periodicity"),
    ),
    "ExpansionState": (
        ExpansionState(Fraction(3, 2), Fraction(4, 3), 0),
        ("alpha", "beta", "index"),
    ),
    "Terminated": (Terminated(Fraction(5, 3)), ("terminal",)),
    "DecimalApproximation": (
        approximate(NumberField((1, -1, -1, -1), (1, 2)).generator(), 6),
        ("text", "error_bound"),
    ),
    "ConvergentTriple": (convergent(_PERIODIC, 5), ("n", "A", "B", "C")),
    "ConvergenceDiagnostics": (
        gap_diagnostics(_PERIODIC, 9), ("delta", "dmax", "certificate"),
    ),
    "ValidationReport": (
        validate(SequencePair((1, 0, 2), (0, 1, 3))),
        ("valid", "violations", "indeterminate", "last_checked"),
    ),
    "RecoveredCubic": (
        recover_cubic_pure(((1,), (1,))),
        ("poly", "beta_expr", "field", "alpha", "beta", "quartic", "matrix"),
    ),
    "ScanRecord": (
        conjecture_scan([(1, -1, -1, -1)], [((1, -1, 0), (1,))], 8)[0],
        ("min_poly", "interval", "beta_expr", "status", "preperiod", "period",
         "digits_preview"),
    ),
}


@pytest.mark.parametrize("name", list(_RECORDS))
def test_record_is_an_immutable_named_tuple(name):
    record, fields = _RECORDS[name]
    assert type(record).__name__ == name
    assert record._fields == fields
    assert record == tuple(getattr(record, field) for field in fields)
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == repr(record)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.other = 0
    if name != "SequencePair":
        assert repr(record) == name + "(" + ", ".join(
            f"{field}={getattr(record, field)!r}" for field in fields) + ")"


def test_every_sequence_pair_constructor_checks_its_digits():
    pair = _RECORDS["SequencePair"][0]
    with pytest.raises(InvalidSequence, match=r"a\[1\] must be nonnegative"):
        SequencePair._make(((9, -2, 3), (9, 0, 0), None, (1, 2)))
    with pytest.raises(InvalidSequence, match=r"b\[0\] must be nonnegative"):
        pair._replace(b=(-9, 0, 0))
    assert pair._replace(periodicity=(0, 3)) == SequencePair(
        (9, 2, 3), (9, 0, 0), periodicity=(0, 3))
