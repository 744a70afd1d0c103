"""Paired digit sequences produced and consumed by the expansion algorithms."""

from collections import namedtuple

from .errors import IndexOutOfRange, InvalidSequence
from .fields import _as_exact, _check_index, _shown


def _check_digits(name, digits):
    digits = tuple(digits)
    if {int}.issuperset(map(type, digits)) and min(digits, default=0) >= 0:
        return digits
    # The loop names the first bad digit; an int subclass other than bool
    # passes it, as it always has.
    for i, d in enumerate(digits):
        if isinstance(d, bool) or not isinstance(d, int):
            raise InvalidSequence(f"{name}[{i}] must be an int, got {_shown(d, repr)}")
        if d < 0:
            raise InvalidSequence(f"{name}[{i}] must be nonnegative, got {_shown(d)}")
    return digits


def as_pair(value):
    """Coerce a SequencePair or a raw (a, b) pair of digit sequences; any
    other value is a TypeError that names it."""
    if isinstance(value, SequencePair):
        return value
    try:
        a, b = value
        a, b = tuple(a), tuple(b)
    except (TypeError, ValueError):
        raise TypeError("expected a SequencePair or an (a, b) pair of digit "
                        f"sequences, got {value!r}") from None
    return SequencePair(a, b)


class SequencePair(namedtuple("SequencePair", "a b terminal periodicity")):
    """Two aligned integer digit sequences, optionally terminated or periodic.

    A non-terminated pair has ``len(b) == len(a)``: digit slot i holds
    (a[i], b[i]).  A terminated pair carries one extra b-digit plus the exact
    remainder ``terminal`` standing in the final a-slot, so
    ``len(b) == len(a) + 1``.  ``periodicity=(k, m)`` marks the digits as
    eventually periodic with preperiod k and period m; indexing beyond the
    stored digits then wraps through the cycle.
    """

    __slots__ = ()

    def __new__(cls, a, b, terminal=None, periodicity=None):
        a = _check_digits("a", a)
        b = _check_digits("b", b)
        if terminal is not None and periodicity is not None:
            raise InvalidSequence(
                "a terminated pair cannot also be marked periodic"
            )
        if terminal is not None:
            if len(b) != len(a) + 1:
                raise InvalidSequence(
                    f"terminated pair needs len(b) == len(a) + 1, "
                    f"got len(a)={len(a)}, len(b)={len(b)}"
                )
            terminal = _as_exact(terminal, "terminal")
        else:
            if len(b) != len(a):
                raise InvalidSequence(
                    f"open pair needs len(b) == len(a), "
                    f"got len(a)={len(a)}, len(b)={len(b)}"
                )
        if periodicity is not None:
            if not (isinstance(periodicity, (tuple, list)) and len(periodicity) == 2
                    and all(type(n) is not bool and isinstance(n, int)
                            for n in periodicity)):
                raise InvalidSequence("periodicity must be a pair of ints")
            k, m = periodicity
            if k < 0 or m < 1:
                raise InvalidSequence(
                    f"periodicity needs preperiod >= 0 and period >= 1, "
                    f"got ({_shown(k)}, {_shown(m)})"
                )
            if k + m > len(a):
                raise InvalidSequence(
                    f"periodicity ({_shown(k)}, {_shown(m)}) needs at least "
                    f"{_shown(k + m)} stored digits, have {len(a)}"
                )
            periodicity = (k, m)
        return tuple.__new__(cls, (a, b, terminal, periodicity))

    @classmethod
    def _make(cls, iterable):
        """The pair of four fields, checked like any other (_replace too)."""
        return cls(*iterable)

    @property
    def terminated(self):
        return self.terminal is not None

    @property
    def preperiod(self):
        return None if self.periodicity is None else self.periodicity[0]

    @property
    def period(self):
        return None if self.periodicity is None else self.periodicity[1]

    def _extended(self, name, digits, i):
        if type(i) is not int or i < 0:
            _check_index(i, "digit index")
            i = int(i)  # an int subclass other than bool passes
        if i < len(digits):
            return digits[i]
        if self.periodicity is not None:
            k, m = self.periodicity
            return digits[k + (i - k) % m]
        raise IndexOutOfRange(
            f"{name}[{_shown(i)}] is beyond the {len(digits)} stored digits"
        )

    def digit_a(self, i):
        """a[i], following the periodic extension when one is declared."""
        return self._extended("a", self.a, i)

    def digit_b(self, i):
        """b[i], following the periodic extension when one is declared."""
        return self._extended("b", self.b, i)

    def __repr__(self):
        parts = [f"a={list(self.a)}", f"b={list(self.b)}"]
        if self.terminal is not None:
            parts.append(f"terminal={self.terminal!r}")
        if self.periodicity is not None:
            parts.append(f"periodicity={self.periodicity}")
        return f"SequencePair({', '.join(parts)})"
