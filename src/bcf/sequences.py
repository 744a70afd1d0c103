"""Paired digit sequences produced and consumed by the expansion algorithms."""

from __future__ import annotations

from .errors import IndexOutOfRange, InvalidSequence
from .fields import _as_exact


def _check_digits(name, digits):
    digits = tuple(digits)
    if {int}.issuperset(map(type, digits)) and min(digits, default=0) >= 0:
        return digits
    # The loop names the first bad digit; an int subclass other than bool
    # passes it, as it always has.
    for i, d in enumerate(digits):
        if isinstance(d, bool) or not isinstance(d, int):
            raise InvalidSequence(f"{name}[{i}] must be an int, got {d!r}")
        if d < 0:
            raise InvalidSequence(f"{name}[{i}] must be nonnegative, got {d}")
    return digits


def as_pair(value):
    """Coerce a SequencePair or a raw (a, b) pair of digit sequences."""
    if isinstance(value, SequencePair):
        return value
    a, b = value
    return SequencePair(a, b)


class SequencePair:
    """Two aligned integer digit sequences, optionally terminated or periodic.

    A non-terminated pair has ``len(b) == len(a)``: digit slot i holds
    (a[i], b[i]).  A terminated pair carries one extra b-digit plus the exact
    remainder ``terminal`` standing in the final a-slot, so
    ``len(b) == len(a) + 1``.  ``periodicity=(k, m)`` marks the digits as
    eventually periodic with preperiod k and period m; indexing beyond the
    stored digits then wraps through the cycle.
    """

    __slots__ = ("_a", "_b", "_terminal", "_periodicity")

    def __init__(self, a, b, terminal=None, periodicity=None):
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
            k, m = periodicity
            if not (isinstance(k, int) and isinstance(m, int)):
                raise InvalidSequence("periodicity must be a pair of ints")
            if k < 0 or m < 1:
                raise InvalidSequence(
                    f"periodicity needs preperiod >= 0 and period >= 1, "
                    f"got ({k}, {m})"
                )
            if k + m > len(a):
                raise InvalidSequence(
                    f"periodicity ({k}, {m}) needs at least {k + m} stored "
                    f"digits, have {len(a)}"
                )
            periodicity = (k, m)
        self._a = a
        self._b = b
        self._terminal = terminal
        self._periodicity = periodicity

    @property
    def a(self):
        return self._a

    @property
    def b(self):
        return self._b

    @property
    def terminal(self):
        return self._terminal

    @property
    def periodicity(self):
        return self._periodicity

    @property
    def terminated(self):
        return self._terminal is not None

    @property
    def preperiod(self):
        return None if self._periodicity is None else self._periodicity[0]

    @property
    def period(self):
        return None if self._periodicity is None else self._periodicity[1]

    def _extended(self, name, digits, i):
        if i < 0:
            raise IndexOutOfRange(f"digit index must be nonnegative, got {i}")
        if i < len(digits):
            return digits[i]
        if self._periodicity is not None:
            k, m = self._periodicity
            return digits[k + (i - k) % m]
        raise IndexOutOfRange(
            f"{name}[{i}] is beyond the {len(digits)} stored digits"
        )

    def digit_a(self, i):
        """a[i], following the periodic extension when one is declared."""
        return self._extended("a", self._a, i)

    def digit_b(self, i):
        """b[i], following the periodic extension when one is declared."""
        return self._extended("b", self._b, i)

    def __eq__(self, other):
        if not isinstance(other, SequencePair):
            return NotImplemented
        return (
            self._a == other._a
            and self._b == other._b
            and self._terminal == other._terminal
            and self._periodicity == other._periodicity
        )

    def __hash__(self):
        return hash((self._a, self._b, self._terminal, self._periodicity))

    def __repr__(self):
        parts = [f"a={list(self._a)}", f"b={list(self._b)}"]
        if self._terminal is not None:
            parts.append(f"terminal={self._terminal!r}")
        if self._periodicity is not None:
            parts.append(f"periodicity={self._periodicity}")
        return f"SequencePair({', '.join(parts)})"
