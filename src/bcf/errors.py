"""Exception types raised by the bcf package."""


class BcfError(Exception):
    """Base class for all bcf-specific errors."""


class InputError(BcfError):
    """Base class for the errors that reject the caller's input: the CLI
    exits 2 for these and 3 for every other BcfError."""


class ReduciblePolynomial(InputError):
    """A polynomial that must be irreducible over the rationals is not."""


class RootCountNotOne(InputError):
    """An interval that must isolate exactly one real root does not."""


class DegreeOutOfRange(InputError):
    """A polynomial degree falls outside the supported range."""


class FieldMismatch(InputError):
    """Two algebraic numbers from different fields were combined."""


class NonPositiveInput(InputError):
    """An input that must be positive (typically >= 1) is not."""


class InvalidSequence(InputError, ValueError):
    """A digit sequence pair violates a structural requirement."""


class DegenerateSystem(BcfError):
    """A recovery system collapsed and no cubic can be extracted."""


class OutputTooLarge(BcfError):
    """An output exceeds a budget: Python's integer-string limit, or the
    render or scan budget."""


class ParseError(InputError, ValueError):
    """A textual literal could not be parsed."""


class EmptyInterval(InputError, ValueError):
    """An interval given as (lo, hi) does not satisfy lo < hi."""


class IndexOutOfRange(InputError, IndexError):
    """A sequence index lies outside the available digit range."""
