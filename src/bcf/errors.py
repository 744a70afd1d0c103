"""Exception types raised by the bcf package."""


class BcfError(Exception):
    """Base class for all bcf-specific errors."""


class ReduciblePolynomial(BcfError):
    """A polynomial that must be irreducible over the rationals is not."""


class RootCountNotOne(BcfError):
    """An interval that must isolate exactly one real root does not."""


class DegreeOutOfRange(BcfError):
    """A polynomial degree falls outside the supported range."""


class FieldMismatch(BcfError):
    """Two algebraic numbers from different fields were combined."""


class NonPositiveInput(BcfError):
    """An input that must be positive (typically >= 1) is not."""


class InvalidSequence(BcfError, ValueError):
    """A digit sequence pair violates a structural requirement."""


class DegenerateSystem(BcfError):
    """A recovery system collapsed and no cubic can be extracted."""


class OutputTooLarge(BcfError):
    """A number is too long to render under Python's integer-string limit."""


class ParseError(BcfError, ValueError):
    """A textual literal could not be parsed."""


class EmptyInterval(BcfError, ValueError):
    """An interval given as (lo, hi) does not satisfy lo < hi."""


class IndexOutOfRange(BcfError, IndexError):
    """A sequence index lies outside the available digit range."""
