"""Exact arithmetic in rational, quadratic, and cubic number fields.

A :class:`NumberField` is Q[x]/(f) for an irreducible integer polynomial f
of degree 1 to 3, together with an open rational interval isolating one real
root theta of f.  An :class:`AlgebraicNumber` is an element of such a field,
stored as exact rational coordinates in the power basis 1, theta, ...,
theta^(d-1).  All predicates (sign, floor, comparisons) are decided exactly:
rational elements directly, irrational ones by refining the isolating
interval until the answer is certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import polys
from .errors import (
    DegreeOutOfRange,
    FieldMismatch,
    ReduciblePolynomial,
    RootCountNotOne,
)


def _coerce_int(value, what):
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    as_fraction = Fraction(value)
    if as_fraction.denominator != 1:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return as_fraction.numerator


def _round_half_away(value, digits):
    """Round a Fraction to `digits` decimal places, halves away from zero."""
    scaled = Fraction(value) * 10**digits
    magnitude = (2 * abs(scaled.numerator) + scaled.denominator) // (
        2 * scaled.denominator
    )
    if scaled < 0:
        magnitude = -magnitude
    return Fraction(magnitude, 10**digits)


def _format_decimal(value, digits):
    """Render a Fraction that is an exact multiple of 10**-digits."""
    scaled = Fraction(value) * 10**digits
    if scaled.denominator != 1:
        raise ValueError("value is not aligned to the requested digit grid")
    n = scaled.numerator
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


@dataclass(frozen=True)
class DecimalApproximation:
    """A decimal rendering together with a certified error bound."""

    text: str
    error_bound: Fraction

    @property
    def value(self):
        return Fraction(self.text)


class NumberField:
    """Q adjoined with one certified real root of an irreducible polynomial."""

    def __init__(self, min_poly, root_interval):
        coeffs = polys.trim(_coerce_int(c, "min_poly coefficient") for c in min_poly)
        d = polys.degree(coeffs)
        if d < 1 or d > 3:
            raise DegreeOutOfRange(
                f"minimal polynomial must have degree 1-3, got degree {d}"
            )
        coeffs = polys.primitive(coeffs)
        if not polys.is_irreducible(coeffs):
            raise ReduciblePolynomial(
                f"polynomial {coeffs} is reducible over the rationals"
            )
        lo, hi = (Fraction(x) for x in root_interval)
        if not lo < hi:
            raise ValueError(f"root interval must satisfy lo < hi, got ({lo}, {hi})")
        if polys.evaluate(coeffs, lo) == 0 or polys.evaluate(coeffs, hi) == 0:
            raise RootCountNotOne(
                "root interval endpoints must not be roots of the polynomial"
            )
        chain = polys.sturm_chain(coeffs)
        count = polys.count_roots(chain, lo, hi)
        if count != 1:
            raise RootCountNotOne(
                f"interval ({lo}, {hi}) contains {count} roots, expected exactly 1"
            )
        self._min_poly = coeffs
        self._root_interval = (lo, hi)
        self._sturm_chain = tuple(chain)
        # Mutable cache: shrinks monotonically, always contains the root.
        self._lo = lo
        self._hi = hi
        self._sign_lo = polys._sign(polys.evaluate(coeffs, lo))
        self._theta_powers = self._build_power_table()

    @property
    def min_poly(self):
        return self._min_poly

    @property
    def root_interval(self):
        return self._root_interval

    @property
    def degree(self):
        return len(self._min_poly) - 1

    def _build_power_table(self):
        """Ascending coordinates of theta^k for k = 0 .. 2d-2."""
        d = self.degree
        lead = self._min_poly[0]
        # theta^d in the power basis, from the minimal polynomial.
        theta_d = tuple(
            Fraction(-c, lead) for c in reversed(self._min_poly[1:])
        )
        table = []
        current = (Fraction(1),) + (Fraction(0),) * (d - 1)
        for _ in range(2 * d - 1):
            table.append(current)
            shifted = (Fraction(0),) + current[: d - 1]
            overflow = current[d - 1]
            current = tuple(s + overflow * t for s, t in zip(shifted, theta_d))
        return tuple(table)

    def interval(self):
        """Current cached isolating interval (shrinks as queries refine it)."""
        return self._lo, self._hi

    def refine(self):
        """Halve the cached isolating interval, keeping the root inside."""
        mid = (self._lo + self._hi) / 2
        s = polys._sign(polys.evaluate(self._min_poly, mid))
        if s == 0:
            # Only possible for a degree-1 field, where the root is rational:
            # shrink symmetrically around the midpoint instead.
            quarter = (self._hi - self._lo) / 4
            self._lo, self._hi = mid - quarter, mid + quarter
            self._sign_lo = polys._sign(polys.evaluate(self._min_poly, self._lo))
        elif s == self._sign_lo:
            self._lo = mid
        else:
            self._hi = mid

    def refine_below(self, width):
        """Refine until the cached interval is strictly narrower than width."""
        while self._hi - self._lo >= width:
            self.refine()
        return self._lo, self._hi

    def generator(self):
        """The distinguished root theta as a field element."""
        if self.degree == 1:
            theta = Fraction(-self._min_poly[1], self._min_poly[0])
            return AlgebraicNumber(self, (theta,))
        coords = [Fraction(0)] * self.degree
        coords[1] = Fraction(1)
        return AlgebraicNumber(self, coords)

    def element(self, value):
        """Embed a rational number into the field."""
        coords = [Fraction(value)] + [Fraction(0)] * (self.degree - 1)
        return AlgebraicNumber(self, coords)

    def __eq__(self, other):
        if not isinstance(other, NumberField):
            return NotImplemented
        if self._min_poly != other._min_poly:
            return False
        if self is other:
            return True
        if self.degree == 1:
            return True  # a degree-1 polynomial has a single root
        lo = max(self._lo, other._lo)
        hi = min(self._hi, other._hi)
        if lo >= hi:
            return False
        return polys.count_roots(self._sturm_chain, lo, hi) == 1

    def __hash__(self):
        return hash(("NumberField", self._min_poly))

    def __repr__(self):
        lo, hi = self._root_interval
        return f"NumberField(min_poly={self._min_poly}, root_interval=({lo}, {hi}))"


def _interval_pow(lo, hi, k):
    if k == 0:
        return Fraction(1), Fraction(1)
    if k == 1:
        return lo, hi
    a, b = lo**k, hi**k
    if lo < 0 < hi and k % 2 == 0:
        return Fraction(0), max(a, b)
    return min(a, b), max(a, b)


class AlgebraicNumber:
    """An element of a NumberField, exact in the power basis of theta."""

    __slots__ = ("_field", "_coeffs")

    def __init__(self, field, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        d = field.degree
        if len(coeffs) > d:
            raise ValueError(
                f"need at most {d} coordinates for a degree-{d} field, "
                f"got {len(coeffs)}"
            )
        coeffs = coeffs + (Fraction(0),) * (d - len(coeffs))
        self._field = field
        self._coeffs = coeffs

    @property
    def field(self):
        return self._field

    @property
    def coeffs(self):
        """Coordinates in ascending powers of theta: c0 + c1*theta + ..."""
        return self._coeffs

    # -- classification -------------------------------------------------

    def is_rational(self):
        if self._field.degree == 1:
            return True
        return all(c == 0 for c in self._coeffs[1:])

    def as_fraction(self):
        """Exact rational value; raises ValueError for irrational elements."""
        value = self._rational_value()
        if value is None:
            raise ValueError("element is irrational")
        return value

    # -- coercion -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, AlgebraicNumber):
            if other._field == self._field:
                return other
            raise FieldMismatch(
                f"cannot combine elements of {self._field!r} and {other._field!r}"
            )
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            return self._field.element(other)
        return NotImplemented

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return AlgebraicNumber(
            self._field, tuple(a + b for a, b in zip(self._coeffs, other._coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(self._field, tuple(-c for c in self._coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return AlgebraicNumber(
            self._field, tuple(a - b for a, b in zip(self._coeffs, other._coeffs))
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._field.degree
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                if b:
                    conv[i + j] += a * b
        table = self._field._theta_powers
        out = [Fraction(0)] * d
        for k, c in enumerate(conv):
            if c == 0:
                continue
            for idx, t in enumerate(table[k]):
                out[idx] += c * t
        return AlgebraicNumber(self._field, out)

    __rmul__ = __mul__

    def inverse(self):
        if not any(self._coeffs):
            raise ZeroDivisionError("division by zero field element")
        # Descending-order polynomial representing this element.
        g = polys.trim(tuple(reversed(self._coeffs)))
        f = tuple(Fraction(c) for c in self._field.min_poly)
        gcd, _, t = polys.ext_gcd_q(f, g)
        if gcd != (Fraction(1),):
            raise ZeroDivisionError("element is not invertible")
        _, t = polys.divmod_q(t, f)
        coeffs = list(reversed(polys.trim(t)))
        return AlgebraicNumber(self._field, coeffs)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self._field.element(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- exact predicates -------------------------------------------------

    def _rational_value(self):
        """Exact Fraction value if this element is rational, else None."""
        if self._field.degree == 1 or all(c == 0 for c in self._coeffs[1:]):
            return self._coeffs[0]
        return None

    def value_interval(self):
        """Exact rational bounds on the value from the current theta interval."""
        lo, hi = self._field.interval()
        total_lo = Fraction(0)
        total_hi = Fraction(0)
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            plo, phi = _interval_pow(lo, hi, k)
            if c > 0:
                total_lo += c * plo
                total_hi += c * phi
            else:
                total_lo += c * phi
                total_hi += c * plo
        return total_lo, total_hi

    def sign(self):
        """Exact sign: -1, 0, or 1."""
        rational = self._rational_value()
        if rational is not None:
            return polys._sign(rational)
        # Irrational (a nonconstant element of a minimal field is never
        # rational), hence nonzero: refinement must eventually decide.
        while True:
            lo, hi = self.value_interval()
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self._field.refine()

    def floor(self):
        """Exact floor as a Python int."""
        rational = self._rational_value()
        if rational is not None:
            return math.floor(rational)
        while True:
            lo, hi = self.value_interval()
            flo, fhi = math.floor(lo), math.floor(hi)
            if flo == fhi:
                return flo
            self._field.refine()

    def __floor__(self):
        return self.floor()

    def approximate(self, decimal_digits):
        """Correctly rounded decimal rendering with a certified error bound.

        The text is the true value rounded half-away-from-zero to
        ``decimal_digits`` places; the bound always satisfies
        error_bound <= 10**-decimal_digits / 2.  For an irrational element
        the enclosing interval is refined until both endpoints round to the
        same string, which must happen because the value never sits exactly
        on a rounding boundary (those are rational).
        """
        if decimal_digits < 1:
            raise ValueError("decimal_digits must be at least 1")
        rational = self._rational_value()
        if rational is not None:
            rounded = _round_half_away(rational, decimal_digits)
            return DecimalApproximation(
                _format_decimal(rounded, decimal_digits), abs(rounded - rational)
            )
        while True:
            lo, hi = self.value_interval()
            rounded = _round_half_away(lo, decimal_digits)
            if rounded == _round_half_away(hi, decimal_digits):
                bound = max(abs(rounded - lo), abs(rounded - hi))
                return DecimalApproximation(
                    _format_decimal(rounded, decimal_digits), bound
                )
            self._field.refine()

    def __float__(self):
        lo, hi = self.value_interval()
        width = Fraction(1, 10**18)
        while hi - lo >= width:
            self._field.refine()
            lo, hi = self.value_interval()
        return float((lo + hi) / 2)

    def __bool__(self):
        return self.sign() != 0

    # -- comparisons ------------------------------------------------------

    def _compare(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign()

    def __eq__(self, other):
        if isinstance(other, AlgebraicNumber):
            if self._field == other._field:
                return self._coeffs == other._coeffs
            a, b = self._rational_value(), other._rational_value()
            return a is not None and b is not None and a == b
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            rational = self._rational_value()
            return rational is not None and rational == other
        return NotImplemented

    def __hash__(self):
        rational = self._rational_value()
        if rational is not None:
            return hash(rational)
        return hash((self._field, self._coeffs))

    def __lt__(self, other):
        s = self._compare(other)
        return NotImplemented if s is NotImplemented else s < 0

    def __le__(self, other):
        s = self._compare(other)
        return NotImplemented if s is NotImplemented else s <= 0

    def __gt__(self, other):
        s = self._compare(other)
        return NotImplemented if s is NotImplemented else s > 0

    def __ge__(self, other):
        s = self._compare(other)
        return NotImplemented if s is NotImplemented else s >= 0

    def __repr__(self):
        terms = []
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*theta")
            else:
                terms.append(f"{c}*theta^{k}")
        body = " + ".join(terms) if terms else "0"
        return f"<AlgebraicNumber {body}>"


# -- module-level operations ------------------------------------------------


def floor_of(x):
    """Exact floor of an int, Fraction, or AlgebraicNumber."""
    if isinstance(x, AlgebraicNumber):
        return x.floor()
    return math.floor(x)


def approximate(x, decimal_digits):
    """Certified decimal approximation of an exact number."""
    if isinstance(x, AlgebraicNumber):
        return x.approximate(decimal_digits)
    if decimal_digits < 1:
        raise ValueError("decimal_digits must be at least 1")
    value = Fraction(x)
    rounded = _round_half_away(value, decimal_digits)
    return DecimalApproximation(
        _format_decimal(rounded, decimal_digits), abs(rounded - value)
    )
