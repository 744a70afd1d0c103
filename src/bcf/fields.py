"""Exact arithmetic in quadratic and cubic number fields.

A :class:`NumberField` is Q[x]/(f) for an irreducible integer polynomial f
of degree 2 or 3, together with an open rational interval isolating one real
root theta of f; a rational is a Fraction, not a degree-1 field.  An
:class:`AlgebraicNumber` is an element of such a field, stored as three
integer numerators, zero past the degree d, over one positive common
denominator in the power basis 1, theta, theta^2, normalised after every
operation so that the denominator is coprime to the numerators' content.
Products and inverses share one closed form per degree on integer
numerators: an integer convolution reduced modulo f, and the adjugate of the
integer multiplication matrix.  ``_primitive`` applies both to reduce a
projective triple of numerator vectors, the state of a field expansion, to
its canonical form.  Only this module reads d.  All predicates (sign, floor,
comparisons) are decided exactly, every element's through one refinement
loop, ``_floor``, which narrows the isolating interval, held as integers
over one denominator, by ``_refine_more``'s rule until both bounds share a
floor (a rational's bounds are its value).  A nonzero element's floor
decides its sign, and an irrational one is never on a rounding tie, so
floors decide its decimals (``approximate``) and its float() too.
"""

import math
import sys
from collections import namedtuple
from fractions import Fraction

from . import polys
from .errors import (
    DegreeOutOfRange,
    EmptyInterval,
    FieldMismatch,
    IndexOutOfRange,
    OutputTooLarge,
    ReduciblePolynomial,
    RootCountNotOne,
)


def _too_long_to_print():
    """OutputTooLarge for str()'s ValueError past Python's digit limit."""
    return OutputTooLarge(
        "an integer in the output has more than "
        f"{sys.get_int_max_str_digits()} decimal digits, Python's limit "
        "for integer-to-string conversion"
    )


def bounded_str(value, render=str):
    """render(value), raising OutputTooLarge where an integer in it exceeds
    Python's digit limit for integer-to-string conversion."""
    try:
        return render(value)
    except ValueError:
        raise _too_long_to_print() from None


def _shown(x, render=str):
    """render(x), str of a number or repr where the message is about its
    type, for an error message that quotes a caller's value; past Python's
    digit limit, an int or Fraction's size in bits (and type, under repr),
    or any other value's type, such as a field element's or a container's."""
    try:
        return render(x)
    except ValueError:
        if not isinstance(x, (int, Fraction)):
            return f"a value of type {type(x).__name__} too long to print"
        size = f"{x.numerator.bit_length()} bits"
        if x.denominator > 1:
            size += f" over {x.denominator.bit_length()} bits"
        kind = type(x).__name__ if render is repr else "number"
        return f"{'a negative' if x < 0 else 'a positive'} {kind} of {size}"


def _check_int(value, what):
    """The type rule for counts and indices: an int, not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int, got {_shown(value, repr)}")


def _check_count(value, what, least=1):
    """The rule for counts and indices: _check_int's, and at least `least`."""
    _check_int(value, what)
    if value < least:
        raise ValueError(f"{what} must be at least {least}")


def _check_index(n, what="index", error=IndexOutOfRange):
    """``_check_count``'s rule from 0, but a negative int raises `error`."""
    if isinstance(n, int) and n < 0:
        raise error(f"{what} must be nonnegative, got {_shown(n)}")
    _check_count(n, what, 0)


def _check_places(decimal_digits):
    """Reject a decimal place count by _check_count's rule or above Python's
    integer-to-string limit (OutputTooLarge), before any work is done."""
    _check_count(decimal_digits, "decimal_digits")
    limit = sys.get_int_max_str_digits()
    if limit and decimal_digits > limit:
        raise OutputTooLarge(
            f"{decimal_digits} decimal places exceed {limit} decimal digits, "
            "Python's limit for integer-to-string conversion"
        )


def _rounded_decimal(num, den, digits):
    """num / den rounded half away from zero to `digits` places.

    Returns (n, text): the rounded value is n / 10**digits and text is its
    decimal rendering, with a minus sign only when n < 0.  One divmod
    rounds, with no gcd; den == 0 raises ZeroDivisionError.
    """
    if den < 0:
        num, den = -num, -den
    unit = 10**digits
    n, r = divmod(abs(num) * unit, den)
    n += 2 * r >= den
    whole, frac = divmod(n, unit)
    try:
        text = f"{whole}.{str(frac).zfill(digits)}"
    except ValueError:
        raise _too_long_to_print() from None
    if num < 0 and n:
        return -n, "-" + text
    return n, text


class DecimalApproximation(namedtuple("DecimalApproximation", "text error_bound")):
    """A decimal rendering together with a certified error bound."""

    __slots__ = ()

    @property
    def value(self):
        return Fraction(self.text)


class NumberField:
    """Q adjoined with one certified real root of an irreducible polynomial."""

    def __init__(self, min_poly, root_interval):
        coeffs = polys.trim(_as_ints(min_poly, "min_poly"))
        d = polys.degree(coeffs)
        if d < 2 or d > 3:
            raise DegreeOutOfRange(
                f"minimal polynomial must have degree 2-3, got degree {d}"
            )
        coeffs = polys.primitive(coeffs)
        chain = polys.sturm_chain(coeffs)
        if polys._isolate(chain) is None:
            raise ReduciblePolynomial(
                f"polynomial {coeffs} is reducible over the rationals"
            )
        lo, hi = (_as_rational(x, "root interval end") for x in root_interval)
        self._setup(chain, lo, hi)

    def _setup(self, chain, lo, hi):
        """The set-up that __init__ and _field_on_chain share: check that
        the interval (lo, hi) of Fractions isolates one root of chain[0],
        counted on its Sturm chain chain, and fill the caches.  chain[0] is
        irreducible of degree 2 or 3, so no rational end is a root."""
        coeffs = chain[0]
        if not lo < hi:
            raise EmptyInterval("root interval must satisfy lo < hi, "
                                f"got ({_shown(lo)}, {_shown(hi)})")
        count = polys.count_roots(chain, lo, hi)
        if count != 1:
            raise RootCountNotOne(f"interval ({_shown(lo)}, {_shown(hi)}) contains "
                                  f"{count} roots, expected exactly 1")
        self._min_poly = coeffs
        self._root_interval = (lo, hi)
        self._sturm_chain = tuple(chain)
        # Mutable cache: the interval (lo_n / q, hi_n / q) over one shared
        # denominator shrinks monotonically and always contains the root;
        # f has the sign sign_lo at its lower end.  It starts inside
        # (-bound, bound) / lead, which holds every root (polys._isolate).
        q = math.lcm(lo.denominator, hi.denominator)
        lo_n = lo.numerator * (q // lo.denominator)
        hi_n = hi.numerator * (q // hi.denominator)
        lead = abs(coeffs[0])
        bound = lead + max(map(abs, coeffs[1:]))
        if max(-lo_n, hi_n) * lead > bound * q:
            lo_n, hi_n = max(lo_n * lead, -bound * q), min(hi_n * lead, bound * q)
            q *= lead
        self._lo_n, self._hi_n, self._q = lo_n, hi_n, q
        self._sign_lo = polys._sign_at(coeffs, lo.numerator, lo.denominator)
        self._qir_bits = 2  # bits the next quadratic refinement step tries
        self._powers = None  # _power_bounds of the interval; reset by refine
        # theta^d = -(f_0 + f_1 theta + ... + f_(d-1) theta^(d-1)) / lead.
        self._lead = coeffs[0]
        self._low = tuple(reversed(coeffs[1:]))
        self._lead_power = self._lead ** (len(coeffs) - 2)  # L in _convolve

    @property
    def min_poly(self):
        return self._min_poly

    @property
    def root_interval(self):
        return self._root_interval

    @property
    def degree(self):
        return len(self._min_poly) - 1

    def interval(self):
        """Current cached isolating interval (shrinks as queries refine it)."""
        return Fraction(self._lo_n, self._q), Fraction(self._hi_n, self._q)

    def _power_bounds(self):
        """Integer bounds on the powers of theta from the cached interval
        as midpoints and radii (m_0, m_1, r_1, m_2, r_2), zero past the
        degree: |2 * theta**k * q**(degree - 1) - m_k| <= r_k, q the
        interval's shared denominator, so r_0 = 0."""
        if self._powers is None:
            pl, ph, q = self._lo_n, self._hi_n, self._q
            top = self.degree - 1
            powers = [2 * q**top]
            for k in range(1, top + 1):
                a, b = pl**k * q ** (top - k), ph**k * q ** (top - k)
                plo, phi = (a, b) if a <= b else (b, a)
                if k % 2 == 0 and pl < 0 < ph:
                    plo = 0
                powers += [plo + phi, phi - plo]
            self._powers = tuple(powers + [0] * (5 - len(powers)))
        return self._powers

    def refine(self, bits=1):
        """Shrink the cached isolating interval at least 2**bits-fold,
        keeping the root inside.

        Quadratic interval refinement (J. Abbott, ACM Commun. Comput.
        Algebra 48, 2014): a step of k bits cuts the interval into 2**k
        equal cells and keeps the cell that a Newton guess points at once
        exact signs of f certify the root in it (_qir_cell); k doubles
        after each full step and halves after a miss, which falls back to
        one bisection.  No step takes more bits than are still wanted, so
        refine() is one bisection.  Every step multiplies the shared
        denominator q by a power of two and keeps the ends integers over it.
        bits takes the count rule from 0.
        """
        _check_count(bits, "bits", 0)
        self._powers = None
        f, sign_lo = self._min_poly, self._sign_lo
        lo, hi, q = self._lo_n, self._hi_n, self._q
        gained = 0
        while gained < bits:
            k = min(self._qir_bits, bits - gained)
            cell = _qir_cell(f, sign_lo, lo, hi, q, k) if k > 1 else None
            if cell is not None:
                w = hi - lo
                lo = (lo << k) + cell * w
                hi, q = lo + w, q << k
                gained += k
                if k == self._qir_bits:
                    self._qir_bits *= 2
                continue
            if k > 1:
                self._qir_bits = max(2, self._qir_bits // 2)
            mid = lo + hi
            if polys._sign_at(f, mid, 2 * q) == sign_lo:
                lo, hi, q = mid, 2 * hi, 2 * q
            else:
                lo, hi, q = 2 * lo, mid, 2 * q
            gained += 1
        self._lo_n, self._hi_n, self._q = lo, hi, q

    def generator(self):
        """The distinguished root theta as a field element."""
        return _element(self, (0, 1, 0), 1)

    def element(self, value):
        """Embed a rational number (an int or Fraction) into the field."""
        value = _as_rational(value, "value")
        return _element(self, (value.numerator, 0, 0), value.denominator)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, NumberField):
            return NotImplemented
        if self._min_poly != other._min_poly:
            return False
        (lo1, hi1), (lo2, hi2) = self.interval(), other.interval()
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo >= hi:
            return False
        return polys.count_roots(self._sturm_chain, lo, hi) == 1

    def __hash__(self):
        return hash(("NumberField", self._min_poly))

    def __repr__(self):
        lo, hi = self._root_interval
        return f"NumberField(min_poly={self._min_poly}, root_interval=({lo}, {hi}))"


def _field_on_chain(chain, lo, hi):
    """NumberField(chain[0], (lo, hi)) for Fractions lo, hi, built on the
    Sturm chain of chain[0], a primitive polynomial with a positive lead
    that the caller has already found irreducible on the same chain."""
    field = object.__new__(NumberField)
    field._setup(chain, lo, hi)
    return field


def _qir_cell(f, sign_lo, lo, hi, q, k):
    """The index i of the cell [lo + i*w/2**k, lo + (i+1)*w/2**k] / q,
    w = hi - lo, that holds f's one root in (lo / q, hi / q), or None.

    One Newton step from the midpoint m = (lo + hi) / 2q, with f(m) and
    f'(m) held as the homogeneous integers p and dp (over (2q)**d and
    (2q)**(d - 1)), lands n/2 - n*p / (2*w*dp) cells above lo/q, n = 2**k;
    j is that position rounded to a cell boundary.  The sign of f at j
    says on which side of it the root lies, and the sign at the next
    boundary on that side certifies the cell between them: at most two
    exact sign tests.  None when the guess misses (or f' vanishes at m).
    """
    x, e = lo + hi, 2 * q
    p, dp, ek = f[0], 0, 1
    for c in f[1:]:
        ek *= e
        dp = dp * x + p
        p = p * x + c * ek
    if not dp:
        return None
    n, w = 1 << k, hi - lo
    num, den = (n + 1) * w * dp - n * p, 2 * w * dp
    if den < 0:
        num, den = -num, -den
    j = min(max(num // den, 0), n)
    base, qn = lo << k, q << k

    def sign(i):
        if 0 < i < n:
            return polys._sign_at(f, base + i * w, qn)
        return sign_lo if i == 0 else -sign_lo

    s = sign(j)
    step = 1 if s == sign_lo else -1
    if sign(j + step) == -s:
        return min(j, j + step)
    return None


def _normalised(num, den):
    """(num, den) over their gcd with den > 0: the normal form, in which
    equal elements have equal (num, den)."""
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = tuple([n // g for n in num])
        den //= g
    return num, den


def _element(field, num, den):
    """The element num / den of field, normalised."""
    return _normal(field, *_normalised(num, den))


def _normal(field, num, den):
    """The element num / den of field, (num, den) already normalised."""
    x = object.__new__(AlgebraicNumber)
    x._field = field
    x._num = num
    x._den = den
    return x


def _sum(x, y, sign):
    """x + sign * y for elements of one field."""
    dx, dy = x._den, y._den
    num = tuple(a * dy + sign * b * dx for a, b in zip(x._num, y._num))
    return _element(x._field, num, dx * dy)


# -- raw arithmetic on integer numerators ------------------------------------
# With f = lead*x^d + f_(d-1)*x^(d-1) + ... + f_0 (field._lead, field._low),
# lead*theta^d = -(f_0 + f_1 theta + ... + f_(d-1) theta^(d-1)).  _convolve
# and _adjugate_row pick the one product and one inverse formula by field.


def _convolve(field, p, q):
    """Numerators of lead^(d-1) * p * q: the convolution of p and q reduced
    modulo f."""
    lead, low = field._lead, field._low
    (p0, p1, p2), (q0, q1, q2) = p, q
    if len(low) == 3:
        f0, f1, f2 = low
        c4 = p2 * q2
        # theta^3 coefficient of lead * p * q once theta^4 is reduced
        c3 = lead * (p1 * q2 + p2 * q1) - c4 * f2
        return (
            lead * lead * p0 * q0 - c3 * f0,
            lead * (lead * (p0 * q1 + p1 * q0) - c4 * f0) - c3 * f1,
            lead * (lead * (p0 * q2 + p1 * q1 + p2 * q0) - c4 * f1) - c3 * f2,
        )
    f0, f1 = low
    c2 = p1 * q1
    return lead * p0 * q0 - c2 * f0, lead * (p0 * q1 + p1 * q0) - c2 * f1, 0


def _adjugate_row(field, n):
    """(J, N) with 1 / n = J / N for nonzero integer numerators n: column j
    of the integer multiplication matrix M holds the numerators of
    n * (lead * theta)^j, J_j = lead^j * adj(M)[j][0] and N = det(M)."""
    if not any(n):
        raise ZeroDivisionError("division by zero field element")
    lead, low = field._lead, field._low
    n0, n1, n2 = n
    if len(low) == 3:
        f0, f1, f2 = low
        m0, m1, m2 = -n2 * f0, lead * n0 - n2 * f1, lead * n1 - n2 * f2
        k0, k1, k2 = -m2 * f0, lead * m0 - m2 * f1, lead * m1 - m2 * f2
        c0, c1, c2 = m1 * k2 - k1 * m2, k1 * n2 - n1 * k2, n1 * m2 - m1 * n2
        return (c0, lead * c1, lead * lead * c2), n0 * c0 + m0 * c1 + k0 * c2
    f0, f1 = low
    m1 = lead * n0 - n1 * f1
    return (m1, -lead * n1, 0), n0 * m1 + n1 * n1 * f0


def _multiply(field, x, y):
    """x * y for normalised (num, den) pairs, normalised."""
    (p, dp), (q, dq) = x, y
    return _normalised(_convolve(field, p, q), dp * dq * field._lead_power)


def _inverse(field, x):
    """1 / x for a normalised (num, den) pair, normalised."""
    num, den = x
    row, det = _adjugate_row(field, num)
    return _normalised(tuple([den * j for j in row]), det)


def _polynomial_at(field, coeffs, x):
    """The integer polynomial coeffs (descending) at the normalised pair x,
    normalised, by Horner: one _multiply per step.  Adding c to num / den
    gives (num[0] + c*den, num[1], ...) / den, whose gcd with den is still
    1, so the sum needs no normalisation."""
    num, den = (0, 0, 0), 1
    for c in coeffs:
        if any(num):
            num, den = _multiply(field, (num, den), x)
        num = (num[0] + c * den,) + num[1:]
    return num, den


def _primitive(field, x, y, z):
    """The primitive triple of the projective point (x : y : z) of integer
    numerator vectors, z nonzero: (u, v, (w, 0, 0)) with x/z = u/w,
    y/z = v/w, w > 0 and gcd 1, so equal points give equal triples.
    With 1 / z = J / N and L = lead^(d-1), x/z = conv(x, J) / (N*L): one
    adjugate, two convolutions, one normalisation."""
    row, det = _adjugate_row(field, z)
    uv = _convolve(field, x, row) + _convolve(field, y, row)
    num, den = _normalised(uv, det * field._lead_power)
    return num[:3], num[3:], (den, 0, 0)


def _bounds(powers, num):
    """Integers (m, r) with |n(theta) * m_0 - m| <= r for numerators num,
    always three integers, from NumberField._power_bounds: the midpoint
    m = sum c_k m_k and the radius r = sum |c_k| r_k.  Callers: _enclosure,
    and expansion.bcf_expand after each refinement or reduction (between
    them it steps m, which is linear in num, with its vector)."""
    m0, m1, r1, m2, r2 = powers
    c0, c1, c2 = num
    return c0 * m0 + c1 * m1 + c2 * m2, abs(c1) * r1 + abs(c2) * r2


def _enclosure(field, x):
    """Integers (lo, hi, den), den > 0, with lo/den <= x <= hi/den."""
    num, den = x
    powers = field._power_bounds()
    m, r = _bounds(powers, num)
    return m - r, m + r, den * powers[0]


def _refine_more(field, least=0):
    """The one rule by which a floor left open asks for precision: the bits
    of the interval's shared denominator at least double, and reach `least`."""
    bits = field._q.bit_length()
    field.refine(max(bits, least - bits))


def _floor(field, x):
    """Exact floor of x, refining the field's interval until both bounds
    agree (a rational's bounds are its value)."""
    while True:
        lo, hi, den = _enclosure(field, x)
        flo = lo // den
        if flo == hi // den:
            return flo
        _refine_more(field)


def _operators(op):
    """The method and its reflected twin for op(x, y) on two elements of one
    field, fractions.Fraction's idiom.  The other operand goes through
    AlgebraicNumber._coerce: an int or Fraction is embedded, an element of
    another field raises FieldMismatch, and anything else gets
    NotImplemented."""

    def forward(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else op(self, other)

    def reverse(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else op(other, self)

    return forward, reverse


class AlgebraicNumber:
    """An element of a NumberField: integer numerators over one positive
    denominator, in the power basis of theta."""

    __slots__ = ("_field", "_num", "_den")

    def __init__(self, field, coeffs):
        if not isinstance(field, NumberField):
            raise TypeError(f"field must be a NumberField, got {field!r}")
        coeffs = [_as_rational(c, "coordinate") for c in coeffs]
        d = field.degree
        if len(coeffs) > d:
            raise ValueError(
                f"need at most {d} coordinates for a degree-{d} field, "
                f"got {len(coeffs)}"
            )
        coeffs += [Fraction(0)] * (3 - len(coeffs))
        # Over the lcm of reduced denominators the numerators share no
        # prime with it, so this form is already normalised.
        den = math.lcm(*(c.denominator for c in coeffs))
        self._field = field
        self._num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self._den = den

    @property
    def field(self):
        return self._field

    @property
    def _raw(self):
        return self._num, self._den

    @property
    def coeffs(self):
        """Coordinates in ascending powers of theta: c0 + c1*theta + ..."""
        d = self._field.degree
        return tuple(Fraction(n, self._den) for n in self._num[:d])

    # -- classification -------------------------------------------------

    def is_rational(self):
        return not any(self._num[1:])

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
                f"elements of {self._field!r} and {other._field!r} "
                "are not in the same field"
            )
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self._field.element(other)
        return NotImplemented

    # -- ring operations ------------------------------------------------

    __add__, __radd__ = _operators(lambda x, y: _sum(x, y, 1))
    __sub__, __rsub__ = _operators(lambda x, y: _sum(x, y, -1))
    __mul__, __rmul__ = _operators(
        lambda x, y: _normal(x._field, *_multiply(x._field, x._raw, y._raw))
    )
    __truediv__, __rtruediv__ = _operators(lambda x, y: x * y.inverse())

    def __neg__(self):
        return _element(self._field, tuple(-c for c in self._num), self._den)

    def inverse(self):
        """1 / self, from the closed-form adjugate (see _inverse)."""
        return _normal(self._field, *_inverse(self._field, self._raw))

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
        if self.is_rational():
            return Fraction(self._num[0], self._den)
        return None

    def value_interval(self):
        """Exact rational bounds on the value from the current theta interval."""
        lo, hi, den = _enclosure(self._field, self._raw)
        return Fraction(lo, den), Fraction(hi, den)

    def sign(self):
        """Exact sign, -1, 0 or 1, read off a nonzero element's floor."""
        if not any(self._num):
            return 0
        return 1 if _floor(self._field, self._raw) >= 0 else -1

    def floor(self):
        """Exact floor as a Python int."""
        return _floor(self._field, self._raw)

    def __floor__(self):
        return self.floor()

    def approximate(self, decimal_digits):
        """The module-level approximate(self, decimal_digits)."""
        return approximate(self, decimal_digits)

    def __float__(self):
        """The nearest float.  An irrational element lies in [n, n + 1) /
        2**k, n its floor at k = 64, 128, ... until n has 60 bits; then no
        float rounding boundary lies inside, so the midpoint rounds alike."""
        if self.is_rational():
            return float(self.as_fraction())
        num, den = self._raw
        k = 64
        while True:
            n = _floor(self._field, (tuple([c << k for c in num]), den))
            if abs(n).bit_length() >= 60:
                return (2 * n + 1) / (2 << k)
            k *= 2

    def __bool__(self):
        return any(self._num)

    # -- comparisons ------------------------------------------------------
    # x > y is the reflection of y < x, as x >= y is of y <= x.

    __lt__, __gt__ = _operators(lambda x, y: (x - y).sign() < 0)
    __le__, __ge__ = _operators(lambda x, y: (x - y).sign() <= 0)

    def __eq__(self, other):
        if isinstance(other, AlgebraicNumber):
            if self._field == other._field:
                return self._num == other._num and self._den == other._den
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
        return hash((self._field, self._num, self._den))

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
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


def _as_exact(value, what):
    """value as an exact number: a Fraction or field element as given, an
    int as a Fraction; anything else (bool, float, str, None) is a
    TypeError."""
    if isinstance(value, (Fraction, AlgebraicNumber)):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"{what} must be an int, Fraction or AlgebraicNumber, "
                    f"got {_shown(value, repr)}")


def _as_rational(value, what):
    """value as a Fraction by the rule of _as_exact; a field element is a
    TypeError too."""
    value = _as_exact(value, what)
    if not isinstance(value, Fraction):
        raise TypeError(f"{what} must be an int or Fraction, got {_shown(value, repr)}")
    return value


def _as_ints(values, what):
    """values as a tuple of ints; a bool, float, str, None or Fraction among
    them is a TypeError."""
    values = tuple(values)
    for value in values:
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(
                f"{what} coefficient must be an int, got {_shown(value, repr)}")
    return values


def floor_of(x):
    """Exact floor of an int, Fraction, or AlgebraicNumber."""
    return math.floor(_as_exact(x, "x"))


def approximate(x, decimal_digits):
    """x rounded half away from zero to d = decimal_digits places, with an
    error_bound <= 10**-d / 2; more places than Python prints raise
    OutputTooLarge before any work.  A rational is rounded exactly.  An
    irrational x is never on a tie: it rounds to n = floor(10**d * x + 1/2),
    and x's enclosure, the exact affine image of the one that decided n,
    bounds the error."""
    x = _as_exact(x, "x")
    _check_places(decimal_digits)
    unit = 10**decimal_digits
    if isinstance(x, AlgebraicNumber) and x.is_rational():
        x = x.as_fraction()
    if isinstance(x, Fraction):
        lo = hi = x.numerator
        den = x.denominator
        n, text = _rounded_decimal(lo, den, decimal_digits)
    else:
        field, (num, den) = x._field, x._raw
        scaled = tuple([2 * unit * c for c in num])
        n = _floor(field, ((scaled[0] + den,) + scaled[1:], 2 * den))
        lo, hi, den = _enclosure(field, x._raw)
        text = _rounded_decimal(n, unit, decimal_digits)[1]
    # |n/unit - e/den| over both ends e, with one Fraction
    error = max(abs(n * den - lo * unit), abs(n * den - hi * unit))
    return DecimalApproximation(text, Fraction(error, unit * den))
