"""The bifurcating expansion: paired digit sequences from a pair of numbers.

One step floors both coordinates and rotates: given (alpha_i, beta_i) with
beta_i non-integral,

    a_i = floor(alpha_i),  b_i = floor(beta_i),
    alpha_{i+1} = 1 / (beta_i - b_i),
    beta_{i+1}  = (alpha_i - a_i) / (beta_i - b_i).

The run ends when some beta_n is an integer; the exact alpha_n is kept as the
terminal value rather than floored.  Each engine is one loop.  ``bcf_expand``
validates its input once; a rational pair then runs on the integer kernel
below, and a pair of field elements on the field loop.  That loop holds the
pair as a projective triple (X : Y : Z) of integer power-basis vectors,
alpha = X/Z and beta = Y/Z, stepped by the linear map
(X, Y, Z) -> (Z, X - aZ, Y - bZ), with no inverse and no gcd; every
_RENORMALISE steps ``fields._primitive`` reduces the triple to its canonical
primitive form, which keeps heights down.  Both floors come from
midpoint-radius bounds on X, Y and Z, Z > 0, stepped with the state (a
midpoint is linear in its vector); bounds that straddle one integer k are
decided by whether Y - kZ or X - kZ, which the step needs anyway, is zero,
and positivity is read off both floors of step 0.  Read in cells of
2**-_CELL_BITS, the bounds also file each state by index under its cells;
equal states share a cell, and the exact cross-multiplication test compares
the current state with each earlier one in its cells, rebuilt from it.  A
field's first refinement reaches _START_BITS.  ``bcf_step`` steps
either kind of number through the public operators (``_next``) and reads
positivity off its floors too.  ``_kernels.rational_digits`` is the one
integer engine: it steps a rational point, or a box's corners in lockstep to
the first pair they disagree on (Gosper's rule).  ``_rational_run`` runs it
for ``bcf_expand`` on a rational pair or box, ``bcf_expand_rational`` and
``rational_expansion_trace``.
"""

import math
from collections import namedtuple
from fractions import Fraction
from itertools import cycle, islice

from ._kernels import convergent_matrix, mat_mul3, rational_digits
from .errors import EmptyInterval, NonPositiveInput
from .fields import AlgebraicNumber, _as_exact, _as_rational, _bounds, _check_count
from .fields import _convolve, _element, _primitive, _refine_more, floor_of
from .sequences import SequencePair

_RENORMALISE = 32  # steps of a field expansion between primitive reductions
_CELL_BITS = 16  # K: a state's cell is (floor(2**K alpha), floor(2**K beta))
_START_BITS = 128  # the precision a field run's first refinement reaches


class ExpansionState(namedtuple("ExpansionState", "alpha beta index")):
    """One point of the expansion orbit: the pair (alpha_i, beta_i) at step i,
    exact numbers (ints, Fractions or elements of one field)."""

    __slots__ = ()


class Terminated(namedtuple("Terminated", "terminal")):
    """End-of-expansion marker carrying the exact final alpha, a Fraction or
    a field element."""

    __slots__ = ()


def _unify_pair(alpha, beta):
    """Two Fractions, or two elements of one field, a rational embedded by
    AlgebraicNumber._coerce, which raises FieldMismatch for two fields."""
    alpha = _as_exact(alpha, "alpha")
    beta = _as_exact(beta, "beta")
    if isinstance(alpha, AlgebraicNumber):
        beta = alpha._coerce(beta)
    elif isinstance(beta, AlgebraicNumber):
        alpha = beta._coerce(alpha)
    return alpha, beta


def _box_ends(value, name):
    """The ends of one side of a box: (value,) or the interval (lo, hi)."""
    if not isinstance(value, tuple):
        return (value,)
    ends = tuple(_as_rational(end, name) for end in value)
    if len(ends) != 2 or not ends[0] < ends[1]:
        raise EmptyInterval(f"{name}: an interval is a pair (lo, hi) with lo < hi")
    return ends


def _same_point(field, s, t):
    """Whether triples s and t are one point: x_s z_t = x_t z_s, y_s z_t = y_t z_s."""
    (xs, ys, zs), (xt, yt, zt) = s, t
    return (_convolve(field, xs, zt) == _convolve(field, xt, zs)
            and _convolve(field, ys, zt) == _convolve(field, yt, zs))


def _next(alpha, beta, a, b):
    """The pair (1 / (beta - b), (alpha - a) / (beta - b)) after digits a, b,
    through the public operators: one inversion.  Raises ZeroDivisionError
    when beta == b."""
    inv = 1 / (beta - b)
    return inv, (alpha - a) * inv


def bcf_step(state):
    """Advance one step: returns (a_i, b_i, next state or Terminated).  At
    index 0 positivity is read off the floors: x > 0 iff floor(x) >= 0 and
    x != 0."""
    if not isinstance(state, ExpansionState):
        raise TypeError(f"state must be an ExpansionState, got {state!r}")
    alpha, beta = _unify_pair(state.alpha, state.beta)
    b_i, a_i = floor_of(beta), floor_of(alpha)
    if state.index == 0 and not (min(a_i, b_i) >= 0 and alpha != 0 != beta):
        raise NonPositiveInput("expansion requires alpha > 0 and beta > 0")
    if beta == b_i:
        return a_i, b_i, Terminated(alpha)
    return a_i, b_i, ExpansionState(*_next(alpha, beta, a_i, b_i), state.index + 1)


def bcf_expand(alpha, beta, max_terms=64):
    """Expand a positive pair into digit sequences, up to max_terms steps.

    Each of alpha and beta is an exact number or a closed interval (lo, hi)
    of rationals, lo < hi.  A box, a pair with an interval side, steps its
    corners on the integer kernel in lockstep and returns, open, the pairs
    they share before they differ or some corner's beta turns integral:
    fewer than max_terms pairs means the box split.  Every point of the box
    shares them: after a shared prefix, (alpha_i, beta_i, 1) is the image of
    (alpha, beta, 1) under one unimodular projective map whose denominator,
    positive at every corner (its w_i), is positive on the box, and the
    box's image is the convex hull of the corners' images.

    A rational point is a box of one corner, as in ``bcf_expand_rational``.
    A field pair is stepped as its projective triple, the bounds on
    its floors with it; step 0's floors decide positivity.  The start
    (p dq : q dp : dp dq), alpha = p/dp and beta = q/dq, needs no normal
    form: floors and the point test are blind to a positive factor, and
    ``_primitive`` reduces the triple every _RENORMALISE steps and at the
    terminal.  Each step i <= max_terms - 1 decides its floors and its cell
    (floor(2**K alpha_i), floor(2**K beta_i)), K = _CELL_BITS, up to one
    boundary per coordinate.  Equal states share a cell, and every earlier
    state filed under one of i's cells is tested exactly at i: a run left
    open, with neither period nor terminal, proves that no state recurs with
    j + m <= max_terms - 1 (state_j = state_(j+m), m >= 1).  Cells keep only
    indices: the current state carried back m steps through the digits is
    state j, and the exact test on the two confirms the period at i = j + m;
    periodicity records (preperiod, period), and the cycle gives the rest of
    the digits.  Rational inputs terminate, with the exact final alpha, a
    Fraction, in ``terminal``: their denominators fall, so no state recurs.
    """
    _check_count(max_terms, "max_terms")
    if isinstance(alpha, tuple) or isinstance(beta, tuple):
        alphas, betas = _box_ends(alpha, "alpha"), _box_ends(beta, "beta")
        return _rational_run(alphas, betas, max_terms)[0]
    alpha, beta = _unify_pair(alpha, beta)
    if not isinstance(alpha, AlgebraicNumber):
        return _rational_run((alpha,), (beta,), max_terms)[0]
    field = alpha.field
    (p, dp), (q, dq) = alpha._raw, beta._raw
    state = x, y, z = (tuple([c * dq for c in p]), tuple([c * dp for c in q]),
                       (dp * dq, 0, 0))
    a_digits, b_digits, cells, k = [], [], {}, _CELL_BITS
    powers = periodicity = terminal = None
    for i in range(max_terms):
        if i and i % _RENORMALISE == 0:
            state = x, y, z = _primitive(field, x, y, z)
            powers = None
        (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = state
        while True:
            if powers is None:
                powers = _, _, r1, _, r2 = field._power_bounds()
                (mx, rx), (my, ry), (mz, rz) = (_bounds(powers, v) for v in state)
            zlo, zhi = mz - rz, mz + rz
            if zlo > 0:  # 2**-k cells bound n/z; n == jz decides one straddled j
                blo = ((my - ry) << k) // (zhi if my >= ry else zlo)
                bhi = ((my + ry) << k) // (zlo if my >= -ry else zhi)
                b_i = bhi >> k
                s = (y0 - b_i * z0, y1 - b_i * z1, y2 - b_i * z2)
                if bhi - blo <= 1 and (blo >> k == b_i or not any(s)):
                    alo = ((mx - rx) << k) // (zhi if mx >= rx else zlo)
                    ahi = ((mx + rx) << k) // (zlo if mx >= -rx else zhi)
                    a_i = ahi >> k
                    t = (x0 - a_i * z0, x1 - a_i * z1, x2 - a_i * z2)
                    if ahi - alo <= 1 and (alo >> k == a_i or not any(t)):
                        break
            _refine_more(field, _START_BITS)
            powers = None
        # x > 0 iff floor(x) >= 0 and x != 0
        if not i and not (min(a_i, b_i) >= 0 and any(x) and any(y)):
            raise NonPositiveInput("expansion requires alpha > 0 and beta > 0")
        b_digits.append(b_i)
        if not any(s):
            u, _, (w, _, _) = _primitive(field, x, y, z)
            terminal = _element(field, u, w)
            break
        earlier = []  # the states filed under this one's cells, where it goes too
        for cell in ((alo, blo),) if alo == ahi and blo == bhi else {
                (alo, blo), (alo, bhi), (ahi, blo), (ahi, bhi)}:
            seen = cells.setdefault(cell, [])
            earlier += seen
            seen.append(i)
        for j in sorted(earlier):  # a state in two of them is tested twice
            m = i - j  # state j, from this one through the m digits between
            back = convergent_matrix(a_digits[j:i], b_digits[j:i], m - 1)
            if _same_point(field, mat_mul3(back, state), state):
                periodicity = (j, m)
                for digits in a_digits, b_digits:
                    digits[i:] = islice(cycle(digits[j:i]), max_terms - i)
                break
        if periodicity:
            break
        a_digits.append(a_i)
        state = x, y, z = z, t, s
        mx, rx, my, mz = mz, rz, mx - a_i * mz, my - b_i * mz
        ry, rz = abs(y[1]) * r1 + abs(y[2]) * r2, abs(z[1]) * r1 + abs(z[2]) * r2
    return SequencePair(a_digits, b_digits, terminal=terminal, periodicity=periodicity)


def _common_denominator_form(alpha, beta):
    alpha, beta = _as_rational(alpha, "alpha"), _as_rational(beta, "beta")
    if alpha <= 0 or beta <= 0:
        raise NonPositiveInput("expansion requires alpha > 0 and beta > 0")
    w = math.lcm(alpha.denominator, beta.denominator)
    return int(alpha * w), int(beta * w), w


def _rational_run(alphas, betas, max_terms):
    """Step the corners alphas x betas in lockstep: (SequencePair, trace of
    the first corner).  A lone point that stops before ``max_terms`` stopped
    at an integral beta, its last b digit, and terminates with u/w."""
    if max_terms is not None:
        _check_count(max_terms, "max_terms")
    corners = [_common_denominator_form(x, y) for x in alphas for y in betas]
    a, b, trace = rational_digits(corners, max_terms)
    if len(corners) > 1 or len(b) == max_terms:
        return SequencePair(a, b), trace
    u, v, w = trace[-1]
    b.append(v // w)
    return SequencePair(a, b, terminal=Fraction(u, w)), trace


def bcf_expand_rational(alpha, beta, max_terms=None):
    """Expand a positive rational pair with the integer triple recurrence;
    it always terminates.  ``bcf_expand`` runs the same kernel on a rational
    pair; with no ``max_terms`` this one runs to the terminal, and a run cut
    by the cap is open, with no terminal.
    """
    return _rational_run((alpha,), (beta,), max_terms)[0]


def rational_expansion_trace(alpha, beta):
    """All (u, v, w) triples visited by the rational fast path, in order."""
    return _rational_run((alpha,), (beta,), None)[1]

