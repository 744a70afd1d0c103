"""Known faults of the field loop, the box kernel and root refinement stay
caught.

Each row of MUTANTS names a function, one text in its module's source, the
text that replaces it, and the fault that the change models.  The mutated
module is built in memory (exec of the changed source, with package
"bcf"), and the mutated function's code is swapped into the installed
function, so every caller, bcf.bcf_expand among them, runs it.  The old
text must occur exactly once in its module: a refactor that moves it fails
here with the mutant's name, and the change updates that row.

One fixed oracle judges the unmutated code and every mutant:
- the digests of a small pinned corpus of field expansions, periodic,
  open and terminated, two of them also at 0 cell bits, where a state's
  cell is its digit pair and windows repeat by chance;
- the tight bound of an open run (bcf_expand) on 20 recovered pairs: a
  period (j, m) is found at max_terms = j + m + 1 and not at j + m;
- the box prefix: a box's digits are exactly those its corners share, and
  a box of refined field bounds gives a prefix of the exact expansion.
The unmutated code passes it and each mutant fails it, by a failed check
or by raising.  Every oracle call
is bounded by its max_terms, and every field is built afresh in each call,
because a mutant of refine leaves a field's interval off its root.
"""

import hashlib
import importlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from bcf import (
    NumberField,
    SequencePair,
    bcf_expand,
    bcf_expand_rational,
    expansion,
    recover_cubic_eventual,
    recover_cubic_pure,
    validate,
)
from bcf._kernels import convergent_matrix

# name: (module, function, old text, new text, the fault it models)
MUTANTS = {
    "latest candidate only": (
        "expansion", "bcf_expand",
        "for j in sorted(earlier):", "for j in sorted(earlier)[-1:]:",
        "a state is tested only against the latest earlier state in its "
        "cells, so a period whose digit window repeats in between is missed"),
    "one step short": (
        "expansion", "bcf_expand",
        "for i in range(max_terms):", "for i in range(max_terms - 1):",
        "the loop stops a step early: an open run proves less than its bound"),
    "one step long": (
        "expansion", "bcf_expand",
        "for i in range(max_terms):", "for i in range(max_terms + 1):",
        "the loop runs a step past max_terms and reports a period beyond it"),
    "cell trusted": (
        "expansion", "bcf_expand",
        "if _same_point(field, mat_mul3(back, state), state):", "if True:",
        "a shared cell is taken for a recurrence with no exact test"),
    "same point compares x only": (
        "expansion", "_same_point",
        "\n            and _convolve(field, ys, zt) == _convolve(field, yt, zs))",
        ")",
        "a state whose alpha recurs is taken for a recurrence of the pair"),
    "rational digits accepts t = z": (
        "_kernels", "rational_digits",
        "0 <= t < z and", "0 <= t <= z and",
        "a box corner whose alpha sits on the next integer keeps the first "
        "corner's a digit"),
    "refine keeps the wrong half": (
        "fields", "NumberField.refine",
        "if polys._sign_at(f, mid, 2 * q) == sign_lo:",
        "if polys._sign_at(f, mid, 2 * q) != sign_lo:",
        "a bisection keeps the half without the root"),
}


def _attribute(root, dotted):
    for name in dotted.split("."):
        root = root[name] if isinstance(root, dict) else getattr(root, name)
    return root


def _mutant(module_name, function, old, new):
    """(installed function, mutated code) for one row of MUTANTS."""
    module = importlib.import_module(f"bcf.{module_name}")
    source = Path(module.__file__).read_text(encoding="utf-8")
    assert source.count(old) == 1, f"{old!r} is not once in bcf.{module_name}"
    namespace = {"__name__": module.__name__, "__package__": "bcf"}
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return _attribute(module, function), _attribute(namespace, function).__code__


# -- the oracle -------------------------------------------------------------------


def _digest(pair):
    text = f"{pair.a};{pair.b};{pair.periodicity};{pair.terminal!r}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _alpha_recurs(a, b, delta):
    """A pair near the purely periodic pair of digits (a, b), whose alpha
    recurs after one period while its beta does not: start from
    alpha* + delta and the beta that the period's map K carries to a state
    with that alpha, (x : y : 1) ~ K (x : y' : 1)."""
    fixed = recover_cubic_pure((a, b))
    (k11, k12, k13), (k21, k22, k23), (k31, k32, k33) = convergent_matrix(
        a, b, len(a) - 1)
    x = fixed.alpha + delta
    y = (k11 * x + k13 - x * (k31 * x + k33)) / (x * k32 - k12)
    return x, (k21 * x + k22 * y + k23) / (k31 * x + k32 * y + k33)


def _corpus():
    """(name, alpha, beta, max_terms, cell bits) of the pinned expansions,
    on fields built afresh."""
    tribonacci = NumberField((1, -1, -1, -1), (1, 2)).generator()
    deep = NumberField((1, -2, -2, -2), (-3, 3)).generator()
    window = NumberField((1, 0, 2, -1), (-3, 3)).generator()
    r = NumberField((1, -1, -2, -1), (2, 3)).generator()
    eighteen = recover_cubic_pure(((2,) * 8 + (3,) + (2,) * 8 + (4,),
                                   (1,) * 8 + (0,) + (1,) * 8 + (0,)))
    alpha_1 = 2 + tribonacci / 3
    yield "tribonacci", tribonacci, tribonacci * tribonacci, 64, 16
    yield "deep", deep, deep * deep + deep, 256, 16
    yield "window", window, window * window + window, 200, 16
    yield "window at 0 cell bits", window, window * window + window, 200, 0
    yield "preperiod one", r, 2 + 1 / r, 40, 16
    yield "period eighteen", eighteen.alpha, eighteen.beta, 40, 16
    yield "period eighteen at 0 cell bits", eighteen.alpha, eighteen.beta, 40, 0
    yield "terminated", 1 + Fraction(4, 3) / alpha_1, 1 / alpha_1, 12, 16
    yield ("alpha recurs", *_alpha_recurs((3,), (1,), Fraction(1, 10**30)),
           4, 16)


PINNED = {
    "tribonacci": "9f12f4e9cf8f4d18",
    "deep": "472737596b30189f",
    "window": "4d1a8a5efe0050ce",
    "window at 0 cell bits": "4d1a8a5efe0050ce",
    "preperiod one": "81a1486e5aaa8c26",
    "period eighteen": "d8abbf8b9a10275b",
    "period eighteen at 0 cell bits": "d8abbf8b9a10275b",
    "terminated": "863018bfd80e44de",
    "alpha recurs": "f40fa671118902f4",
}


def _periodic_digits(rng):
    """(preperiod, period) digit pairs, admissible as an eventually periodic
    pair: preperiod 0-3, period 1-6, digits at most 9."""
    while True:
        k, m = rng.randint(0, 3), rng.randint(1, 6)
        a = tuple(rng.randint(1, 9) for _ in range(k + m))
        b = tuple(rng.randint(0, ai) for ai in a)
        if validate(SequencePair(a, b, periodicity=(k, m))).valid:
            return (a[:k], b[:k]), (a[k:], b[k:])


def _drawn(draw, count, seed):
    rng = random.Random(seed)
    return [draw(rng) for _ in range(count)]


RECOVERED = _drawn(_periodic_digits, 20, seed=33)


def _box_sides(rng):
    """Two box sides, one of them an interval: ends that split early, or
    agree for many steps."""
    den = rng.choice((10**3, 10**40))
    width = rng.choice((10**3, 10**60))
    sides = []
    for _ in range(2):
        lo = Fraction(rng.randint(den, 4 * den), rng.randint(1, den))
        sides.append(lo if rng.random() < 0.2 else (lo, lo + Fraction(1, width)))
    if not any(isinstance(side, tuple) for side in sides):
        sides[0] = (sides[0], sides[0] + Fraction(1, width))
    return sides


BOXES = _drawn(_box_sides, 30, seed=32) + [
    # the corner alpha = 2 floors to 2, the corner alpha = 3/2 to 1
    [(Fraction(3, 2), Fraction(2)), Fraction(7, 5)],
    [(Fraction(5, 3), Fraction(3)), (Fraction(1, 2), Fraction(5, 4))],
]


def _shared_prefix(sides, max_terms):
    """The (a_i, b_i) pairs that every corner's own expansion shares."""
    alphas, betas = ((x if isinstance(x, tuple) else (x,)) for x in sides)
    runs = []
    for alpha in alphas:
        for beta in betas:
            exact = bcf_expand_rational(alpha, beta, max_terms=max_terms)
            runs.append(list(zip(exact.a, exact.b)))
    n = 0
    while all(n < len(run) for run in runs) and len({run[n] for run in runs}) == 1:
        n += 1
    return runs[0][:n]


def _cell_bits(k, alpha, beta, max_terms):
    saved, expansion._CELL_BITS = expansion._CELL_BITS, k
    try:
        return bcf_expand(alpha, beta, max_terms=max_terms)
    finally:
        expansion._CELL_BITS = saved


def _digest_failures():
    for name, alpha, beta, max_terms, k in _corpus():
        digest = _digest(_cell_bits(k, alpha, beta, max_terms))
        if digest != PINNED[name]:
            yield f"digest of {name}: {digest}"


def _bound_failures():
    for preperiod, period in RECOVERED:
        result = recover_cubic_eventual(preperiod, period)
        k, m = len(preperiod[0]), len(period[0])
        found = bcf_expand(result.alpha, result.beta, max_terms=k + m + 1)
        if found.periodicity is None or sum(found.periodicity) > k + m:
            yield f"no period within {k + m + 1} terms of {preperiod, period}"
            continue
        j, p = found.periodicity
        for max_terms, expected in ((j + p + 1, (j, p)), (j + p, None)):
            run = bcf_expand(result.alpha, result.beta, max_terms=max_terms)
            if (run.periodicity, run.terminated) != (expected, False):
                yield f"{preperiod, period} at {max_terms} terms: {run}"


def _box_failures():
    for sides in BOXES:
        for max_terms in (8, 10**6):
            box = bcf_expand(*sides, max_terms=max_terms)
            if list(zip(box.a, box.b)) != _shared_prefix(sides, max_terms):
                yield f"box {sides} at {max_terms} terms: {box}"
    refined = NumberField((1, -2, -2, -2), (2, 3))
    for _ in range(80):
        refined.refine()
    t = refined.generator()
    box = bcf_expand(t.value_interval(), (t * t + t).value_interval())
    if len(box.a) < 10:
        yield f"box of refined field bounds: {box}"
        return
    t = NumberField((1, -2, -2, -2), (2, 3)).generator()
    exact = bcf_expand(t, t * t + t, max_terms=len(box.a))
    if (box.a, box.b) != (exact.a, exact.b):
        yield f"box of refined field bounds: {box}, exact: {exact}"


ORACLE = (_digest_failures, _bound_failures, _box_failures)


def _failures():
    """The oracle, lazily: one message per failed check, in order."""
    for part in ORACLE:
        yield from part()


def test_unmutated_code_passes_the_oracle():
    assert list(_failures()) == []


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_fails_the_oracle(monkeypatch, name):
    module, function, old, new, _ = MUTANTS[name]
    installed, code = _mutant(module, function, old, new)
    monkeypatch.setattr(installed, "__code__", code)
    try:
        failure = next(_failures(), None)
    except Exception as error:  # a mutant that raises fails the oracle too
        failure = repr(error)
    assert failure is not None, f"{name} survives"
