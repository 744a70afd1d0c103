"""Integer kernels: the convergent-matrix product tree, mat_mul3, streaming."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcf import SequencePair, convergent
from bcf import _kernels

from _corpus import random_valid_digits

BLOCK = _kernels._BLOCK
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# Every length next to a leaf boundary up to four leaves.
BOUNDARY_LENGTHS = sorted(
    {k * BLOCK + d for k in range(1, 5) for d in (-1, 0, 1)}
)


def _per_digit_product(a, b, n):
    """The digit-matrix product, one digit at a time, as rows."""
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for i in range(n + 1):
        for r in rows:
            r[0], r[1], r[2] = a[i] * r[0] + b[i] * r[1] + r[2], r[0], r[1]
    return tuple(tuple(r) for r in rows)


@st.composite
def digit_runs(draw, length):
    """(a, b, n): digits for indices 0..n = length - 1, admissible,
    arbitrary nonnegative, or at most 9 but for one 10**40 in a leaf (which
    widens that leaf's packed slots), with a few unused digits past n."""
    rng = draw(st.randoms(use_true_random=False))
    extra = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["admissible", "arbitrary", "one huge"]))
    if kind == "admissible":
        a, b = random_valid_digits(rng, length + extra)
    else:
        top = 10 ** draw(st.integers(0, 30)) if kind == "arbitrary" else 9
        a = [rng.randint(0, top) for _ in range(length + extra)]
        b = [rng.randint(0, top) for _ in range(length + extra)]
        if kind == "one huge" and length:
            digits = draw(st.sampled_from([a, b]))
            digits[draw(st.integers(0, length - 1))] = 10**40
    return a, b, length - 1


def _check_tree(a, b, n):
    rows = _kernels.convergent_matrix(a, b, n)
    assert rows == _per_digit_product(a, b, n)
    assert _kernels.det3(rows) == 1
    # Columns j = 0, 1, 2 hold the triples at n, n-1, n-2; the notional
    # triples at -1, -2, -3 are the seeds (1,0,0), (0,1,0), (0,0,1).
    triples = [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    triples += _kernels.convergent_triples(a, b, n)
    for j in range(3):
        assert tuple(row[j] for row in rows) == triples[n + 3 - j]


@given(st.integers(0, 5 * BLOCK + 7).flatmap(digit_runs))
@settings(max_examples=120, deadline=None)
def test_tree_equals_per_digit_product(run):
    _check_tree(*run)


@pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_tree_at_leaf_boundaries(length, data):
    _check_tree(*data.draw(digit_runs(length)))


def test_empty_product_is_the_identity():
    assert _kernels.convergent_matrix((), (), -1) == IDENTITY


signed = st.integers(-(2**80), 2**80)
matrices = st.tuples(*[st.tuples(signed, signed, signed)] * 3)


@given(matrices, matrices)
@settings(max_examples=200, deadline=None)
def test_mat_mul3_is_the_sum_of_products(x, y):
    want = tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )
    assert _kernels.mat_mul3(x, y) == want


def test_forward_convergent_streams_its_triples():
    rng = random.Random(20)
    pair = SequencePair(*random_valid_digits(rng, 20_001))
    tracemalloc.start()
    try:
        convergent(pair, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
