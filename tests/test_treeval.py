"""Tree evaluation: convergents, three computation paths, diagnostics, render."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcf import (
    NumberField,
    SequencePair,
    convergent,
    convergent_backward,
    convergent_matrix,
    convergent_sequence,
    det_invariant,
    gap_diagnostics,
    node_counts,
    render_tree,
    tree_sum,
)
from bcf import _kernels
from bcf.errors import IndexOutOfRange, InvalidSequence

from _corpus import random_valid_digits, random_valid_pair

GOLDEN = Path(__file__).parent / "golden"

ALL_ONES_TRIPLES = [
    (1, 1, 1),
    (2, 2, 1),
    (4, 3, 2),
    (7, 6, 4),
    (13, 11, 7),
    (24, 20, 13),
    (44, 37, 24),
    (81, 68, 44),
    (149, 125, 81),
]


# -- forward recurrence ----------------------------------------------------------


def test_all_ones_triples():
    pair = ((1,) * 9, (1,) * 9)
    triples = convergent_sequence(pair, 8)
    assert [(t.A, t.B, t.C) for t in triples] == ALL_ONES_TRIPLES


def test_convergent_values():
    triple = convergent(((1, 1, 1), (1, 1, 1)), 2)
    assert (triple.A, triple.B, triple.C) == (4, 3, 2)
    assert triple.alpha == 2
    assert triple.beta == Fraction(3, 2)
    assert triple.n == 2


def test_convergent_accepts_sequence_pair():
    pair = SequencePair((1, 1), (1, 1), periodicity=(0, 1))
    triple = convergent(pair, 5)  # extends through the period
    assert (triple.A, triple.B, triple.C) == ALL_ONES_TRIPLES[5]


def test_convergent_index_errors():
    with pytest.raises(IndexOutOfRange):
        convergent(((1, 1), (1, 1)), 2)
    with pytest.raises(IndexOutOfRange):
        convergent(((1, 1), (1, 1)), -1)


# -- tree_sum ---------------------------------------------------------------------


def test_tree_sum_all_ones():
    assert tree_sum((1, 1, 1), (1, 1, 1)) == (2, Fraction(3, 2))


def test_tree_sum_with_exact_terminals():
    # terminal entries may be any positive exact numbers
    alpha, beta = tree_sum((1, Fraction(5, 2)), (1, Fraction(3, 2)))
    assert alpha == 1 + Fraction(3, 2) / Fraction(5, 2)
    assert beta == 1 + Fraction(2, 5)


def test_tree_sum_rejects_bad_shapes():
    with pytest.raises(ValueError):
        tree_sum((), ())
    with pytest.raises(ValueError):
        tree_sum((1, 2), (1,))
    with pytest.raises(ValueError):
        tree_sum((1, -1, 2), (1, 0, 1))  # negative non-last entry
    with pytest.raises(ValueError):
        tree_sum((1, 2), (1, 0))  # last b entry must be positive


@pytest.mark.parametrize("a, b", [
    ((1, -1, 2), (1, 0, 1)),
    ((1, 2), (True, 1)),
    ((1.0, 2), (1, 1)),
])
def test_tree_sum_digit_rule_is_the_sequence_rule(a, b):
    # tree_sum and SequencePair reject a bad digit alike, with one message.
    with pytest.raises(InvalidSequence) as from_tree:
        tree_sum(a, b)
    with pytest.raises(InvalidSequence) as from_pair:
        SequencePair(a[:-1], b[:-1])
    assert str(from_tree.value) == str(from_pair.value)
    assert isinstance(from_tree.value, ValueError)


def test_tree_sum_matches_convergent():
    rng = random.Random(77)
    for _ in range(50):
        a, b = random_valid_digits(rng, rng.randint(1, 12))
        n = len(a) - 1
        triple = convergent((a, b), n)
        # append unit terminals: value of the finite tree with x=1 tails
        alpha, beta = tree_sum(a + (1,), b + (1,))
        extended = convergent((a + (1,), b + (1,)), n + 1)
        assert alpha == extended.alpha and beta == extended.beta


# -- three-path agreement ----------------------------------------------------------


def test_backward_matches_forward():
    rng = random.Random(88)
    for _ in range(60):
        a, b = random_valid_digits(rng, rng.randint(1, 20))
        n = len(a) - 1
        triple = convergent((a, b), n)
        A, B, _ = convergent_backward((a, b), 0, n)
        assert (A, B) == (triple.A, triple.B)


def test_backward_single_index():
    A, B, A_next = convergent_backward(((3, 2), (1, 0)), 1, 1)
    assert (A, B, A_next) == (2, 0, 1)


def test_backward_index_errors():
    with pytest.raises(IndexOutOfRange):
        convergent_backward(((1, 1), (1, 1)), 2, 1)
    with pytest.raises(IndexOutOfRange):
        convergent_backward(((1, 1), (1, 1)), 0, 5)


def test_matrix_path_and_determinant():
    pair = ((1, 1, 1), (1, 1, 1))
    triple = convergent_matrix(pair, 2)
    assert (triple.n, triple.A, triple.B, triple.C) == (2, 4, 3, 2)
    assert det_invariant(pair, 2) == 1


def test_matrix_transpose_is_digit_product():
    # K^T equals R_n ... R_0 for the digit matrices R_i = [[a,b,1],[1,0,0],[0,1,0]]
    a, b = (2, 1, 3), (1, 0, 2)
    K = _kernels.convergent_matrix(a, b, 2)
    R = lambda i: ((a[i], b[i], 1), (1, 0, 0), (0, 1, 0))

    def mul(x, y):
        return tuple(
            tuple(sum(x[r][k] * y[k][c] for k in range(3)) for c in range(3))
            for r in range(3)
        )

    product = mul(R(2), mul(R(1), R(0)))
    transposed = tuple(
        tuple(K[r][c] for r in range(3)) for c in range(3)
    )
    assert product == transposed


def test_adjugate_times_matrix_is_det_identity():
    rng = random.Random(55)
    for _ in range(100):
        m = tuple(
            tuple(rng.randint(-50, 50) for _ in range(3)) for _ in range(3)
        )
        d = _kernels.det3(m)
        identity = tuple(
            tuple(d if r == c else 0 for c in range(3)) for r in range(3)
        )
        assert _kernels.mat_mul3(_kernels._adjugate(m), m) == identity


def test_det_invariant_needs_three_triples():
    with pytest.raises(IndexOutOfRange):
        det_invariant(((1, 1), (1, 1)), 1)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_three_paths_agree_random(data):
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    a, b = random_valid_digits(rng, rng.randint(3, 18))
    n = len(a) - 1
    triple = convergent((a, b), n)
    A_back, B_back, A_tail = convergent_backward((a, b), 0, n)
    via_matrix = convergent_matrix((a, b), n)
    assert A_back == triple.A and B_back == triple.B
    assert A_tail == triple.C  # the C column is the backward tail entry
    assert (via_matrix.A, via_matrix.B, via_matrix.C) == (
        triple.A, triple.B, triple.C,
    )
    assert det_invariant((a, b), n) == 1


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_paths_agree_within_and_beyond_stored_periodic_digits(data):
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    a, b = random_valid_digits(rng, rng.randint(1, 8))
    k = rng.randint(0, len(a) - 1)
    m = rng.randint(1, len(a) - k)
    pair = SequencePair(a, b, periodicity=(k, m))
    extended_a = [pair.digit_a(i) for i in range(3 * len(a) + 2)]
    extended_b = [pair.digit_b(i) for i in range(3 * len(a) + 2)]
    for n in range(len(extended_a)):
        # an open pair of the explicitly extended digits: the reference
        reference = convergent((extended_a[:n + 1], extended_b[:n + 1]), n)
        triple = convergent(pair, n)
        via_matrix = convergent_matrix(pair, n)
        A_back, B_back, A_tail = convergent_backward(pair, 0, n)
        assert triple == reference
        assert (via_matrix.A, via_matrix.B, via_matrix.C) == (
            triple.A, triple.B, triple.C,
        )
        assert (A_back, B_back, A_tail) == (triple.A, triple.B, triple.C)


def test_terminated_pair_has_no_convergent_past_its_a_digits():
    pair = SequencePair((1, 2), (1, 1, 0), terminal=2)
    assert convergent(pair, 1) == convergent(((1, 2), (1, 1)), 1)
    with pytest.raises(IndexOutOfRange):
        convergent(pair, 2)


# -- diagnostics --------------------------------------------------------------------


def test_gap_diagnostics_tribonacci():
    pair = ((1,) * 21, (1,) * 21)
    diag = gap_diagnostics(pair, 20)
    assert diag.certificate
    assert len(diag.delta) == 20
    for n in range(5, 21):
        assert diag.dmax_at(n) <= diag.dmax_at(n - 1)
    for n in range(4, 17):
        assert diag.dmax_at(n + 4) < Fraction(35, 36) * diag.dmax_at(n)
    # the n-th gap |alpha^(n) - alpha^(n-1)| is 1-indexed
    assert diag.delta_at(1) == abs(Fraction(2, 1) - Fraction(1, 1))


def test_gap_diagnostics_matches_convergent_differences():
    rng = random.Random(66)
    for _ in range(30):
        a, b = random_valid_digits(rng, rng.randint(9, 25))
        N = len(a) - 1
        diag = gap_diagnostics((a, b), N)
        for n in range(1, N + 1):
            expected = abs(
                convergent((a, b), n).alpha - convergent((a, b), n - 1).alpha
            )
            assert diag.delta_at(n) == expected


def test_gap_diagnostics_requires_depth():
    with pytest.raises(ValueError):
        gap_diagnostics(((1,) * 8, (1,) * 8), 7)


def test_gap_diagnostics_rejects_zero_a_digit():
    a = (1, 1, 0, 1, 1, 1, 1, 1, 1)
    b = (0, 0, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(InvalidSequence):
        gap_diagnostics((a, b), 8)


def test_diagnostics_index_errors():
    diag = gap_diagnostics(((1,) * 9, (1,) * 9), 8)
    with pytest.raises(IndexOutOfRange):
        diag.delta_at(0)
    with pytest.raises(IndexOutOfRange):
        diag.dmax_at(3)
    with pytest.raises(IndexOutOfRange):
        diag.dmax_at(9)


# -- node counts ---------------------------------------------------------------------


def test_node_counts_fibonacci_pattern():
    alpha_counts, beta_counts = node_counts(6)
    assert alpha_counts == (1, 1, 2, 3, 5, 8, 13)
    assert beta_counts == (1, 0, 1, 1, 2, 3, 5)


def test_node_counts_depth_zero():
    alpha_counts, beta_counts = node_counts(0)
    assert alpha_counts == (1,)
    assert beta_counts == (1,)


# -- rendering -----------------------------------------------------------------------


def _golden(name):
    return (GOLDEN / name).read_text()


def test_render_ascii_golden():
    pair = SequencePair((2, 2, 3), (2, 0, 0))
    assert render_tree(pair, 2, format="ascii") + "\n" == _golden(
        "render_period_two_depth2_ascii.txt"
    )


def test_render_latex_golden():
    pair = SequencePair((2, 2, 3), (2, 0, 0))
    assert render_tree(pair, 2, format="latex") + "\n" == _golden(
        "render_period_two_depth2_latex.txt"
    )


def test_render_ones_golden():
    pair = SequencePair((1, 1, 1, 1), (1, 1, 1, 1))
    assert render_tree(pair, 3, format="ascii") + "\n" == _golden(
        "render_ones_depth3_ascii.txt"
    )


def test_render_depth_zero_golden():
    pair = SequencePair((2, 2, 3), (2, 0, 0))
    assert render_tree(pair, 0, format="ascii") + "\n" == _golden(
        "render_period_two_depth0_ascii.txt"
    )


def test_render_periodic_extension():
    pair = SequencePair((1, 1), (1, 1), periodicity=(0, 1))
    deep = render_tree(pair, 5, format="latex")
    assert deep.count("\\cfrac") > 4


def test_render_errors():
    pair = SequencePair((1, 1), (1, 1))
    with pytest.raises(IndexOutOfRange):
        render_tree(pair, 3, format="ascii")  # beyond stored digits
    with pytest.raises(IndexOutOfRange):
        render_tree(pair, -1)
    with pytest.raises(ValueError):
        render_tree(pair, 1, format="html")
