"""Coxeter datum: order table validation, pairs, alternating words."""

import math

import pytest

from heckext.coxeter import (
    INFINITE,
    INFINITE_SENTINEL,
    AffineCoxeterDatum,
    CoxeterError,
    alternating_word,
    from_int_matrix,
    to_int_matrix,
)


def rank_one_pair():
    return AffineCoxeterDatum(("s0", "s1"), ((1, INFINITE), (INFINITE, 1)))


def four_cycle():
    # affine A3: cycle of four reflections, adjacent order 3, opposite order 2
    labels = ("s1", "s2", "s3", "s4")
    orders = tuple(
        tuple(
            1 if i == j else 3 if (j - i) % 4 in (1, 3) else 2
            for j in range(4)
        )
        for i in range(4)
    )
    return AffineCoxeterDatum(labels, orders)


def test_infinite_order_pair():
    assert rank_one_pair().order("s0", "s1") == INFINITE


def test_diagonal_is_one():
    datum = four_cycle()
    for s in datum.labels:
        assert datum.order(s, s) == 1


def test_opposite_nodes_commute():
    assert four_cycle().order("s1", "s3") == 2
    assert four_cycle().order("s2", "s4") == 2


def test_unknown_reflection():
    with pytest.raises(CoxeterError):
        rank_one_pair().order("s0", "bogus")


def test_alternating_words():
    assert alternating_word("s0", "s1", 3) == ["s0", "s1", "s0"]
    assert alternating_word("s1", "s0", 2) == ["s1", "s0"]
    assert alternating_word("s0", "s1", 1) == ["s0"]


def test_alternating_word_rejects_degenerate_input():
    with pytest.raises(CoxeterError):
        alternating_word("s0", "s0", 2)
    with pytest.raises(CoxeterError):
        alternating_word("s0", "s1", 0)


def test_finite_pairs_skips_infinite_orders():
    assert rank_one_pair().finite_pairs() == []
    pairs = four_cycle().finite_pairs()
    assert ("s1", "s3", 2) in pairs
    assert len(pairs) == 6  # all unordered pairs of a 4-cycle are finite


def test_crystallographic_orders_are_accepted():
    for m in (2, 3, 4, 6, INFINITE):
        datum = AffineCoxeterDatum(("a", "b"), ((1, m), (m, 1)))
        assert datum.order("a", "b") == m


def test_int_matrix_round_trip():
    datum = rank_one_pair()
    matrix = to_int_matrix(datum)
    assert matrix == [[1, INFINITE_SENTINEL], [INFINITE_SENTINEL, 1]]
    again = from_int_matrix(datum.labels, matrix)
    assert again == datum


def test_validation_rejects_bad_tables():
    with pytest.raises(CoxeterError):
        AffineCoxeterDatum((), ())
    with pytest.raises(CoxeterError):
        AffineCoxeterDatum(("a", "a"), ((1, 2), (2, 1)))
    with pytest.raises(CoxeterError):
        AffineCoxeterDatum(("a", "b"), ((1, 2), (3, 1)))  # not symmetric
    with pytest.raises(CoxeterError):
        AffineCoxeterDatum(("a", "b"), ((2, 3), (3, 1)))  # bad diagonal
    with pytest.raises(CoxeterError):
        AffineCoxeterDatum(("a", "b"), ((1, 1), (1, 1)))  # off-diagonal < 2
    for m in (5, 7, 8):  # finite but not crystallographic
        with pytest.raises(CoxeterError):
            AffineCoxeterDatum(("a", "b"), ((1, m), (m, 1)))


def test_infinite_constant_is_float_infinity():
    assert INFINITE == math.inf
