"""Closed-form engine: matching sets, case indicators, dimensions."""

from heckext.formula import (
    FREE,
    TIED_I1,
    TIED_I2,
    ZERO_HYP3,
    ZERO_HYP4,
    ZERO_QUAD_BOTH,
    ext_dimension,
)
from heckext.hecke import hecke_character
from heckext.presets import sl2, sl_n, u11, u21
from heckext.torus import character, twist


def make(preset, phases, marked):
    chi = character(preset.torus, phases)
    return hecke_character(preset.torus, preset.coxeter, chi, marked)


def result(preset, xi1, xi2):
    return ext_dimension(preset.torus, preset.coxeter, xi1, xi2)


def test_i_lambda_pair_sl2():
    preset = sl2(5)
    xi1 = make(preset, ["1/4"], ())
    xi2 = make(preset, ["2/4"], ())
    xi3 = make(preset, ["3/4"], ())
    assert result(preset, xi1, xi3).i_lambda_pair == {"s0", "s1"}
    assert result(preset, xi1, xi2).i_lambda_pair == frozenset()
    trivial = make(preset, [0], ())
    assert result(preset, trivial, trivial).i_lambda_pair == {"s0", "s1"}


def test_bridge_case_classification():
    preset = sl2(5)
    xi1 = make(preset, [0], {"s0"})
    xi2 = make(preset, [0], {"s1"})
    assert result(preset, xi1, xi2).per_reflection == {
        "s0": TIED_I1,
        "s1": TIED_I2,
    }
    assert result(preset, xi1, xi1).per_reflection["s0"] == ZERO_QUAD_BOTH


def test_hyp345_kills():
    # all-order-3 triangle: no reflection lies outside I1 ∪ I2, vacuous
    tri = sl_n(3, 2)
    xi1 = make(tri, [0, 0], {"s1"})
    xi2 = make(tri, [0, 0], {"s2", "s3"})
    assert result(tri, xi1, xi2).free == frozenset()

    # 4-cycle: an unmarked constant commuting with a one-sided mark dies
    sq = sl_n(4, 3)
    xi1 = make(sq, [0, 0, "1/2"], {"s1"})
    xi2 = make(sq, ["1/2", "1/2", "1/2"], ())
    assert result(sq, xi1, xi2).per_reflection["s3"] == ZERO_HYP3
    xi1 = make(sq, [0, 0, "1/2"], ())
    xi2 = make(sq, [0, "1/2", 0], {"s4"})
    assert result(sq, xi1, xi2).per_reflection["s2"] == ZERO_HYP4

    # infinite order: no finite-order kill condition can fire
    pair = sl2(5)
    xi1 = make(pair, ["1/4"], ())
    xi2 = make(pair, ["3/4"], ())
    assert set(result(pair, xi1, xi2).per_reflection.values()) == {FREE}


def test_i_lambda_i2_examples():
    preset = sl2(5)
    xi1 = make(preset, ["1/4"], set())
    xi2 = make(preset, ["3/4"], set())
    assert result(preset, xi1, xi2).free == {"s0", "s1"}

    xi1 = make(preset, [0], {"s0"})
    xi2 = make(preset, [0], {"s1"})
    assert result(preset, xi1, xi2).free == frozenset()

    u = u21(2)
    xi1 = make(u, ["1/3", 0], {"s2"})
    xi2 = make(u, ["1/3", 0], set())
    assert result(u, xi1, xi2).free == {"s1"}


def live(preset, xi1, xi2):
    return result(preset, xi1, xi2).live


def test_deltas_examples():
    preset = sl2(5)
    xi_s0 = make(preset, [0], {"s0"})
    xi_s1 = make(preset, [0], {"s1"})
    assert live(preset, xi_s0, xi_s1) == 2
    assert live(preset, xi_s0, xi_s0) == 0

    u = u21(2)
    xi_empty = make(u, ["1/3", 0], set())
    xi_s2 = make(u, ["1/3", 0], {"s2"})
    assert live(u, xi_empty, xi_s2) == 1


def test_hyp2_applies():
    # opposite nodes commute: the order-2 cross pair joins s1 and s3
    sq = sl_n(4, 2)
    xi1 = make(sq, [0, 0, 0], {"s1"})
    xi2 = make(sq, [0, 0, 0], {"s3"})
    assert live(sq, xi1, xi2) == 1

    # order-3 cross pairs relate nothing: {s1} and {s2, s3} stay apart
    tri = sl_n(3, 2)
    xi1 = make(tri, [0, 0], {"s1"})
    xi2 = make(tri, [0, 0], {"s2", "s3"})
    assert live(tri, xi1, xi2) == 2

    pair = sl2(5)
    xi1 = make(pair, [0], {"s0"})
    xi2 = make(pair, [0], {"s1"})
    assert live(pair, xi1, xi2) == 2


def dim(preset, xi1, xi2):
    return result(preset, xi1, xi2).dimension


def test_dimension_sl2_regular_pair():
    preset = sl2(5)
    assert dim(preset, make(preset, ["1/4"], ()), make(preset, ["3/4"], ())) == 2
    assert dim(preset, make(preset, ["1/4"], ()), make(preset, ["1/4"], ())) == 0


def test_dimension_sl2_marked_pairs():
    preset = sl2(5)
    assert dim(preset, make(preset, [0], {"s0"}), make(preset, [0], {"s1"})) == 1
    assert dim(preset, make(preset, [0], {"s0"}), make(preset, [0], {"s0"})) == 0


def test_dimension_triangle_disjoint_marks():
    tri = sl_n(3, 2)
    xi1 = make(tri, [0, 0], {"s1"})
    xi2 = make(tri, [0, 0], {"s2", "s3"})
    assert dim(tri, xi1, xi2) == 1


def test_dimension_u21_hybrid_square():
    u = u21(2)
    for m1 in (set(), {"s2"}):
        for m2 in (set(), {"s2"}):
            xi1 = make(u, ["1/3", 0], m1)
            xi2 = make(u, ["1/3", 0], m2)
            assert dim(u, xi1, xi2) == 1


def test_dimension_u11_regular_pair():
    preset = u11(3)
    chi = character(preset.torus, ["1/8"])
    partner = twist(preset.torus, chi, "s1")
    xi1 = hecke_character(preset.torus, preset.coxeter, chi, set())
    xi2 = hecke_character(preset.torus, preset.coxeter, partner, set())
    assert dim(preset, xi1, xi2) == 2


def test_empty_matching_set_forces_zero():
    preset = sl2(5)
    for marked in (set(), {"s0"}, {"s1"}):
        xi1 = make(preset, [0], marked)
        xi2 = make(preset, ["1/4"], set())
        result = ext_dimension(preset.torus, preset.coxeter, xi1, xi2)
        assert result.i_lambda_pair == frozenset()
        assert result.dimension == 0


def test_orders_four_and_six_join_components_like_order_three():
    # trivial torus, reflections a and b: marks on opposite sides join only
    # at order 2, marks on one side at every finite order
    from heckext.coxeter import INFINITE, AffineCoxeterDatum
    from heckext.oracle import oracle_ext_dimension
    from heckext.torus import TorusDatum

    zero = {"a": ((0,),), "b": ((0,),)}
    torus = TorusDatum(5, (1,), zero, zero)
    chi = character(torus, [0] * torus.rank)
    expected_live = {2: (1, 1), 3: (2, 1), 4: (2, 1), 6: (2, 1), INFINITE: (2, 2)}
    for m, (cross_live, same_live) in expected_live.items():
        cox = AffineCoxeterDatum(("a", "b"), ((1, m), (m, 1)))
        a, b, ab, none = (
            hecke_character(torus, cox, chi, marks)
            for marks in ({"a"}, {"b"}, {"a", "b"}, set())
        )
        for xi1, xi2, live_count in ((a, b, cross_live), (ab, none, same_live)):
            r = ext_dimension(torus, cox, xi1, xi2)
            assert (r.live, r.dimension) == (live_count, live_count - 1), m
            assert r.dimension == oracle_ext_dimension(torus, cox, xi1, xi2), m


def test_result_carries_ledger_for_every_reflection():
    preset = u21(2)
    xi1 = make(preset, ["1/3", 0], {"s2"})
    xi2 = make(preset, ["1/3", 0], set())
    result = ext_dimension(preset.torus, preset.coxeter, xi1, xi2)
    assert set(result.per_reflection) == {"s1", "s2"}


def test_commuting_pair_correction_needs_a_tied_component():
    # regression: the marks commute but neither survives the torus
    # relation, so their joined component is not live
    sq = sl_n(4, 3)
    xi1 = make(sq, [0, 0, "1/2"], {"s1"})
    xi2 = make(sq, [0, "1/2", 0], {"s3"})
    r = result(sq, xi1, xi2)
    assert r.live == 0
    assert r.dimension == 1


def test_deltas_count_components_along_finite_orders():
    # infinite order: the two sign marks are separate components
    preset = sl2(5)
    trivial = make(preset, [0], set())
    sign = make(preset, [0], {"s0", "s1"})
    assert live(preset, trivial, sign) == 2
    assert live(preset, sign, trivial) == 2
    assert dim(preset, trivial, sign) == 1

    # order 3: the two marks form one tied component
    tri = sl_n(3, 2)
    xi1 = make(tri, [0, 0], set())
    xi2 = make(tri, [0, 0], {"s1", "s2"})
    assert live(tri, xi1, xi2) == 1


def witness_datum():
    """Trivial torus, p = 7, s0..s3 with m(s0,s1) = 3, m(s1,s2) = m(s2,s3) = 2."""
    from heckext.coxeter import from_int_matrix
    from heckext.torus import TorusDatum

    labels = ("s0", "s1", "s2", "s3")
    matrix = [[1, 3, 0, 0], [3, 1, 2, 0], [0, 2, 1, 2], [0, 0, 2, 1]]
    zero = {s: ((0,),) for s in labels}
    return TorusDatum(7, (1,), zero, zero), from_int_matrix(labels, matrix)


def test_cross_pairs_of_order_two_join_one_component():
    # s1 - s2 - s3 is one component through two order-2 cross pairs; one
    # unknown, spanned by the coboundary
    torus, cox = witness_datum()
    chi = character(torus, [0] * torus.rank)
    xi1 = hecke_character(torus, cox, chi, {"s2"})
    xi2 = hecke_character(torus, cox, chi, {"s1", "s3"})
    r = ext_dimension(torus, cox, xi1, xi2)
    assert r.live == 1
    assert r.dimension == 0
