"""Preset datums: validation, counts, actions, subgroup criteria."""

import pytest

from heckext.coxeter import INFINITE
from heckext.hecke import enumerate_hecke_characters, hecke_character
from heckext.oracle import oracle_ext_dimension
from heckext.presets import (
    PresetError,
    build_preset,
    prime_power_radical,
    sl2,
    sl_n,
    u11,
    u21,
)
from heckext.torus import (
    character,
    enumerate_characters,
    s_lambda,
    twist,
)

ALL_PRESETS = [sl2(2), sl2(3), sl2(5), sl2(7), sl_n(3, 2), sl_n(3, 3), sl_n(4, 2), u11(2), u11(3), u11(4), u21(2), u21(3)]


def test_prime_power_radical():
    assert prime_power_radical(2) == 2
    assert prime_power_radical(9) == 3
    assert prime_power_radical(8) == 2
    for bad in (1, 6, 12, 0):
        with pytest.raises(PresetError):
            prime_power_radical(bad)


@pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: "%s%s" % (p.name, p.params))
def test_preset_datums_validate(preset):
    # TorusDatum validation already ran in the constructor; check the
    # automorphisms against the full invariant set as well
    for auto in preset.automorphisms:
        auto.validate(preset.torus, preset.coxeter)


@pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: "%s%s" % (p.name, p.params))
def test_character_count_identity(preset):
    # sum over torus characters of 2^|S_lambda| equals the total count
    total = 0
    for chi in enumerate_characters(preset.torus):
        total += 2 ** len(s_lambda(preset.torus, preset.coxeter.labels, chi))
    assert total == len(enumerate_hecke_characters(preset.torus, preset.coxeter))


def test_sl2_counts():
    preset = sl2(5)
    assert len(enumerate_hecke_characters(preset.torus, preset.coxeter)) == 7
    ss = enumerate_hecke_characters(
        preset.torus, preset.coxeter, only_supersingular=True
    )
    assert len(ss) == 5


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sl2_supersingular_count_formula(p):
    preset = sl2(p)
    ss = enumerate_hecke_characters(
        preset.torus, preset.coxeter, only_supersingular=True
    )
    assert len(ss) == (p - 2) + 2


def test_sl2_2_trivial_torus():
    preset = sl2(2)
    assert preset.torus.group_order == 1
    ss = enumerate_hecke_characters(
        preset.torus, preset.coxeter, only_supersingular=True
    )
    assert sorted(sorted(xi.marked) for xi in ss) == [["s0"], ["s1"]]


def test_sl2_3_self_extension_of_order_two_character():
    preset = sl2(3)
    chi1 = character(preset.torus, ["1/2"])
    assert twist(preset.torus, chi1, "s0") == chi1
    xi = hecke_character(preset.torus, preset.coxeter, chi1, set())
    assert oracle_ext_dimension(preset.torus, preset.coxeter, xi, xi) == 2


def test_sl_n_coxeter_orders():
    tri = sl_n(3, 2).coxeter
    for s in tri.labels:
        for t in tri.labels:
            assert tri.order(s, t) == (1 if s == t else 3)
    sq = sl_n(4, 2).coxeter
    assert sq.order("s1", "s3") == 2
    assert sq.order("s2", "s4") == 2
    assert sq.order("s1", "s2") == 3
    assert sq.order("s4", "s1") == 3


def test_sl_n_3_2_supersingular_set():
    preset = sl_n(3, 2)
    ss = enumerate_hecke_characters(
        preset.torus, preset.coxeter, only_supersingular=True
    )
    assert len(ss) == 6
    for xi in ss:
        assert 0 < len(xi.marked) < 3


def test_sl_n_rotation_group_order():
    assert len(sl_n(3, 2).automorphisms) == 3
    assert len(sl_n(4, 3).automorphisms) == 4


def test_u11_s_full_iff_even():
    preset = u11(3)
    for e in range(8):
        chi = character(preset.torus, ["%d/8" % e])
        sl = s_lambda(preset.torus, preset.coxeter.labels, chi)
        if e % 2 == 0:
            assert sl == {"s1", "s2"}
        else:
            assert sl == frozenset()


def test_u11_2_twist_is_trivial():
    preset = u11(2)
    for chi in enumerate_characters(preset.torus):
        assert twist(preset.torus, chi, "s1") == chi


def test_u11_3_regular_twist():
    preset = u11(3)
    chi1 = character(preset.torus, ["1/8"])
    assert twist(preset.torus, chi1, "s1") == character(preset.torus, ["5/8"])


def test_u21_s_chi_cases():
    p2 = u21(2)
    trivial = character(p2.torus, [0] * p2.torus.rank)
    assert s_lambda(p2.torus, p2.coxeter.labels, trivial) == {"s1", "s2"}
    hybrid = character(p2.torus, ["1/3", 0])
    assert s_lambda(p2.torus, p2.coxeter.labels, hybrid) == {"s2"}
    p3 = u21(3)
    regular = character(p3.torus, ["1/8", 0])
    assert s_lambda(p3.torus, p3.coxeter.labels, regular) == frozenset()


def test_rank_one_presets_have_infinite_braid_order():
    for preset in (sl2(5), u11(3), u21(2)):
        labels = preset.coxeter.labels
        assert preset.coxeter.order(labels[0], labels[1]) == INFINITE


def test_sl_n_rejects_small_rank():
    with pytest.raises(PresetError):
        sl_n(2, 5)


def test_build_preset_parsing():
    assert build_preset("sl2:5").params == {"q": 5}
    assert build_preset("sl_n:3:2").params == {"n": 3, "q": 2}
    for bad in ("nope:3", "sl2", "sl2:5:5", "sl2:x"):
        with pytest.raises(PresetError):
            build_preset(bad)
