"""Algebra characters: admissibility, supersingularity, enumeration, specs."""

from fractions import Fraction

import pytest

from heckext.hecke import (
    HeckeCharacterError,
    enumerate_hecke_characters,
    format_spec,
    hecke_character,
    is_supersingular,
    parse_spec,
)
from heckext.coxeter import AffineCoxeterDatum, INFINITE
from heckext.presets import build_preset, sl2, u21
from heckext.torus import (
    Character,
    TorusDatum,
    character,
    enumerate_characters,
    twist,
)


def chi0(preset):
    return character(preset.torus, [0] * preset.torus.rank)


def test_admissible_marked_set():
    preset = sl2(5)
    xi = hecke_character(preset.torus, preset.coxeter, chi0(preset), {"s0"})
    assert xi.marked == {"s0"}


def test_empty_marked_set_is_always_admissible():
    preset = sl2(5)
    chi1 = character(preset.torus, ["1/4"])
    xi = hecke_character(preset.torus, preset.coxeter, chi1, set())
    assert xi.marked == frozenset()


def test_inadmissible_marked_set_raises():
    preset = sl2(5)
    chi1 = character(preset.torus, ["1/4"])
    with pytest.raises(HeckeCharacterError, match="cannot be marked"):
        hecke_character(preset.torus, preset.coxeter, chi1, {"s0"})


def test_unknown_reflection_raises():
    preset = sl2(5)
    with pytest.raises(HeckeCharacterError, match="unknown reflection"):
        hecke_character(preset.torus, preset.coxeter, chi0(preset), {"sX"})


def test_supersingularity_classification():
    preset = sl2(5)
    sign = hecke_character(preset.torus, preset.coxeter, chi0(preset), {"s0", "s1"})
    assert not is_supersingular(preset.torus, preset.coxeter, sign)
    trivial = hecke_character(preset.torus, preset.coxeter, chi0(preset), set())
    assert not is_supersingular(preset.torus, preset.coxeter, trivial)
    chi1 = character(preset.torus, ["1/4"])
    regular = hecke_character(preset.torus, preset.coxeter, chi1, set())
    assert is_supersingular(preset.torus, preset.coxeter, regular)


def test_supersingularity_u21_hybrid():
    preset = u21(2)
    hybrid = character(preset.torus, ["1/3", 0])
    for marked in (set(), {"s2"}):
        xi = hecke_character(preset.torus, preset.coxeter, hybrid, marked)
        assert is_supersingular(preset.torus, preset.coxeter, xi)


def test_enumeration_counts_sl2_5():
    preset = sl2(5)
    everything = enumerate_hecke_characters(preset.torus, preset.coxeter)
    assert len(everything) == 7
    ss = enumerate_hecke_characters(
        preset.torus, preset.coxeter, only_supersingular=True
    )
    assert len(ss) == 5


def test_enumeration_counts_u21_trivial_iwahori():
    preset = u21(2)
    trivial = chi0(preset)
    with_trivial = [
        xi
        for xi in enumerate_hecke_characters(preset.torus, preset.coxeter)
        if xi.torus_char == trivial
    ]
    assert len(with_trivial) == 4
    ss = [
        xi
        for xi in with_trivial
        if is_supersingular(preset.torus, preset.coxeter, xi)
    ]
    assert len(ss) == 2


def test_enumeration_trivial_torus_one_reflection():
    cox = AffineCoxeterDatum(("s", "t"), ((1, INFINITE), (INFINITE, 1)))
    torus = TorusDatum(
        5,
        (1,),
        {"s": ((0,),), "t": ((0,),)},
        {"s": ((0,),), "t": ((0,),)},
    )
    everything = enumerate_hecke_characters(torus, cox)
    assert len(everything) == 4  # unique lambda, I over two reflections
    ss = enumerate_hecke_characters(torus, cox, only_supersingular=True)
    assert len(ss) == 2  # sign and trivial excluded


def test_spec_round_trip():
    preset = sl2(5)
    for xi in enumerate_hecke_characters(preset.torus, preset.coxeter):
        text = format_spec(xi)
        assert parse_spec(preset.torus, preset.coxeter, text) == xi


def test_parse_spec_examples():
    preset = sl2(5)
    xi = parse_spec(preset.torus, preset.coxeter, "0;s0,s1")
    assert xi.marked == {"s0", "s1"}
    xi = parse_spec(preset.torus, preset.coxeter, "1/4;")
    assert xi.marked == frozenset()


def test_parse_spec_errors():
    preset = sl2(5)
    with pytest.raises(HeckeCharacterError):
        parse_spec(preset.torus, preset.coxeter, "no-semicolon")
    with pytest.raises(HeckeCharacterError):
        parse_spec(preset.torus, preset.coxeter, "1/4,1/4;")  # wrong rank
    with pytest.raises(HeckeCharacterError):
        parse_spec(preset.torus, preset.coxeter, "x/y;")
    with pytest.raises(HeckeCharacterError):
        parse_spec(preset.torus, preset.coxeter, "1/4;s0")  # inadmissible


@pytest.mark.parametrize(
    "spec", ["sl2:5", "u11:3", "u21:3", "sl_n:3:3", "sl_n:4:3", "sl_n:5:3"]
)
def test_public_character_form_round_trips(spec):
    # perfbench keys every node by tuple(xi.torus_char.phases) and compares
    # it with the Fractions it parses back from the printed spec strings
    preset = build_preset(spec)
    torus, cox = preset.torus, preset.coxeter
    chars = enumerate_characters(torus)
    made = [character(torus, ch.phases) for ch in chars]
    twisted = [twist(torus, ch, s) for ch in chars for s in cox.labels]
    for ch in chars + made + twisted:
        assert type(ch) is Character
        assert all(type(ph) is Fraction and 0 <= ph < 1 for ph in ch.phases)
    for xi in enumerate_hecke_characters(torus, cox):
        text = format_spec(xi)
        assert parse_spec(torus, cox, text) == xi
        phases = tuple(Fraction(ph) for ph in text.partition(";")[0].split(","))
        assert phases == xi.torus_char.phases
