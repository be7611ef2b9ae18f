"""Torus quotient: characters, twists, subgroup triviality, enumeration."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest

from heckext import torus as torus_module
from heckext.presets import build_preset, sl2, u11, u21
from heckext.torus import (
    Character,
    EnumerationBoundError,
    PRIMALITY_BOUND,
    TorusDatum,
    TorusError,
    c_value,
    character,
    enumerate_characters,
    generator_off_subgroup,
    is_prime,
    pull_back,
    s_lambda,
    twist,
)


def chi(datum, *phases):
    return character(datum, phases)


def fraction_pairing(ch, vector):
    """Phase of ``ch`` on the element with this exponent vector, in Fractions."""
    return sum((x * ph for x, ph in zip(vector, ch.phases)), Fraction(0)) % 1


def test_pair_trivial_character():
    torus = sl2(5).torus
    assert pull_back(chi(torus, 0), ((3,),)) == Character((0,))


def test_pair_generator_evaluation():
    torus = sl2(5).torus
    assert pull_back(chi(torus, "1/4"), ((1,),)) == Character((Fraction(1, 4),))
    assert pull_back(chi(torus, "2/4"), ((3,),)) == Character((Fraction(1, 2),))


def test_pair_rejects_wrong_length():
    torus = sl2(5).torus
    with pytest.raises(TorusError):
        pull_back(chi(torus, "1/4"), ((1, 2),))


def test_twist_inverts_sl2_characters():
    torus = sl2(5).torus
    assert twist(torus, chi(torus, "1/4"), "s0") == chi(torus, "3/4")
    assert twist(torus, chi(torus, 0), "s1") == chi(torus, 0)


def test_twist_u11_action():
    # e -> -q*e with q = 3: phase e/8 goes to 5e/8
    torus = u11(3).torus
    for e in range(8):
        expected = chi(torus, Fraction(5 * e, 8))
        assert twist(torus, chi(torus, Fraction(e, 8)), "s1") == expected


def test_twist_is_involutive_everywhere():
    for preset in (sl2(5), u11(3), u21(2)):
        torus = preset.torus
        for ch in enumerate_characters(torus):
            for s in preset.coxeter.labels:
                assert twist(torus, twist(torus, ch, s), s) == ch


def test_subgroup_triviality():
    torus = sl2(5).torus
    assert c_value(torus, chi(torus, 0), "s0") == 1
    # rank-one subgroup at s0 is the whole cyclic group
    assert c_value(torus, chi(torus, "1/4"), "s0") == 0


def test_subgroup_triviality_u21_hybrid():
    torus = u21(2).torus
    hybrid = chi(torus, "1/3", 0)
    assert c_value(torus, hybrid, "s2") == 1
    assert c_value(torus, hybrid, "s1") == 0


def _subgroup_elements(torus, s):
    """All elements generated by the subgroup's exponent vectors."""
    gens = torus.subgroup(s)
    seen = {tuple([0] * torus.rank)}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % d for a, b, d in zip(x, g, torus.orders))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def test_c_value_matches_root_of_unity_average():
    # independent oracle: numerically average the character over the subgroup
    for preset in (sl2(5), u11(3), u21(2)):
        torus = preset.torus
        for ch in enumerate_characters(torus):
            for s in preset.coxeter.labels:
                elements = _subgroup_elements(torus, s)
                total = sum(
                    cmath.exp(2j * math.pi * fraction_pairing(ch, x)) for x in elements
                )
                average = abs(total) / len(elements)
                assert abs(average - c_value(torus, ch, s)) < 1e-9


def test_c_value_examples():
    torus = sl2(5).torus
    assert c_value(torus, chi(torus, 0), "s0") == 1
    assert c_value(torus, chi(torus, "2/4"), "s1") == 0
    hybrid = character(u21(2).torus, ("1/3", 0))
    assert c_value(u21(2).torus, hybrid, "s2") == 1


def test_s_lambda_examples():
    sl = sl2(5)
    assert s_lambda(sl.torus, sl.coxeter.labels, chi(sl.torus, 0)) == {
        "s0",
        "s1",
    }
    assert s_lambda(sl.torus, sl.coxeter.labels, chi(sl.torus, "1/4")) == frozenset()
    u = u21(2)
    assert s_lambda(u.torus, u.coxeter.labels, chi(u.torus, 0, 0)) == {
        "s1",
        "s2",
    }


def test_enumeration_counts():
    assert len(enumerate_characters(sl2(5).torus)) == 4
    assert len(enumerate_characters(u21(2).torus)) == 9
    assert len(enumerate_characters(u11(3).torus)) == 8


def test_enumeration_is_deterministic_and_lexicographic():
    chars = enumerate_characters(sl2(5).torus)
    phases = [c.phases[0] for c in chars]
    assert phases == sorted(phases)


def test_enumeration_bound():
    with pytest.raises(EnumerationBoundError):
        enumerate_characters(sl2(5).torus, bound=3)


def test_character_constructor_validation():
    torus = sl2(5).torus
    with pytest.raises(TorusError):
        character(torus, ["1/3"])  # denominator does not divide 4
    with pytest.raises(TorusError):
        character(torus, ["1/4", "1/4"])  # wrong rank
    assert character(torus, ["5/4"]) == chi(torus, "1/4")  # reduced mod 1


def test_is_prime_matches_trial_division_and_rejects_pseudoprimes():
    def by_trial_division(n):
        return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))

    assert [n for n in range(5000) if is_prime(n)] == [
        n for n in range(5000) if by_trial_division(n)
    ]
    # strong pseudoprimes to the first 1, 4, 9 and 12 prime bases
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2**89 - 1)
    assert not is_prime((2**31 - 1) * (2**61 - 1))


def test_residue_characteristic_beyond_the_primality_bound_is_rejected():
    for p in (PRIMALITY_BOUND, 10**400):
        with pytest.raises(TorusError, match="too large"):
            TorusDatum(p, (2,), {"s": ((1,),)}, {"s": ((0,),)})
    TorusDatum(2**61 - 1, (2,), {"s": ((1,),)}, {"s": ((0,),)})


def test_datum_validation():
    with pytest.raises(TorusError):
        TorusDatum(4, (3,), {"s": ((1,),)}, {"s": ((1,),)})  # p not prime
    with pytest.raises(TorusError):
        TorusDatum(5, (10,), {"s": ((1,),)}, {"s": ((1,),)})  # gcd(d, p) > 1
    with pytest.raises(TorusError):
        TorusDatum(5, (4,), {"s": ((2,),)}, {"s": ((1,),)})  # not involutive
    with pytest.raises(TorusError):
        TorusDatum(5, (4, 2), {"s": ((0, 1), (0, 1))}, {"s": ((0, 0),)})
    with pytest.raises(TorusError):
        # subgroups must cover the same reflections as actions
        TorusDatum(5, (4,), {"s": ((1,),)}, {})
    # s(g) - g must lie in the rank-one subgroup: inversion on Z/3 moves
    # the generator by 1, outside the trivial subgroup
    with pytest.raises(TorusError, match="'s0' moves generator 0 off its subgroup"):
        TorusDatum(2, (3,), {"s0": ((2,),)}, {"s0": ((0,),)})
    with pytest.raises(TorusError, match="'s' moves generator 1 off its subgroup"):
        TorusDatum(5, (4, 3), {"s": ((1, 0), (0, 2))}, {"s": ((2, 0),)})
    TorusDatum(2, (3,), {"s0": ((2,),)}, {"s0": ((1,),)})


def test_generator_off_subgroup_matches_enumeration():
    # reference: list the subgroup's elements and test membership directly
    rng = random.Random(3)
    for _ in range(300):
        r = rng.randint(1, 3)
        orders = [rng.randint(1, 6) for _ in range(r)]
        gens = [
            tuple(rng.randint(-9, 9) for _ in range(r))
            for _ in range(rng.randint(0, 2))
        ]
        table = [tuple(rng.randint(-9, 9) for _ in range(r)) for _ in range(r)]

        def reduced(v):
            return tuple(e % d for e, d in zip(v, orders))

        coefficients = range(math.lcm(*orders))
        members = {
            reduced([sum(c * g[j] for c, g in zip(cs, gens)) for j in range(r)])
            for cs in itertools.product(coefficients, repeat=len(gens))
        }
        off = [
            i
            for i, image in enumerate(table)
            if reduced([e - (i == j) for j, e in enumerate(image)]) not in members
        ]
        found = generator_off_subgroup(orders, table, gens)
        assert found in off if off else found is None


def test_character_equality_is_phase_equality():
    torus = sl2(5).torus
    assert Character((Fraction(1, 4),)) == chi(torus, "1/4")
    assert chi(torus, "1/4") != chi(torus, "3/4")


@pytest.mark.parametrize(
    "spec", ["sl2:5", "u11:3", "u21:3", "sl_n:3:3", "sl_n:4:3", "sl_n:5:2"]
)
def test_twist_and_c_value_match_direct_pairing(spec):
    preset = build_preset(spec)
    torus = preset.torus
    for ch in enumerate_characters(torus):
        for s in preset.coxeter.labels:
            direct = Character(
                tuple(fraction_pairing(ch, row) for row in torus.action(s))
            )
            trivial = all(fraction_pairing(ch, g) == 0 for g in torus.subgroup(s))
            assert twist(torus, ch, s) == direct == pull_back(ch, torus.action(s))
            assert c_value(torus, ch, s) == (1 if trivial else 0)


def test_each_character_is_paired_once_per_datum(monkeypatch):
    torus = u21(3).torus
    fills = []
    real = torus_module._fill_row

    def counting(datum, char):
        fills.append(char)
        return real(datum, char)

    monkeypatch.setattr(torus_module, "_fill_row", counting)
    ch = chi(torus, "1/4", "1/2")
    labels = sorted(torus.actions)
    first = [(twist(torus, ch, s), c_value(torus, ch, s)) for s in labels]
    assert fills == [ch] and list(torus._table) == [ch]
    again = [(twist(torus, ch, s), c_value(torus, ch, s)) for s in labels]
    s_lambda(torus, labels, ch)
    assert again == first and fills == [ch]
    # an equal character value reads the same entries
    twist(torus, Character(ch.phases), labels[0])
    assert fills == [ch] and len(torus._table) == 1
    # each twist is a new character value, filled once on its first lookup
    twisted = [twist(torus, ch, s) for s in labels]
    for tw in twisted:
        twist(torus, tw, labels[0])
        twist(torus, tw, labels[-1])
    distinct = list(dict.fromkeys([ch, *twisted]))
    assert fills == distinct and list(torus._table) == distinct


def test_datums_with_equal_orders_keep_separate_entries():
    # same orders, different actions: identity versus inversion on Z/4
    fixed = TorusDatum(5, (4,), {"s": ((1,),)}, {"s": ((0,),)})
    inverted = TorusDatum(5, (4,), {"s": ((3,),)}, {"s": ((2,),)})
    ch = chi(fixed, "1/4")
    assert twist(fixed, ch, "s") == ch
    assert c_value(fixed, ch, "s") == 1
    assert twist(inverted, ch, "s") == chi(inverted, "3/4")
    assert c_value(inverted, ch, "s") == 0
    assert twist(fixed, ch, "s") == ch


def test_unknown_reflection_is_rejected():
    torus = sl2(5).torus
    ch = chi(torus, "1/4")
    for lookup in (twist, c_value):
        with pytest.raises(TorusError, match="unknown reflection 'x'"):
            lookup(torus, ch, "x")
