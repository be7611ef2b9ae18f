"""Property-based checks of the algebraic identities."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from heckext.formula import ext_dimension
from heckext.hecke import enumerate_hecke_characters, format_spec, parse_spec
from heckext.oracle import ConstraintSystem, build_system, in_kernel, kernel_basis
from heckext.presets import sl2, sl_n, u11, u21
from heckext.torus import enumerate_characters, pair, twist

PRESETS = [sl2(5), sl2(7), sl_n(3, 2), sl_n(3, 3), u11(2), u11(3), u21(2)]

preset_st = st.sampled_from(PRESETS)


@st.composite
def preset_and_character(draw):
    preset = draw(preset_st)
    chars = enumerate_characters(preset.torus)
    return preset, draw(st.sampled_from(chars))


@st.composite
def preset_and_pair(draw):
    preset = draw(preset_st)
    chars = enumerate_hecke_characters(preset.torus, preset.coxeter)
    return preset, draw(st.sampled_from(chars)), draw(st.sampled_from(chars))


@given(preset_and_character())
def test_twist_is_involutive(data):
    preset, chi = data
    for s in preset.coxeter.labels:
        assert twist(preset.torus, twist(preset.torus, chi, s), s) == chi


@given(preset_and_character())
def test_pairing_respects_generator_orders(data):
    preset, chi = data
    for i, d in enumerate(preset.torus.orders):
        vector = tuple(d if j == i else 0 for j in range(preset.torus.rank))
        assert pair(chi, vector) == 0


@given(preset_and_pair())
@settings(max_examples=60)
def test_kernel_is_a_subspace(data):
    preset, xi1, xi2 = data
    system = build_system(preset.torus, preset.coxeter, xi1, xi2)
    basis = kernel_basis(system)
    p = system.prime
    for u, v in itertools.combinations_with_replacement(basis, 2):
        s = tuple((a + b) % p for a, b in zip(u, v))
        assert in_kernel(system, s)
        doubled = tuple((2 * a) % p for a in u)
        assert in_kernel(system, doubled)


@given(preset_and_pair())
@settings(max_examples=60)
def test_kernel_dimension_is_row_order_invariant(data):
    preset, xi1, xi2 = data
    system = build_system(preset.torus, preset.coxeter, xi1, xi2)
    shuffled = ConstraintSystem(
        system.unknowns, tuple(reversed(system.rows)), system.prime
    )
    assert len(kernel_basis(system)) == len(kernel_basis(shuffled))


@given(preset_and_pair())
@settings(max_examples=100)
def test_formula_outputs_are_well_formed(data):
    preset, xi1, xi2 = data
    result = ext_dimension(preset.torus, preset.coxeter, xi1, xi2)
    assert result.dimension >= 0
    assert 0 <= result.delta1 <= len(xi1.marked - xi2.marked)
    assert 0 <= result.delta2 <= len(xi2.marked - xi1.marked)
    assert result.i_lambda_i2 <= result.i_lambda_pair
    assert set(result.per_reflection) == set(preset.coxeter.labels)


@given(preset_and_pair())
@settings(max_examples=60)
def test_empty_matching_set_means_zero_both_engines(data):
    preset, xi1, xi2 = data
    result = ext_dimension(preset.torus, preset.coxeter, xi1, xi2)
    if result.i_lambda_pair:
        return
    assert result.dimension == 0
    system = build_system(preset.torus, preset.coxeter, xi1, xi2)
    assert not kernel_basis(system)


@given(preset_and_pair())
def test_spec_round_trip(data):
    preset, xi, _ = data
    assert parse_spec(preset.torus, preset.coxeter, format_spec(xi)) == xi
