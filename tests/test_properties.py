"""Property-based checks of the algebraic identities."""

import itertools
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heckext.coxeter import from_int_matrix
from heckext.document import dump_document, parse_document
from heckext.formula import ext_dimension
from heckext.hecke import enumerate_hecke_characters, format_spec, parse_spec
from heckext.oracle import (
    ConstraintSystem,
    build_system,
    in_kernel,
    kernel_basis,
    system_ext_dimension,
    verify_solution,
)
from heckext.presets import prime_power_radical, sl2, sl_n, u11, u21
from heckext.torus import (
    Character,
    TorusDatum,
    TorusError,
    enumerate_characters,
    pull_back,
    twist,
)

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
        assert pull_back(chi, (vector,)) == Character((0,))


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
    assert 0 <= result.live <= len(xi1.marked ^ xi2.marked)
    assert result.free <= result.i_lambda_pair
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


def build_datum(p, zk_orders, order_table, actions):
    """Torus and Coxeter datums for reflections s0, s1, ...

    ``order_table`` is an integer matrix with 0 for infinite order.  Each
    entry of ``actions`` is either a multiplier m, for the action g -> m*g
    with subgroup generated by the (m - 1)*e_i, or ``"swap"``, for the
    coordinate swap with subgroup generated by (1, -1).  Raises
    ``TorusError`` when the torus datum is invalid.
    """
    labels = tuple("s%d" % i for i in range(len(actions)))
    rank = len(zk_orders)
    tables, subgroups = {}, {}
    for s, m in zip(labels, actions):
        if m == "swap":
            tables[s] = ((0, 1), (1, 0))
            subgroups[s] = ((1, -1 % zk_orders[1]),)
        else:
            tables[s] = tuple(
                tuple(m % d if j == i else 0 for j in range(rank))
                for i, d in enumerate(zk_orders)
            )
            subgroups[s] = tuple(
                tuple((m - 1) % d if j == i else 0 for j in range(rank))
                for i, d in enumerate(zk_orders)
            )
    torus = TorusDatum(p, tuple(zk_orders), tables, subgroups)
    return torus, from_int_matrix(labels, order_table)


@st.composite
def random_datum(draw):
    """A datum of rank 1-2 and 2-4 reflections, with at most 32 characters."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    orders = [d for d in range(1, 7) if math.gcd(d, p) == 1]
    zk_orders = draw(st.lists(st.sampled_from(orders), min_size=1, max_size=2))
    n = draw(st.integers(2, 4))
    table = [[1] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        table[i][j] = table[j][i] = draw(st.sampled_from((2, 3, 4, 6, 0)))
    lcm = math.lcm(*zk_orders)
    units = [m for m in range(lcm) if m * m % lcm == 1 % lcm]
    kinds = st.sampled_from(units)
    if len(zk_orders) == 2:
        kinds = kinds | st.just("swap")
    actions = draw(st.lists(kinds, min_size=n, max_size=n))
    try:
        datum = build_datum(p, zk_orders, table, actions)
    except TorusError:
        assume(False)
    assume(len(enumerate_hecke_characters(*datum)) <= 32)
    return datum


# closed form 1, oracle 0 before order-2 cross pairs joined components
WITNESS = build_datum(
    7, (1,), [[1, 3, 0, 0], [3, 1, 2, 0], [0, 2, 1, 2], [0, 0, 2, 1]], (1,) * 4
)


def assert_engines_agree(torus, cox):
    """Round-trip the datum through a document, then compare the closed form
    with the oracle on every ordered pair and check each kernel vector."""
    parsed = parse_document(dump_document("datum", cox, torus))
    assert (parsed.torus, parsed.coxeter) == (torus, cox)
    chars = enumerate_hecke_characters(torus, cox)
    for xi1, xi2 in itertools.product(chars, repeat=2):
        closed = ext_dimension(torus, cox, xi1, xi2).dimension
        system = build_system(torus, cox, xi1, xi2)
        pair_spec = (format_spec(xi1), format_spec(xi2))
        assert closed == system_ext_dimension(system, cox, xi1, xi2), pair_spec
        assert closed >= 0, pair_spec
        for vector in kernel_basis(system):
            assignment = dict(zip(system.unknowns, vector))
            assert verify_solution(torus, cox, xi1, xi2, assignment), pair_spec


@given(random_datum())
@example(WITNESS)
@settings(max_examples=20, deadline=None)
def test_engines_agree_on_random_datums(data):
    assert_engines_agree(*data)


def rank_two_datum(q, order_table, reflections):
    """Torus (Z/(q-1))^2 and Coxeter datums for reflections s0, s1, s2.

    ``reflections[s]`` is (table, coroot): the integer exponent table of s
    on the cocharacter basis, and the coroot whose image is the rank-one
    subgroup of s.  Entries are reduced mod q - 1.
    """
    d = q - 1
    labels = tuple(sorted(reflections))
    tables = {
        s: tuple(tuple(x % d for x in row) for row in reflections[s][0])
        for s in labels
    }
    subgroups = {
        s: (tuple(x % d for x in reflections[s][1]),) for s in labels
    }
    torus = TorusDatum(prime_power_radical(q), (d, d), tables, subgroups)
    return torus, from_int_matrix(labels, order_table)


def c2_datum(q):
    """Affine C2 (Sp4) over F_q.

    Roots e1 - e2 (a1, short), 2e2 (a2, long) and the highest root 2e1 (s0),
    with coroots e1 - e2, e2 and e1 in the cocharacter basis e1, e2.  The
    Cartan entries <a1v, a2> = -2 and <a2v, a1> = -1 multiply to 2, so
    m(s1, s2) = 4; <e1, e1 - e2> = 1 and <e1 - e2, 2e1> = 2 give
    m(s0, s1) = 4; <e1, 2e2> = 0 gives m(s0, s2) = 2.  A reflection acts on
    cocharacters by x -> x - <a, x> av: s1 swaps e1 and e2, s2 inverts e2,
    s0 inverts e1.
    """
    return rank_two_datum(
        q,
        [[1, 4, 2], [4, 1, 4], [2, 4, 1]],
        {
            "s0": (((-1, 0), (0, 1)), (1, 0)),
            "s1": (((0, 1), (1, 0)), (1, -1)),
            "s2": (((1, 0), (0, -1)), (0, 1)),
        },
    )


def g2_datum(q):
    """Affine G2 over F_q, in the coroot basis a1v, a2v with a1 short.

    With (a1, a1) = 2, (a2, a2) = 6 and (a1, a2) = -3, the Cartan entries
    are <a1v, a2> = -3 and <a2v, a1> = -1, so m(s1, s2) = 6.  The highest
    root t = 3a1 + 2a2 has tv = a1v + 2a2v, <t, a1v> = 0 and <t, a2v> =
    <a2, tv> = 1, so m(s0, s1) = 2 and m(s0, s2) = 3.  By x -> x - <a, x> av:
    s1 sends a1v to -a1v and a2v to a1v + a2v; s2 sends a1v to a1v + 3a2v
    and a2v to -a2v; s0 fixes a1v and sends a2v to -a1v - a2v.
    """
    return rank_two_datum(
        q,
        [[1, 2, 3], [2, 1, 6], [3, 6, 1]],
        {
            "s0": (((1, 0), (-1, -1)), (1, 2)),
            "s1": (((-1, 0), (1, 1)), (1, 0)),
            "s2": (((1, 3), (0, -1)), (0, 1)),
        },
    )


@pytest.mark.parametrize("q", (3, 4, 5))
@pytest.mark.parametrize("build", (c2_datum, g2_datum), ids=("C2", "G2"))
def test_engines_agree_on_orders_four_and_six(build, q):
    assert_engines_agree(*build(q))
