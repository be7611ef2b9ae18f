"""Quiver construction, blocks, diagram orbits, partition comparison."""

import itertools

import pytest
from hypothesis import given, settings

from heckext import quiver as quiver_module
from heckext.formula import ext_dimension
from heckext.hecke import enumerate_hecke_characters, format_spec, hecke_character
from heckext.oracle import oracle_ext_dimension
from heckext.presets import build_preset, sl2, sl_n, u11, u21
from heckext.quiver import (
    ExtQuiver,
    QuiverError,
    apply_automorphism,
    blocks,
    build_quiver,
    compare_partitions,
    evaluate_pairs,
    identity_automorphism,
    l_packets,
    to_dot,
    DiagramAutomorphism,
)
from heckext.torus import character, twist
from test_properties import c2_datum, g2_datum, random_datum

ENGINES = {
    "formula": lambda *args: ext_dimension(*args).dimension,
    "oracle": oracle_ext_dimension,
}


def spec_edges(preset, quiver):
    return {
        (format_spec(quiver.nodes[i]), format_spec(quiver.nodes[j])): d
        for (i, j), d in quiver.edges.items()
    }


def test_sl2_5_supersingular_quiver():
    preset = sl2(5)
    quiver = build_quiver(preset.torus, preset.coxeter)
    assert len(quiver.nodes) == 5
    assert spec_edges(preset, quiver) == {
        ("0;s0", "0;s1"): 1,
        ("0;s1", "0;s0"): 1,
        ("1/4;", "3/4;"): 2,
        ("3/4;", "1/4;"): 2,
        ("1/2;", "1/2;"): 2,
    }


def test_u21_2_hybrid_subquiver_is_complete():
    preset = u21(2)
    quiver = build_quiver(preset.torus, preset.coxeter)
    edges = spec_edges(preset, quiver)
    for a in ("1/3,0;", "1/3,0;s2"):
        for b in ("1/3,0;", "1/3,0;s2"):
            assert edges[(a, b)] == 1


def test_empty_quiver():
    quiver = ExtQuiver(nodes=(), edges={})
    assert blocks(quiver) == []


def test_blocks_sl2_5():
    preset = sl2(5)
    quiver = build_quiver(preset.torus, preset.coxeter)
    partition = blocks(quiver)
    named = [
        sorted(format_spec(quiver.nodes[i]) for i in part) for part in partition
    ]
    assert sorted(map(tuple, named)) == sorted(
        [("0;s0", "0;s1"), ("1/4;", "3/4;"), ("1/2;",)]
    )


def test_blocks_edgeless_quiver_is_singletons():
    preset = sl2(5)
    quiver = build_quiver(preset.torus, preset.coxeter)
    edgeless = ExtQuiver(quiver.nodes, {})
    assert blocks(edgeless) == [[i] for i in range(len(quiver.nodes))]


def test_blocks_u11_3_pair_structure():
    preset = u11(3)
    quiver = build_quiver(preset.torus, preset.coxeter)
    for part in blocks(quiver):
        assert len(part) == 2
        a, b = (quiver.nodes[i] for i in part)
        if a.marked:
            # marked pair over the same S-full character
            assert a.torus_char == b.torus_char
            assert {a.marked, b.marked} == {
                frozenset({"s1"}),
                frozenset({"s2"}),
            }
        else:
            # regular pair swapped by the twist
            assert b.torus_char == twist(preset.torus, a.torus_char, "s1")


def test_identity_only_packets_are_singletons():
    preset = u21(2)
    quiver = build_quiver(preset.torus, preset.coxeter)
    packets = l_packets(
        preset.torus, preset.coxeter, preset.automorphisms, quiver.nodes
    )
    assert packets == [[i] for i in range(len(quiver.nodes))]


def test_sl2_swap_orbit():
    preset = sl2(5)
    quiver = build_quiver(preset.torus, preset.coxeter)
    packets = l_packets(
        preset.torus, preset.coxeter, preset.automorphisms, quiver.nodes
    )
    named = sorted(
        tuple(sorted(format_spec(quiver.nodes[i]) for i in part))
        for part in packets
    )
    assert ("0;s0", "0;s1") in named


def test_sl_n_orbits_separate_marked_sizes():
    preset = sl_n(3, 2)
    quiver = build_quiver(preset.torus, preset.coxeter)
    packets = l_packets(
        preset.torus, preset.coxeter, preset.automorphisms, quiver.nodes
    )
    sizes = sorted(
        {len(quiver.nodes[i].marked) for i in part} for part in packets
    )
    assert sizes == [{1}, {2}]  # rotation orbits: singletons vs doubletons


def test_compare_partitions():
    assert compare_partitions([[0, 1], [2]], [[0, 1], [2]]).equal
    outcome = compare_partitions([[0, 1, 2]], [[0, 1], [2]])
    assert not outcome.equal
    assert outcome.blocks_meeting_multiple_packets == ((0, 1, 2),)
    with pytest.raises(QuiverError):
        compare_partitions([[0]], [[0, 1]])


def test_u11_blocks_equal_packets():
    preset = u11(3)
    quiver = build_quiver(preset.torus, preset.coxeter)
    packets = l_packets(
        preset.torus, preset.coxeter, preset.automorphisms, quiver.nodes
    )
    assert compare_partitions(blocks(quiver), packets).equal


def test_sl_n_blocks_differ_from_packets():
    preset = sl_n(3, 2)
    quiver = build_quiver(preset.torus, preset.coxeter)
    packets = l_packets(
        preset.torus, preset.coxeter, preset.automorphisms, quiver.nodes
    )
    outcome = compare_partitions(blocks(quiver), packets)
    assert not outcome.equal
    assert outcome.blocks_meeting_multiple_packets


def test_apply_automorphism_preserves_admissibility():
    for preset in (sl2(5), sl_n(3, 2), sl_n(3, 3), u11(3)):
        quiver = build_quiver(preset.torus, preset.coxeter, include_non_ss=True)
        for auto in preset.automorphisms:
            for xi in quiver.nodes:
                image = apply_automorphism(
                    preset.torus, preset.coxeter, auto, xi
                )
                # re-validate through the checked constructor
                hecke_character(
                    preset.torus, preset.coxeter, image.torus_char, image.marked
                )


def test_invalid_automorphism_rejected():
    preset = sl_n(4, 2)
    torus, cox = preset.torus, preset.coxeter
    identity_table = identity_automorphism(torus, cox).torus_map
    # transposing two adjacent labels only is not a diagram symmetry
    bad_perm = {"s1": "s2", "s2": "s1", "s3": "s3", "s4": "s4"}
    with pytest.raises(QuiverError):
        DiagramAutomorphism(bad_perm, identity_table).validate(torus, cox)
    not_a_permutation = {"s1": "s1", "s2": "s1", "s3": "s3", "s4": "s4"}
    with pytest.raises(QuiverError):
        DiagramAutomorphism(not_a_permutation, identity_table).validate(torus, cox)
    # torus maps that fail each remaining check under the identity perm
    rotation = sl_n(3, 3).automorphisms[1].torus_map
    cases = [
        (u21(3), ((1, 0), (1, 1)), "not a well-defined endomorphism"),
        (u11(3), ((2,),), "not invertible"),
        (sl_n(3, 3), rotation, "does not intertwine"),
        (u21(3), ((1,), (0, 1)), "not a 2x2 table"),
        (u21(3), ((1, 0),), "not a 2x2 table"),
    ]
    for preset, table, message in cases:
        identity_perm = {s: s for s in preset.coxeter.labels}
        with pytest.raises(QuiverError, match=message):
            DiagramAutomorphism(identity_perm, table).validate(
                preset.torus, preset.coxeter
            )


def test_packet_closure_check():
    preset = sl_n(3, 2)
    quiver = build_quiver(preset.torus, preset.coxeter)
    rotation_only = [a for a in preset.automorphisms][1:2]
    with pytest.raises(QuiverError, match="closed under composition"):
        l_packets(preset.torus, preset.coxeter, rotation_only, quiver.nodes)


def test_to_dot_output():
    preset = sl2(5)
    quiver = build_quiver(preset.torus, preset.coxeter)
    dot = to_dot(quiver)
    assert dot.startswith("digraph ext_quiver {")
    assert 'label="2"' in dot
    clustered = to_dot(quiver, blocks(quiver))
    assert "subgraph cluster_0" in clustered
    # deterministic
    assert to_dot(quiver) == dot


def assert_edges_equal_dense_loop(torus, cox):
    """``build_quiver`` against a loop over every ordered pair, per engine,
    and the one pass over both engines against the two loops."""
    for include_non_ss in (False, True):
        nodes = enumerate_hecke_characters(
            torus, cox, only_supersingular=not include_non_ss
        )
        dense = {engine: {} for engine in ENGINES}
        for (i, xi1), (j, xi2) in itertools.product(enumerate(nodes), repeat=2):
            for engine, edges in dense.items():
                dim = ENGINES[engine](torus, cox, xi1, xi2)
                if dim != 0:
                    edges[(i, j)] = dim
        for engine, edges in dense.items():
            sparse = build_quiver(
                torus, cox, engine=engine, include_non_ss=include_non_ss
            )
            assert sparse.nodes == tuple(nodes)
            assert list(sparse.edges.items()) == list(edges.items()), (
                engine,
                include_non_ss,
            )
        both_nodes, both = evaluate_pairs(torus, cox, tuple(ENGINES), include_non_ss)
        assert both_nodes == tuple(nodes)
        assert list(both) == sorted(both)
        for k, edges in enumerate(dense.values()):
            assert {ij: d[k] for ij, d in both.items() if d[k]} == edges


@pytest.mark.parametrize("build", (c2_datum, g2_datum), ids=("C2", "G2"))
def test_edges_equal_dense_loop_on_orders_four_and_six(build):
    assert_edges_equal_dense_loop(*build(3))


@pytest.mark.parametrize(
    "spec", ["sl2:5", "sl2:7", "u11:3", "u21:3", "sl_n:3:3", "sl_n:4:3"]
)
def test_edges_equal_dense_loop_on_presets(spec):
    preset = build_preset(spec)
    assert_edges_equal_dense_loop(preset.torus, preset.coxeter)


@given(random_datum())
@settings(max_examples=10, deadline=None)
def test_edges_equal_dense_loop_on_random_datums(datum):
    assert_edges_equal_dense_loop(*datum)


@pytest.mark.parametrize(
    "spec, nodes, calls", [("u21:4", 110, 210), ("sl_n:4:3", 41, 496)]
)
def test_only_twist_related_pairs_are_evaluated(monkeypatch, spec, nodes, calls):
    # a loop over every ordered pair would make nodes**2 calls: 12,100 and 1,681
    preset = build_preset(spec)
    counted = count_calls(monkeypatch, quiver_module, "marked_ext_dimension")
    quiver = build_quiver(preset.torus, preset.coxeter, include_non_ss=True)
    assert len(quiver.nodes) == nodes
    assert len(counted) == calls


@pytest.mark.parametrize("spec, torus_pairs", [("u21:4", 75), ("sl_n:4:3", 19)])
def test_torus_facts_are_read_once_per_pair_of_torus_characters(
    monkeypatch, spec, torus_pairs
):
    # the 210 and 496 evaluated pairs share these pairs of torus characters
    preset = build_preset(spec)
    counted = count_calls(monkeypatch, quiver_module, "torus_facts")
    build_quiver(preset.torus, preset.coxeter, include_non_ss=True)
    assert len(counted) == torus_pairs
    assert len({(args[2], args[3]) for args in counted}) == torus_pairs


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's arguments."""
    real = getattr(module, name)
    counted = []

    def counting(*args):
        counted.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return counted
