"""Extension quiver, block decomposition, and diagram-orbit packets."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .coxeter import AffineCoxeterDatum
from .formula import marked_ext_dimension, torus_facts
from .hecke import HeckeCharacter, enumerate_hecke_characters, format_spec
from .oracle import assemble_system, system_ext_dimension, torus_rows
from .torus import (
    DEFAULT_ENUMERATION_BOUND,
    Character,
    TorusDatum,
    compose_exponent_maps,
    identity_map,
    pair,
    twist,
    undefined_generator,
    vectors_equal,
)


class QuiverError(ValueError):
    pass


@dataclass(frozen=True)
class ExtQuiver:
    """Directed graph of nonzero extension dimensions between characters."""

    nodes: tuple[HeckeCharacter, ...]
    edges: dict[tuple[int, int], int] = field(default_factory=dict)


@dataclass(frozen=True)
class DiagramAutomorphism:
    """Relabeling of the diagram plus a compatible torus automorphism.

    ``perm`` must preserve the Coxeter matrix; ``torus_map`` is an exponent
    table (one image vector per generator) commuting with every
    per-reflection action through ``perm``.
    """

    perm: dict[str, str]
    torus_map: tuple[tuple[int, ...], ...]

    def validate(self, datum: TorusDatum, cox: AffineCoxeterDatum) -> None:
        labels = set(cox.labels)
        if set(self.perm) != labels or set(self.perm.values()) != labels:
            raise QuiverError("perm is not a permutation of the reflections")
        for s in cox.labels:
            for t in cox.labels:
                if cox.order(s, t) != cox.order(self.perm[s], self.perm[t]):
                    raise QuiverError(
                        "perm does not preserve the order m(%s,%s)" % (s, t)
                    )
        r = datum.rank
        if len(self.torus_map) != r or any(len(v) != r for v in self.torus_map):
            raise QuiverError("torus_map is not a %dx%d table" % (r, r))
        if undefined_generator(datum.orders, self.torus_map) is not None:
            raise QuiverError("torus_map is not a well-defined endomorphism")
        if not _is_bijective(datum, self.torus_map):
            raise QuiverError("torus_map is not invertible")
        for s in cox.labels:
            lhs = compose_exponent_maps(datum, self.torus_map, datum.action(s))
            rhs = compose_exponent_maps(
                datum, datum.action(self.perm[s]), self.torus_map
            )
            for a, b in zip(lhs, rhs):
                if not vectors_equal(datum, a, b):
                    raise QuiverError(
                        "torus_map does not intertwine the action at %s" % s
                    )


def compose_automorphisms(
    datum: TorusDatum, first: DiagramAutomorphism, second: DiagramAutomorphism
) -> DiagramAutomorphism:
    """The automorphism that applies ``first``, then ``second``."""
    perm = {s: second.perm[first.perm[s]] for s in first.perm}
    table = compose_exponent_maps(datum, second.torus_map, first.torus_map)
    return DiagramAutomorphism(perm, table)


def _is_bijective(datum: TorusDatum, table: Sequence[tuple[int, ...]]) -> bool:
    # small groups only: check injectivity on all elements
    if datum.group_order > DEFAULT_ENUMERATION_BOUND:
        raise QuiverError("group too large to validate torus_map")
    elements = itertools.product(*(range(d) for d in datum.orders))
    return len(set(compose_exponent_maps(datum, table, elements))) == datum.group_order


def identity_automorphism(datum: TorusDatum, cox: AffineCoxeterDatum) -> DiagramAutomorphism:
    return DiagramAutomorphism({s: s for s in cox.labels}, identity_map(datum.rank))


def apply_automorphism(
    datum: TorusDatum,
    cox: AffineCoxeterDatum,
    auto: DiagramAutomorphism,
    xi: HeckeCharacter,
) -> HeckeCharacter:
    """Image character: the torus character pulled back along the torus map.

    Since the map carries the action at s to the action at perm[s], the
    pulled-back character is admissible at s exactly when the original
    is at perm[s]; so the marked set is relabeled by the inverse perm.
    """
    return HeckeCharacter(_pull_back(auto, xi.torus_char), _relabel(auto)(xi.marked))


def _pull_back(auto: DiagramAutomorphism, chi: Character) -> Character:
    return Character(tuple(pair(chi, row) for row in auto.torus_map))


def _relabel(auto: DiagramAutomorphism) -> Callable[[frozenset[str]], frozenset[str]]:
    inverse = {t: s for s, t in auto.perm.items()}
    return lambda marked: frozenset(inverse[t] for t in marked)


def _formula(datum: TorusDatum, cox: AffineCoxeterDatum, chi1, chi2):
    facts = torus_facts(datum, cox, chi1, chi2)
    return lambda xi1, xi2: marked_ext_dimension(cox, facts, xi1.marked, xi2.marked).dimension


def _oracle(datum: TorusDatum, cox: AffineCoxeterDatum, chi1, chi2):
    (killed, c_values), p = torus_rows(datum, cox, chi1, chi2), datum.residue_char
    return lambda xi1, xi2: system_ext_dimension(
        assemble_system(cox, p, killed, c_values, xi1, xi2), cox, xi1, xi2
    )


# engine -> (pair of torus characters -> (pair of nodes over it -> dimension))
_ENGINES = {"formula": _formula, "oracle": _oracle}


def evaluate_pairs(
    datum: TorusDatum,
    cox: AffineCoxeterDatum,
    engines: Sequence[str] = ("formula",),
    include_non_ss: bool = False,
    bound: int = DEFAULT_ENUMERATION_BOUND,
) -> tuple[tuple[HeckeCharacter, ...], dict[tuple[int, int], tuple[int, ...]]]:
    """The nodes, and each engine's dimension on their twist-related ordered pairs.

    A pair (i, j) is evaluated only when the torus character of node j is
    a twist of that of node i by some reflection.  Any other pair has
    dimension 0 in both engines: the torus commutation relation kills
    every structure constant, and no coboundary is subtracted.  A marked
    reflection fixes its torus character (s(g) - g lies in the subgroup
    the character is trivial on), so equal torus characters that no
    reflection fixes both carry the empty marked set.

    Each engine reads its torus-level facts once per pair of torus
    characters, and evaluates the pairs of nodes over it from those.
    Pairs come in ascending (i, j) order.
    """
    if not set(engines) <= _ENGINES.keys():
        raise QuiverError("engine must be 'formula' or 'oracle'")
    nodes = tuple(
        enumerate_hecke_characters(
            datum, cox, only_supersingular=not include_non_ss, bound=bound
        )
    )
    by_char: dict[Character, list[int]] = {}
    for j, xi in enumerate(nodes):
        by_char.setdefault(xi.torus_char, []).append(j)
    dims: dict[tuple[int, int], tuple[int, ...]] = {}
    for chi1, firsts in by_char.items():
        for chi2 in {twist(datum, chi1, s) for s in cox.labels} & by_char.keys():
            evaluators = [_ENGINES[name](datum, cox, chi1, chi2) for name in engines]
            for i, j in itertools.product(firsts, by_char[chi2]):
                dims[(i, j)] = tuple(f(nodes[i], nodes[j]) for f in evaluators)
    return nodes, dict(sorted(dims.items()))


def build_quiver(
    datum: TorusDatum,
    cox: AffineCoxeterDatum,
    engine: str = "formula",
    include_non_ss: bool = False,
    bound: int = DEFAULT_ENUMERATION_BOUND,
) -> ExtQuiver:
    """All ordered pairs with nonzero extension dimension (see ``evaluate_pairs``)."""
    nodes, dims = evaluate_pairs(datum, cox, (engine,), include_non_ss, bound)
    return ExtQuiver(nodes, {ij: d for ij, (d,) in dims.items() if d > 0})


def blocks(q: ExtQuiver) -> list[list[int]]:
    """Connected components of the underlying undirected graph.

    Components are ordered by their least node index; node indices inside a
    component are sorted.
    """
    return _components(len(q.nodes), q.edges)


def _components(n: int, links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Union-find over 0..n-1; parts sorted inside and by least member."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in links:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]


def l_packets(
    datum: TorusDatum,
    cox: AffineCoxeterDatum,
    autos: Sequence[DiagramAutomorphism],
    nodes: Sequence[HeckeCharacter],
) -> list[list[int]]:
    """Orbits of the node set under the supplied automorphism group."""
    for auto in autos:
        auto.validate(datum, cox)
    _check_closure(datum, autos)
    # nodes by torus character, then by marked set: each automorphism pulls
    # back and looks up each torus character once, not once per node
    index: dict[Character, dict[frozenset[str], int]] = {}
    for i, xi in enumerate(nodes):
        index.setdefault(xi.torus_char, {})[xi.marked] = i
    links = []
    for auto in autos:
        relabel = _relabel(auto)
        for chi, members in index.items():
            image_chi = _pull_back(auto, chi)
            targets = index.get(image_chi, {})
            for marked, i in members.items():
                j = targets.get(relabel(marked))
                if j is None:
                    image = HeckeCharacter(image_chi, relabel(marked))
                    raise QuiverError(
                        "automorphism image %s left the node set" % format_spec(image)
                    )
                links.append((i, j))
    return _components(len(nodes), links)


def _check_closure(datum: TorusDatum, autos: Sequence[DiagramAutomorphism]) -> None:
    def key(auto: DiagramAutomorphism):
        table = tuple(tuple(v % d for v, d in zip(row, datum.orders)) for row in auto.torus_map)
        return (tuple(sorted(auto.perm.items())), table)

    keys = {key(a) for a in autos}
    for a in autos:
        for b in autos:
            if key(compose_automorphisms(datum, a, b)) not in keys:
                raise QuiverError("automorphism list is not closed under composition")


@dataclass(frozen=True)
class PartitionComparison:
    equal: bool
    blocks_meeting_multiple_packets: tuple[tuple[int, ...], ...]
    packets_split_across_blocks: tuple[tuple[int, ...], ...]


def compare_partitions(
    block_partition: Sequence[Sequence[int]],
    packet_partition: Sequence[Sequence[int]],
) -> PartitionComparison:
    """Report agreement plus every witness of disagreement."""
    block_nodes = sorted(i for part in block_partition for i in part)
    packet_nodes = sorted(i for part in packet_partition for i in part)
    if block_nodes != packet_nodes:
        raise QuiverError("partitions cover different node sets")
    packet_of = {i: k for k, part in enumerate(packet_partition) for i in part}
    block_of = {i: k for k, part in enumerate(block_partition) for i in part}
    mixed_blocks = tuple(
        tuple(part)
        for part in block_partition
        if len({packet_of[i] for i in part}) > 1
    )
    split_packets = tuple(
        tuple(part)
        for part in packet_partition
        if len({block_of[i] for i in part}) > 1
    )
    canon = lambda parts: sorted(tuple(sorted(p)) for p in parts)
    return PartitionComparison(
        equal=canon(block_partition) == canon(packet_partition),
        blocks_meeting_multiple_packets=mixed_blocks,
        packets_split_across_blocks=split_packets,
    )


def to_dot(
    q: ExtQuiver, block_partition: Sequence[Sequence[int]] | None = None
) -> str:
    """Graphviz rendering; blocks become clusters when supplied."""
    lines = ["digraph ext_quiver {"]
    if block_partition is None:
        for i, xi in enumerate(q.nodes):
            lines.append('  n%d [label="%s"];' % (i, format_spec(xi)))
    else:
        for k, part in enumerate(block_partition):
            lines.append("  subgraph cluster_%d {" % k)
            lines.append('    label="block %d";' % k)
            for i in part:
                lines.append('    n%d [label="%s"];' % (i, format_spec(q.nodes[i])))
            lines.append("  }")
    for (i, j) in sorted(q.edges):
        lines.append('  n%d -> n%d [label="%d"];' % (i, j, q.edges[(i, j)]))
    lines.append("}")
    return "\n".join(lines) + "\n"
