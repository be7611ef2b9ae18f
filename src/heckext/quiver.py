"""Extension quiver, block decomposition, and diagram-orbit packets."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .coxeter import AffineCoxeterDatum
from .formula import ext_dimension
from .hecke import HeckeCharacter, enumerate_hecke_characters, format_spec
from .oracle import oracle_ext_dimension
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
        if set(self.perm) != set(cox.labels) or set(self.perm.values()) != set(
            cox.labels
        ):
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
    chi = Character(tuple(pair(xi.torus_char, row) for row in auto.torus_map))
    inverse = {t: s for s, t in auto.perm.items()}
    marked = frozenset(inverse[t] for t in xi.marked)
    return HeckeCharacter(chi, marked)


def build_quiver(
    datum: TorusDatum,
    cox: AffineCoxeterDatum,
    engine: str = "formula",
    include_non_ss: bool = False,
    bound: int = DEFAULT_ENUMERATION_BOUND,
) -> ExtQuiver:
    """All ordered pairs with nonzero extension dimension.

    Only pairs whose second torus character is a twist of the first by
    some reflection are evaluated.  Any other pair has dimension 0 in
    both engines: the torus commutation relation kills every structure
    constant, and no coboundary is subtracted.  A marked reflection fixes
    its torus character (s(g) - g lies in the subgroup the character is
    trivial on), so equal torus characters that no reflection fixes both
    carry the empty marked set.
    """
    if engine not in ("formula", "oracle"):
        raise QuiverError("engine must be 'formula' or 'oracle'")
    nodes = tuple(
        enumerate_hecke_characters(
            datum, cox, only_supersingular=not include_non_ss, bound=bound
        )
    )
    by_char: dict[Character, list[int]] = {}
    for j, xi in enumerate(nodes):
        by_char.setdefault(xi.torus_char, []).append(j)
    edges: dict[tuple[int, int], int] = {}
    for i, xi1 in enumerate(nodes):
        twisted = {twist(datum, xi1.torus_char, s) for s in cox.labels}
        for j in sorted(j for chi in twisted for j in by_char.get(chi, ())):
            xi2 = nodes[j]
            if engine == "formula":
                dim = ext_dimension(datum, cox, xi1, xi2).dimension
            else:
                dim = oracle_ext_dimension(datum, cox, xi1, xi2)
            if dim > 0:
                edges[(i, j)] = dim
    return ExtQuiver(nodes, edges)


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
    _check_closure(datum, cox, autos)
    index = {xi: i for i, xi in enumerate(nodes)}
    links = []
    for i, xi in enumerate(nodes):
        for auto in autos:
            image = apply_automorphism(datum, cox, auto, xi)
            if image not in index:
                raise QuiverError(
                    "automorphism image %s left the node set" % format_spec(image)
                )
            links.append((i, index[image]))
    return _components(len(nodes), links)


def _check_closure(
    datum: TorusDatum,
    cox: AffineCoxeterDatum,
    autos: Sequence[DiagramAutomorphism],
) -> None:
    def key(auto: DiagramAutomorphism):
        table = tuple(
            tuple(v % d for v, d in zip(row, datum.orders))
            for row in auto.torus_map
        )
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
    packet_of = {}
    for k, part in enumerate(packet_partition):
        for i in part:
            packet_of[i] = k
    block_of = {}
    for k, part in enumerate(block_partition):
        for i in part:
            block_of[i] = k
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
