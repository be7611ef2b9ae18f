"""Untimed correctness pass: an independent reference and output parsers.

The reference answer for an ordered pair is ``oracle_ext_dimension``;
every kernel basis vector of the pair's constraint system is also
substituted back into the full 2x2 identities with ``verify_solution``.
The CLI's TSV, DOT, ``blocks`` and ``ext`` output is parsed back here,
with its own character-spec parser and its own connected components,
and compared with the reference.

Two outcomes are kept apart.  A closed-form answer that differs from the
reference is counted in ``Tally.wrong`` (the ``wrong_share`` metric), so
known engine defects stay visible as a number.  Anything else that is
off -- malformed output, an oracle answer that differs from the
reference, a kernel vector that fails verification, a verdict or
partition that contradicts the printed numbers, a documented error exit
on valid input -- is a problem, and any problem makes the run incorrect.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

TSV_HEADER = ["# heckext-table v1", "# columns: from\tto\tdimension"]
TSV_HEADER_ORACLE = [
    "# heckext-table v1",
    "# columns: from\tto\tdimension\toracle\tverdict",
]
DOT_NODE = re.compile(r'^\s*n(\d+) \[label="([^"]*)"\];$')
DOT_EDGE = re.compile(r'^\s*n(\d+) -> n(\d+) \[label="(\d+)"\];$')

Key = tuple[tuple[Fraction, ...], frozenset[str]]


def spec_key(text: str) -> Key:
    """Parse "phase,phase;label,label" without going through heckext."""
    phases, sep, marks = text.strip().partition(";")
    if not sep or not phases:
        raise ValueError("not a character spec: %r" % text)
    return (
        tuple(Fraction(p) for p in phases.split(",")),
        frozenset(m for m in marks.split(",") if m),
    )


def node_key(xi) -> Key:
    return (tuple(xi.torus_char.phases), frozenset(xi.marked))


@dataclass
class Tally:
    """Answered pairs, closed-form answers that differ from the reference,
    and every other problem found."""

    answered: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)
    witnesses: list[str] = field(default_factory=list)

    def problem(self, text: str) -> None:
        self.problems.append(text)

    def answer(self, what: str, given: int, expected: int) -> None:
        self.answered += 1
        if given != expected:
            self.wrong += 1
            if len(self.witnesses) < 5:
                self.witnesses.append(
                    "%s: answered %d, reference %d" % (what, given, expected)
                )


class Reference:
    """Oracle dimensions, and kernel-vector verification, for given pairs."""

    def __init__(self, torus, cox, nodes, pairs, keep_rows: bool = False):
        from heckext.oracle import (
            build_system,
            kernel_basis,
            oracle_ext_dimension,
            verify_solution,
        )

        self.nodes = list(nodes)
        self.index = {node_key(xi): i for i, xi in enumerate(self.nodes)}
        self.dims: dict[tuple[int, int], int] = {}
        self.rows: dict[tuple[int, int], list[tuple[str, tuple[int, ...]]]] = {}
        self.unverified: list[str] = []
        for i, j in pairs:
            xi1, xi2 = self.nodes[i], self.nodes[j]
            self.dims[(i, j)] = oracle_ext_dimension(torus, cox, xi1, xi2)
            system = build_system(torus, cox, xi1, xi2)
            for vec in kernel_basis(system):
                if not verify_solution(
                    torus, cox, xi1, xi2, dict(zip(system.unknowns, vec))
                ):
                    self.unverified.append("pair %d->%d vector %r" % (i, j, vec))
            if keep_rows:
                self.rows[(i, j)] = [(label, c) for c, label in system.rows]

    def lookup(self, spec: str, tally: Tally) -> int | None:
        try:
            i = self.index.get(spec_key(spec))
        except (ValueError, ZeroDivisionError):
            i = None
        if i is None:
            tally.problem("unknown character spec %r" % spec)
        return i

    def report_unverified(self, tally: Tally) -> None:
        for text in self.unverified:
            tally.problem("kernel vector fails verify_solution: %s" % text)


def check_table(text: str, ref: Reference, tally: Tally, oracle: bool) -> dict | None:
    """Check one ``table`` TSV; return its closed-form answers by pair."""
    lines = text.splitlines()
    header = TSV_HEADER_ORACLE if oracle else TSV_HEADER
    if lines[:2] != header:
        tally.problem("table header %r" % lines[:2])
        return None
    answers: dict[tuple[int, int], int] = {}
    oracle_answers: dict[tuple[int, int], int] = {}
    for line in lines[2:]:
        fields = line.split("\t")
        if len(fields) != (5 if oracle else 3):
            tally.problem("table row %r" % line)
            return None
        i, j = ref.lookup(fields[0], tally), ref.lookup(fields[1], tally)
        if i is None or j is None:
            return None
        if (i, j) in answers:
            tally.problem("table row repeated: %r" % line)
        try:
            dims = [int(v) for v in fields[2 : 4 if oracle else 3]]
        except ValueError:
            tally.problem("table row %r" % line)
            return None
        answers[(i, j)] = dims[0]
        if oracle:
            oracle_answers[(i, j)] = dims[1]
            verdict = "MATCH" if dims[0] == dims[1] else "MISMATCH"
            if fields[4] != verdict:
                tally.problem("verdict %s for %r" % (fields[4], line))
        if max(dims) <= 0:
            tally.problem("table lists a zero pair: %r" % line)
    for (i, j), expected in ref.dims.items():
        what = "%d->%d" % (i, j)
        if oracle and oracle_answers.get((i, j), 0) != expected:
            tally.problem("oracle column %s differs from the reference" % what)
        tally.answer(what, answers.get((i, j), 0), expected)
    return {k: v for k, v in answers.items() if v > 0}


def check_dot(text: str, ref: Reference, answers: dict, tally: Tally) -> None:
    """The DOT rendering must carry exactly the TSV's nonzero answers."""
    ids: dict[int, int] = {}
    edges: dict[tuple[int, int], int] = {}
    lines = text.splitlines()
    if lines[:1] != ["digraph ext_quiver {"] or lines[-1:] != ["}"]:
        tally.problem("DOT output is not one digraph")
        return
    for line in lines[1:-1]:
        node, edge = DOT_NODE.match(line), DOT_EDGE.match(line)
        if node:
            i = ref.lookup(node.group(2), tally)
            if i is not None:
                ids[int(node.group(1))] = i
        elif edge:
            a, b = int(edge.group(1)), int(edge.group(2))
            if a not in ids or b not in ids:
                tally.problem("DOT edge to an undeclared node: %r" % line)
                continue
            edges[(ids[a], ids[b])] = int(edge.group(3))
        else:
            tally.problem("DOT line %r" % line)
    if sorted(ids.values()) != list(range(len(ref.nodes))):
        tally.problem("DOT nodes do not match the character set")
    if edges != answers:
        tally.problem("DOT edges differ from the TSV answers")


def components(nodes: list[int], edges) -> list[frozenset[int]]:
    """Connected components of the undirected graph on ``nodes``."""
    adjacent: dict[int, set[int]] = {i: set() for i in nodes}
    for i, j in edges:
        if i in adjacent and j in adjacent:
            adjacent[i].add(j)
            adjacent[j].add(i)
    seen: set[int] = set()
    out = []
    for start in nodes:
        if start in seen:
            continue
        part, todo = set(), [start]
        while todo:
            k = todo.pop()
            if k not in part:
                part.add(k)
                todo.extend(adjacent[k] - part)
        seen |= part
        out.append(frozenset(part))
    return out


def check_blocks(
    text: str, ref: Reference, ss_nodes: list[int], answers: dict, tally: Tally
) -> None:
    """Blocks must be the components of the supersingular answers; packets,
    when printed, must partition the same nodes and match the verdict."""
    parts: dict[str, list[frozenset[int]]] = {"block": [], "packet": []}
    verdict = None
    for line in text.splitlines():
        head, _, rest = line.partition(": ")
        kind = head.split(" ")[0]
        if kind in parts and head.split(" ")[-1].isdigit():
            members = [ref.lookup(s, tally) for s in rest.split(", ")]
            parts[kind].append(frozenset(members))
        elif head == "comparison":
            verdict = rest
    expected = set(components(ss_nodes, answers))
    if set(parts["block"]) != expected or len(parts["block"]) != len(expected):
        tally.problem("blocks differ from the components of the table answers")
    if verdict is not None:
        packets = parts["packet"]
        if sorted(i for p in packets for i in p) != sorted(ss_nodes):
            tally.problem("packets do not partition the supersingular characters")
        equal = set(packets) == expected
        if verdict != ("EQUAL" if equal else "NOT EQUAL"):
            tally.problem("comparison verdict %r contradicts the partitions" % verdict)


def check_ext(
    text: str, ref: Reference, pair: tuple[int, int], tally: Tally
) -> None:
    """One ``ext --oracle --explain`` answer against the reference."""
    fields: dict[str, str] = {}
    rows: list[tuple[str, tuple[int, ...]]] = []
    in_rows = False
    for line in text.splitlines():
        if in_rows:
            label, *coeffs = line.split()
            rows.append((label, tuple(int(c) for c in coeffs)))
            continue
        key, sep, value = line.partition(":")
        if not sep:
            continue
        if key.startswith("constraint rows"):
            in_rows = True
        else:
            fields[key.strip()] = value.strip()
    i, j = pair
    expected = ref.dims[pair]
    try:
        if (
            spec_key(fields["from"]) != node_key(ref.nodes[i])
            or spec_key(fields["to"]) != node_key(ref.nodes[j])
        ):
            tally.problem("ext %d->%d echoed another pair" % pair)
        closed = int(fields["dimension (closed form)"])
        oracle = int(fields["dimension (oracle)"])
        verdict = fields["verdict"]
    except (KeyError, ValueError) as exc:
        tally.problem("ext %d->%d output unreadable: %s" % (i, j, exc))
        return
    if oracle != expected:
        tally.problem("ext %d->%d oracle %d, reference %d" % (i, j, oracle, expected))
    if verdict != ("MATCH" if closed == oracle else "MISMATCH"):
        tally.problem("ext %d->%d verdict %s" % (i, j, verdict))
    if rows != ref.rows[pair]:
        tally.problem("ext %d->%d constraint rows differ from build_system" % pair)
    tally.answer("%d->%d" % pair, closed, expected)
