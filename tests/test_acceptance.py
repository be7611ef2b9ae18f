"""Acceptance suite: one test per criterion, each printing a verdict line.

Criterion 5 compares the closed form against the brute-force engine on
every ordered pair of every worked preset.  Criterion 8 checks every
kernel vector of the brute-force engine against the forced zeros and the
tying lemma: the constants of a one-sided marked group are tied along
each pair of finite braid order, so they take one value per connected
component of the group in the finite-order graph, and pairs of infinite
order tie nothing.  The lemma is derived from the 2x2 braid products of
``oracle.SymMatrix`` in the docstring of ``formula._live_components``;
this suite builds the components from ``cox.finite_pairs()`` on its own,
so the check does not lean on the closed form.
"""

import functools
import itertools
import subprocess
import sys

from heckext.formula import ext_dimension
from heckext.hecke import (
    enumerate_hecke_characters,
    format_spec,
    hecke_character,
    is_supersingular,
    parse_spec,
)
from heckext.oracle import (
    build_system,
    coboundary_vector,
    in_kernel,
    kernel_basis,
    oracle_ext_dimension,
    verify_solution,
)
from heckext.presets import build_preset
from heckext.quiver import (
    blocks,
    build_quiver,
    compare_partitions,
    l_packets,
)
from heckext.torus import character, s_lambda, twist

PRESET_SPECS = (
    "sl2:5",
    "sl2:7",
    "sl_n:3:2",
    "sl_n:3:3",
    "u21:2",
    "u21:3",
    "u11:2",
    "u11:3",
    "u11:4",
    "sl_n:4:3",
)


@functools.lru_cache(maxsize=None)
def preset(spec):
    return build_preset(spec)


@functools.lru_cache(maxsize=None)
def all_pairs(spec):
    """Every ordered pair of valid characters with both engine answers."""
    p = preset(spec)
    chars = enumerate_hecke_characters(p.torus, p.coxeter)
    out = []
    for xi1, xi2 in itertools.product(chars, chars):
        formula_dim = ext_dimension(p.torus, p.coxeter, xi1, xi2).dimension
        oracle_dim = oracle_ext_dimension(p.torus, p.coxeter, xi1, xi2)
        out.append((xi1, xi2, formula_dim, oracle_dim))
    return tuple(out)


def verdict(number, ok, detail):
    line = "criterion %d: %s — %s" % (number, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def both_engines(spec, xi1, xi2):
    p = preset(spec)
    f = ext_dimension(p.torus, p.coxeter, xi1, xi2).dimension
    o = oracle_ext_dimension(p.torus, p.coxeter, xi1, xi2)
    return f, o


def test_criterion_1_rank_one_split_example():
    failures = []
    for q in (5, 7):
        spec = "sl2:%d" % q
        p = preset(spec)
        for r in range(1, q - 1):
            chi_r = character(p.torus, ["%d/%d" % (r, q - 1)])
            chi_c = character(p.torus, ["%d/%d" % (q - 1 - r, q - 1)])
            xi1 = hecke_character(p.torus, p.coxeter, chi_r, set())
            xi2 = hecke_character(p.torus, p.coxeter, chi_c, set())
            if both_engines(spec, xi1, xi2) != (2, 2):
                failures.append((spec, r))
        trivial = character(p.torus, [0] * p.torus.rank)
        for i, j in itertools.product(("s0", "s1"), repeat=2):
            xi1 = hecke_character(p.torus, p.coxeter, trivial, {i})
            xi2 = hecke_character(p.torus, p.coxeter, trivial, {j})
            want = 1 if i != j else 0
            if both_engines(spec, xi1, xi2) != (want, want):
                failures.append((spec, i, j))
    verdict(1, not failures, "rank-one split dimensions, both engines (%s)"
            % (failures or "all exact"))


def test_criterion_2_triangle_disjoint_marks():
    failures = []
    labels = ("s1", "s2", "s3")
    subsets = [
        frozenset(c)
        for size in (1, 2)
        for c in itertools.combinations(labels, size)
    ]
    for spec in ("sl_n:3:2", "sl_n:3:3"):
        p = preset(spec)
        trivial = character(p.torus, [0] * p.torus.rank)
        for i1, i2 in itertools.product(subsets, subsets):
            if i1 & i2 or not i1 or not i2:
                continue
            # all orders are 3, so no commuting cross-pair can occur
            xi1 = hecke_character(p.torus, p.coxeter, trivial, i1)
            xi2 = hecke_character(p.torus, p.coxeter, trivial, i2)
            if both_engines(spec, xi1, xi2) != (1, 1):
                failures.append((spec, sorted(i1), sorted(i2)))
    verdict(2, not failures, "triangle disjoint marked sets all give 1 (%s)"
            % (failures or "all exact"))


def test_criterion_3_u21_proposition():
    failures = []
    for q in (2, 3):
        spec = "u21:%d" % q
        p = preset(spec)
        trivial = character(p.torus, [0] * p.torus.rank)
        for i, j in itertools.product(("s1", "s2"), repeat=2):
            xi1 = hecke_character(p.torus, p.coxeter, trivial, {i})
            xi2 = hecke_character(p.torus, p.coxeter, trivial, {j})
            want = 1 if i != j else 0
            if both_engines(spec, xi1, xi2) != (want, want):
                failures.append((spec, "trivial", i, j))
        chars = enumerate_hecke_characters(p.torus, p.coxeter)
        torus_chars = sorted(
            {xi.torus_char for xi in chars}, key=lambda c: c.phases
        )
        for chi in torus_chars:
            sl = s_lambda(p.torus, p.coxeter.labels, chi)
            if sl == {"s2"}:  # hybrid
                for m1, m2 in itertools.product((frozenset(), frozenset({"s2"})), repeat=2):
                    xi1 = hecke_character(p.torus, p.coxeter, chi, m1)
                    xi2 = hecke_character(p.torus, p.coxeter, chi, m2)
                    if both_engines(spec, xi1, xi2) != (1, 1):
                        failures.append((spec, "hybrid", sorted(m1), sorted(m2)))
            elif not sl:  # regular
                xi1 = hecke_character(p.torus, p.coxeter, chi, set())
                for chi2 in torus_chars:
                    if s_lambda(p.torus, p.coxeter.labels, chi2):
                        continue
                    xi2 = hecke_character(p.torus, p.coxeter, chi2, set())
                    want = 2 if chi2 == twist(p.torus, chi, "s1") else 0
                    if both_engines(spec, xi1, xi2) != (want, want):
                        failures.append((spec, "regular", chi.phases, chi2.phases))
    verdict(3, not failures, "rank-two unitary proposition (%s)"
            % (failures or "all exact"))


def test_criterion_4_u11_proposition():
    failures = []
    for q in (2, 3, 4):
        spec = "u11:%d" % q
        p = preset(spec)
        chars = enumerate_hecke_characters(p.torus, p.coxeter)
        torus_chars = sorted(
            {xi.torus_char for xi in chars}, key=lambda c: c.phases
        )
        for chi in torus_chars:
            sl = s_lambda(p.torus, p.coxeter.labels, chi)
            if sl:  # chi^{q+1} = id: both reflections admissible
                for i, j in itertools.product(("s1", "s2"), repeat=2):
                    xi1 = hecke_character(p.torus, p.coxeter, chi, {i})
                    xi2 = hecke_character(p.torus, p.coxeter, chi, {j})
                    want = 1 if i != j else 0
                    if both_engines(spec, xi1, xi2) != (want, want):
                        failures.append((spec, "marked", chi.phases, i, j))
            else:  # regular
                xi1 = hecke_character(p.torus, p.coxeter, chi, set())
                for chi2 in torus_chars:
                    if s_lambda(p.torus, p.coxeter.labels, chi2):
                        continue
                    xi2 = hecke_character(p.torus, p.coxeter, chi2, set())
                    want = 2 if chi2 == twist(p.torus, chi, "s1") else 0
                    if both_engines(spec, xi1, xi2) != (want, want):
                        failures.append((spec, "regular", chi.phases, chi2.phases))
    verdict(4, not failures, "rank-one unitary proposition (%s)"
            % (failures or "all exact"))


def test_criterion_5_engine_agreement():
    mismatches = []
    for spec in PRESET_SPECS:
        for xi1, xi2, formula_dim, oracle_dim in all_pairs(spec):
            if formula_dim != oracle_dim:
                mismatches.append(
                    "%s: (%s) -> (%s): formula %d, oracle %d"
                    % (spec, format_spec(xi1), format_spec(xi2),
                       formula_dim, oracle_dim)
                )
    detail = (
        "zero mismatches"
        if not mismatches
        else "%d mismatching ordered pairs:\n  %s"
        % (len(mismatches), "\n  ".join(mismatches))
    )
    verdict(5, not mismatches, detail)


def test_criterion_6_coboundary_in_kernel():
    failures = []
    for spec in PRESET_SPECS:
        p = preset(spec)
        chars = enumerate_hecke_characters(p.torus, p.coxeter)
        for xi1, xi2 in itertools.product(chars, chars):
            if xi1.torus_char != xi2.torus_char or xi1.marked == xi2.marked:
                continue
            system = build_system(p.torus, p.coxeter, xi1, xi2)
            cob = coboundary_vector(
                p.coxeter, xi1, xi2, p.torus.residue_char
            )
            if not in_kernel(system, cob):
                failures.append((spec, format_spec(xi1), format_spec(xi2)))
    verdict(6, not failures, "coboundary always solves the system (%s)"
            % (failures or "100% pass"))


def test_criterion_7_kernel_vectors_verify():
    failures = []
    for spec in PRESET_SPECS:
        p = preset(spec)
        chars = enumerate_hecke_characters(p.torus, p.coxeter)
        for xi1, xi2 in itertools.product(chars, chars):
            system = build_system(p.torus, p.coxeter, xi1, xi2)
            for vec in kernel_basis(system):
                assignment = dict(zip(system.unknowns, vec))
                if not verify_solution(p.torus, p.coxeter, xi1, xi2, assignment):
                    failures.append((spec, format_spec(xi1), format_spec(xi2)))
    verdict(7, not failures, "kernel vectors satisfy the full identities (%s)"
            % (failures or "100% pass"))


def finite_order_components(cox, group):
    """Split ``group`` into components joined along finite-order pairs."""
    linked = {frozenset((s, t)) for s, t, _ in cox.finite_pairs()}
    components = []
    for s in sorted(group):
        joined = [c for c in components if any(frozenset((s, t)) in linked for t in c)]
        components = [c for c in components if c not in joined]
        components.append(set().union({s}, *joined))
    return components


def structure_breaks(datum, cox, xi1, xi2, a):
    """Every zero or tying rule that the assignment ``a`` breaks."""
    prime = datum.residue_char
    both = xi1.marked & xi2.marked
    sl1 = s_lambda(datum, cox.labels, xi1.torus_char)
    breaks = []
    for s in cox.labels:
        marked1, marked2 = s in xi1.marked, s in xi2.marked
        if marked1 and marked2 and a[s] % prime:
            breaks.append("a_%s != 0 on a doubly marked reflection" % s)
        elif not marked1 and not marked2 and s in sl1 and a[s] % prime:
            breaks.append("a_%s != 0 off the marks inside S_lambda1" % s)
        elif not marked1 and marked2 and s not in sl1 and a[s] % prime:
            breaks.append("a_%s != 0 on an inadmissible second mark" % s)
    for group in (xi1.marked - both, xi2.marked - both):
        for component in finite_order_components(cox, group):
            if len({a[s] % prime for s in component}) > 1:
                breaks.append("untied constants on %s" % sorted(component))
    return breaks


def test_structure_breaks_ties_only_finite_order_edges():
    p = preset("sl_n:3:2")
    xi1 = parse_spec(p.torus, p.coxeter, "0,0;s1,s2")
    xi2 = parse_spec(p.torus, p.coxeter, "0,0;")
    untied = {"s1": 1, "s2": 0, "s3": 0}
    assert structure_breaks(p.torus, p.coxeter, xi1, xi2, untied) == [
        "untied constants on ['s1', 's2']"
    ]
    untied["s3"] = 1
    assert structure_breaks(p.torus, p.coxeter, xi1, xi2, untied) == [
        "a_s3 != 0 off the marks inside S_lambda1",
        "untied constants on ['s1', 's2']",
    ]
    p = preset("sl2:5")
    xi1 = parse_spec(p.torus, p.coxeter, "0;")
    xi2 = parse_spec(p.torus, p.coxeter, "0;s0,s1")
    assert structure_breaks(p.torus, p.coxeter, xi1, xi2, {"s0": 1, "s1": 0}) == []


def test_criterion_8_forced_zero_and_tying():
    failures = []
    for spec in PRESET_SPECS:
        p = preset(spec)
        chars = enumerate_hecke_characters(p.torus, p.coxeter)
        for xi1, xi2 in itertools.product(chars, chars):
            system = build_system(p.torus, p.coxeter, xi1, xi2)
            for vec in kernel_basis(system):
                a = dict(zip(system.unknowns, vec))
                breaks = structure_breaks(p.torus, p.coxeter, xi1, xi2, a)
                if breaks:
                    failures.append(
                        "%s: (%s) -> (%s): %s"
                        % (spec, format_spec(xi1), format_spec(xi2),
                           "; ".join(breaks))
                    )
    detail = (
        "100% pass"
        if not failures
        else "%d kernel vectors break the zero/tying structure:\n  %s"
        % (len(failures), "\n  ".join(failures))
    )
    verdict(8, not failures, detail)


def test_criterion_9_blocks_vs_packets():
    failures = []
    for q in (2, 3, 4):
        p = preset("u11:%d" % q)
        quiver = build_quiver(p.torus, p.coxeter)
        packets = l_packets(p.torus, p.coxeter, p.automorphisms, quiver.nodes)
        if not compare_partitions(blocks(quiver), packets).equal:
            failures.append("u11:%d not EQUAL" % q)
    p = preset("sl_n:3:2")
    quiver = build_quiver(p.torus, p.coxeter)
    packets = l_packets(p.torus, p.coxeter, p.automorphisms, quiver.nodes)
    outcome = compare_partitions(blocks(quiver), packets)
    if outcome.equal:
        failures.append("sl_n:3:2 unexpectedly EQUAL")
    else:
        index = {format_spec(xi): i for i, xi in enumerate(quiver.nodes)}
        a, b = index["0,0;s1"], index["0,0;s2,s3"]
        block_of = {i: k for k, part in enumerate(blocks(quiver)) for i in part}
        packet_of = {i: k for k, part in enumerate(packets) for i in part}
        if block_of[a] != block_of[b]:
            failures.append("witness characters not in one block")
        if packet_of[a] == packet_of[b]:
            failures.append("witness characters not in distinct packets")
    verdict(9, not failures, "block/packet comparison (%s)"
            % (failures or "as predicted"))


def test_criterion_10_table_determinism():
    args = [
        sys.executable, "-m", "heckext.cli",
        "table", "--preset", "u11:3", "--oracle",
    ]
    runs = [subprocess.run(args, capture_output=True, check=True) for _ in range(2)]
    ok = runs[0].stdout == runs[1].stdout and runs[0].stdout
    verdict(10, bool(ok), "repeated table runs are byte-identical")
