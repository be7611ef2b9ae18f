"""Command-line front end.

Subcommands: ``presets`` (list/show the shipped group datums),
``validate`` (check a JSON datum document), ``ext`` (one ordered pair),
``table`` (all nonzero pairs, TSV or DOT) and ``blocks`` (connected
components, optionally compared with diagram-orbit packets).

Exit codes: 0 success, 1 validation failure, 2 parse error, 3 resource
bound exceeded, 4 engine mismatch under --oracle --strict.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from .coxeter import AffineCoxeterDatum
from .document import (
    DocumentError,
    DocumentParseError,
    dump_document,
    load_document,
)
from .formula import ext_dimension
from .hecke import (
    HeckeCharacterError,
    InadmissibleMarkError,
    format_spec,
    parse_spec,
)
from .oracle import build_system, system_ext_dimension
from .presets import PRESET_BUILDERS, PresetError, build_preset
from .quiver import (
    ExtQuiver,
    blocks,
    build_quiver,
    compare_partitions,
    evaluate_pairs,
    l_packets,
    identity_automorphism,
    to_dot,
)
from .torus import (
    DEFAULT_ENUMERATION_BOUND,
    EnumerationBoundError,
    TorusDatum,
    TorusError,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_BOUND = 3
EXIT_MISMATCH = 4

TSV_HEADER = "# heckext-table v1\n# columns: from\tto\tdimension"
BOUND_HELP = (
    "largest torus group order to enumerate (default %(default)s); "
    "a larger group exits 3"
)
STRICT_HELP = "with --oracle, exit 4 when the engines disagree"
TSV_HEADER_ORACLE = TSV_HEADER + "\toracle\tverdict"


class CliError(Exception):
    """Command line that names no datum source."""


# first match wins, so a subclass comes before its base; QuiverError and
# TheoryMismatchError are left out: they mean a broken internal invariant
EXIT_CODES = (
    (DocumentParseError, EXIT_PARSE),
    (DocumentError, EXIT_INVALID),
    (PresetError, EXIT_PARSE),
    (InadmissibleMarkError, EXIT_INVALID),
    (HeckeCharacterError, EXIT_PARSE),
    (TorusError, EXIT_INVALID),
    (EnumerationBoundError, EXIT_BOUND),
    (CliError, EXIT_PARSE),
)


def _preset_title(preset) -> str:
    return "%s(%s)" % (
        preset.name, ",".join(str(v) for v in preset.params.values())
    )


def _load_context(args) -> tuple[str, AffineCoxeterDatum, TorusDatum, tuple]:
    """Resolve --preset/--datum into (name, coxeter, torus, automorphisms)."""
    if getattr(args, "preset", None):
        preset = build_preset(args.preset)
        return _preset_title(preset), preset.coxeter, preset.torus, preset.automorphisms
    if getattr(args, "datum", None):
        datum = load_document(args.datum)
        autos = (identity_automorphism(datum.torus, datum.coxeter),)
        return datum.name, datum.coxeter, datum.torus, autos
    raise CliError("one of --preset or --datum is required")


def cmd_presets(args) -> int:
    if args.action == "list":
        for name in sorted(PRESET_BUILDERS):
            _, arity = PRESET_BUILDERS[name]
            example = "%s:%s" % (name, ":".join(["3"] * arity))
            print("%s\t%d argument(s)\te.g. %s" % (name, arity, example))
        return EXIT_OK
    preset = build_preset(args.spec)
    name = _preset_title(preset)
    if args.json:
        sys.stdout.write(dump_document(name, preset.coxeter, preset.torus))
        return EXIT_OK
    print("preset %s" % name)
    print("reflections: %s" % ", ".join(preset.coxeter.labels))
    print("residue characteristic: %d" % preset.torus.residue_char)
    print("torus orders: %s" % ", ".join(str(d) for d in preset.torus.orders))
    print("diagram automorphisms: %d" % len(preset.automorphisms))
    return EXIT_OK


def cmd_validate(args) -> int:
    datum = load_document(args.path)
    print(
        "valid: %s (%d reflections, torus order %d)"
        % (datum.name, len(datum.coxeter.labels), datum.torus.group_order)
    )
    return EXIT_OK


def cmd_ext(args) -> int:
    name, cox, torus, _ = _load_context(args)
    xi1 = parse_spec(torus, cox, getattr(args, "from"))
    xi2 = parse_spec(torus, cox, args.to)
    result = ext_dimension(torus, cox, xi1, xi2)
    print("datum: %s" % name)
    print("from: %s" % format_spec(xi1))
    print("to:   %s" % format_spec(xi2))
    print("case: %s-torus-char/%s-marked-set" % (
        "same" if xi1.torus_char == xi2.torus_char else "distinct",
        "same" if xi1.marked == xi2.marked else "distinct",
    ))
    print("dimension (closed form): %d" % result.dimension)
    for s in cox.labels:
        print("  %s: %s" % (s, result.per_reflection[s]))
    exit_code = EXIT_OK
    if args.oracle or args.explain:
        system = build_system(torus, cox, xi1, xi2)
    if args.oracle:
        oracle_dim = system_ext_dimension(system, cox, xi1, xi2)
        verdict = "MATCH" if oracle_dim == result.dimension else "MISMATCH"
        print("dimension (oracle):      %d" % oracle_dim)
        print("verdict: %s" % verdict)
        if verdict == "MISMATCH" and args.strict:
            exit_code = EXIT_MISMATCH
    if args.explain:
        print("constraint rows over F_%d in (%s):" % (
            system.prime, ", ".join(system.unknowns)
        ))
        for coeffs, label in system.rows:
            print("  %-20s %s" % (label, " ".join(str(c) for c in coeffs)))
    return exit_code


def cmd_table(args) -> int:
    name, cox, torus, _ = _load_context(args)
    # one pass yields every engine's dimension; a pair nonzero for either is listed
    engines = ("formula", "oracle") if args.oracle else ("formula",)
    nodes, pairs = evaluate_pairs(
        torus, cox, engines, not args.supersingular_only, args.bound
    )
    rows = [(i, j, dims) for (i, j), dims in pairs.items() if any(dims)]
    mismatch = any(len(set(dims)) > 1 for _, _, dims in rows)
    exit_code = EXIT_MISMATCH if args.strict and mismatch else EXIT_OK
    if args.format == "dot":
        # the last engine's quiver: the oracle's under --oracle
        edges = {(i, j): dims[-1] for i, j, dims in rows if dims[-1]}
        sys.stdout.write(to_dot(ExtQuiver(nodes, edges)))
        return exit_code
    lines = [TSV_HEADER_ORACLE if args.oracle else TSV_HEADER]
    for i, j, dims in rows:
        verdict = ["MATCH" if len(set(dims)) == 1 else "MISMATCH"] if args.oracle else []
        fields = [format_spec(nodes[i]), format_spec(nodes[j]), *map(str, dims), *verdict]
        lines.append("\t".join(fields))
    print("\n".join(lines))
    return exit_code


def cmd_blocks(args) -> int:
    name, cox, torus, autos = _load_context(args)
    quiver = build_quiver(torus, cox, engine="formula", bound=args.bound)
    block_partition = blocks(quiver)
    print("datum: %s" % name)
    print("%d supersingular characters, %d blocks" % (
        len(quiver.nodes), len(block_partition)
    ))

    def members(part) -> str:
        return ", ".join(format_spec(quiver.nodes[i]) for i in part)

    for k, part in enumerate(block_partition):
        print("block %d: %s" % (k, members(part)))
    if not args.compare_l_packets:
        return EXIT_OK
    packet_partition = l_packets(torus, cox, autos, quiver.nodes)
    for k, part in enumerate(packet_partition):
        print("packet %d: %s" % (k, members(part)))
    comparison = compare_partitions(block_partition, packet_partition)
    print("comparison: %s" % ("EQUAL" if comparison.equal else "NOT EQUAL"))
    for part in comparison.blocks_meeting_multiple_packets:
        print("block spanning several packets: %s" % members(part))
    for part in comparison.packets_split_across_blocks:
        print("packet split across blocks: %s" % members(part))
    return EXIT_OK


def _add_datum_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--preset", help="preset reference, e.g. sl2:5 or sl_n:3:2")
    sub.add_argument("--datum", help="path to a JSON group-datum document")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckext",
        description="Extension dimensions between characters of affine "
        "pro-p Iwahori-Hecke algebras.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_presets = subs.add_parser("presets", help="list or show shipped datums")
    presets_subs = p_presets.add_subparsers(dest="action", required=True)
    presets_subs.add_parser("list", help="list preset families")
    p_show = presets_subs.add_parser("show", help="show one preset")
    p_show.add_argument("spec", help="preset reference, e.g. u11:3")
    p_show.add_argument("--json", action="store_true", help="emit the JSON document")

    p_validate = subs.add_parser("validate", help="validate a JSON datum")
    p_validate.add_argument("path", help="path to a JSON group-datum document")

    p_ext = subs.add_parser("ext", help="dimension for one ordered pair")
    _add_datum_options(p_ext)
    p_ext.add_argument("--from", required=True, help='character spec "phases;marks"')
    p_ext.add_argument("--to", required=True, help='character spec "phases;marks"')
    p_ext.add_argument("--oracle", action="store_true", help="also run the oracle")
    p_ext.add_argument("--explain", action="store_true", help="dump constraint rows")
    p_ext.add_argument("--strict", action="store_true", help=STRICT_HELP)

    p_table = subs.add_parser("table", help="all nonzero ordered pairs")
    _add_datum_options(p_table)
    p_table.add_argument("--oracle", action="store_true", help="run both engines")
    p_table.add_argument(
        "--supersingular-only", action="store_true",
        help="restrict nodes to supersingular characters",
    )
    p_table.add_argument(
        "--format", choices=("tsv", "dot"), default="tsv",
        help="TSV rows or a Graphviz DOT digraph (default %(default)s)",
    )
    p_table.add_argument("--strict", action="store_true", help=STRICT_HELP)
    p_table.add_argument(
        "--bound", type=int, default=DEFAULT_ENUMERATION_BOUND, help=BOUND_HELP
    )

    p_blocks = subs.add_parser("blocks", help="block decomposition report")
    _add_datum_options(p_blocks)
    p_blocks.add_argument(
        "--compare-l-packets", action="store_true",
        help="also print diagram orbits and the comparison verdict",
    )
    p_blocks.add_argument(
        "--bound", type=int, default=DEFAULT_ENUMERATION_BOUND, help=BOUND_HELP
    )
    return parser


COMMANDS = {
    "presets": cmd_presets,
    "validate": cmd_validate,
    "ext": cmd_ext,
    "table": cmd_table,
    "blocks": cmd_blocks,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and reused: parse_args keeps
    # no state between calls, and building the tree is a third of a query
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
