"""JSON group-datum documents: parse, validate, serialize.

The document carries everything needed to reconstruct a Coxeter datum
and a torus datum: reflection labels, the pairwise-order matrix (with 0
standing for infinite order), the generator orders of the torus
quotient, and the per-reflection action matrices and rank-one subgroup
generators.
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple

from .coxeter import AffineCoxeterDatum, CoxeterError, from_int_matrix, to_int_matrix
from .torus import TorusDatum, TorusError

SCHEMA_FIELDS = (
    "name",
    "p",
    "reflections",
    "coxeter",
    "zk_orders",
    "actions",
    "subgroups",
)


class DocumentError(ValueError):
    """Malformed or invalid group-datum document; message names the field."""


class DocumentParseError(DocumentError):
    """The document is not syntactically a group datum (bad JSON or shape)."""


class DocumentInvariantError(DocumentError):
    """Well-formed document whose datums violate a validation invariant."""


class GroupDatum(NamedTuple):
    """A named pair of validated Coxeter and torus datums."""

    name: str
    coxeter: AffineCoxeterDatum
    torus: TorusDatum


def _require(doc: Mapping[str, Any], field: str, kind: type, what: str) -> Any:
    if field not in doc:
        raise DocumentParseError("missing field %r" % field)
    value = doc[field]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise DocumentParseError("field %r: expected %s" % (field, what))
    return value


def _int_matrix(value: Any, field: str) -> list[list[int]]:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise DocumentParseError("field %r: expected a list of lists" % field)
    for i, row in enumerate(value):
        for j, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, int):
                raise DocumentParseError(
                    "field %r: entry [%d][%d] is not an integer" % (field, i, j)
                )
    return value


def parse_document(text: str) -> GroupDatum:
    """Parse a JSON document into validated datums.

    All diagnostics are wrapped in :class:`DocumentError` and name the
    offending field or invariant.
    """
    import json  # here, not at import: most commands read no document

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentParseError("invalid JSON at line %d: %s" % (exc.lineno, exc.msg))
    if not isinstance(doc, dict):
        raise DocumentParseError("document must be a JSON object")
    for key in doc:
        if key not in SCHEMA_FIELDS:
            raise DocumentParseError("unknown field %r" % key)

    name = _require(doc, "name", str, "a string")
    p = _require(doc, "p", int, "an integer prime")
    reflections = _require(doc, "reflections", list, "a list of labels")
    if not all(isinstance(s, str) for s in reflections):
        raise DocumentParseError("field 'reflections': labels must be strings")
    coxeter_matrix = _int_matrix(_require(doc, "coxeter", list, "a matrix"), "coxeter")
    zk_orders = _require(doc, "zk_orders", list, "a list of integers")
    for d in zk_orders:
        if isinstance(d, bool) or not isinstance(d, int):
            raise DocumentParseError("field 'zk_orders': entries must be integers")
    actions_doc = _require(doc, "actions", dict, "a label -> matrix map")
    subgroups_doc = _require(doc, "subgroups", dict, "a label -> vectors map")

    try:
        cox = from_int_matrix(reflections, coxeter_matrix)
    except CoxeterError as exc:
        raise DocumentInvariantError("field 'coxeter': %s" % exc)

    if set(actions_doc) != set(reflections):
        raise DocumentInvariantError("field 'actions': keys must equal the reflection list")
    if set(subgroups_doc) != set(reflections):
        raise DocumentInvariantError("field 'subgroups': keys must equal the reflection list")

    actions = {
        s: tuple(tuple(row) for row in _int_matrix(m, "actions[%s]" % s))
        for s, m in actions_doc.items()
    }
    subgroups = {
        s: tuple(tuple(v) for v in _int_matrix(g, "subgroups[%s]" % s))
        for s, g in subgroups_doc.items()
    }
    try:
        torus = TorusDatum(
            residue_char=p,
            orders=tuple(zk_orders),
            actions=actions,
            subgroups=subgroups,
        )
    except TorusError as exc:
        raise DocumentInvariantError(str(exc))
    return GroupDatum(name, cox, torus)


def load_document(path: str) -> GroupDatum:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentParseError("cannot read %s: %s" % (path, exc.strerror or exc))
    return parse_document(text)


def dump_document(name: str, cox: AffineCoxeterDatum, torus: TorusDatum) -> str:
    """Serialize the datums back to the canonical JSON layout."""
    import json  # here, not at import: most commands write no document

    doc = {
        "name": name,
        "p": torus.residue_char,
        "reflections": list(cox.labels),
        "coxeter": to_int_matrix(cox),
        "zk_orders": list(torus.orders),
        "actions": {s: [list(row) for row in torus.action(s)] for s in cox.labels},
        "subgroups": {
            s: [list(v) for v in torus.subgroup(s)] for s in cox.labels
        },
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
