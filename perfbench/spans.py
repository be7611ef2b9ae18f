"""Span recording for the traced run, installed from outside the program.

``install`` wraps every public function of the eight heckext layers
(``cli``, ``presets``, ``document``, ``hecke``, ``torus``, ``formula``,
``oracle``, ``quiver``) and rebinds the wrapper in every heckext module
that holds the function by name, so ``heckext.quiver.ext_dimension`` and
``heckext.oracle.twist`` are traced as well as the defining modules.

Spans (name, start, end, parent) are kept in memory in typed arrays and
written once, when the traced process ends.  ``summarize`` turns a set
of span files into per-function call counts, inclusive time and self
time, where a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "presets", "document", "hecke", "torus", "formula", "oracle", "quiver")


class Tracer:
    """In-memory span store plus the counters observed at layer boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts: dict[str, int] = {}
        self.marks: list[int] = []
        self._stack: list[int] = []

    def mark(self) -> None:
        """Note the current span count, e.g. where a batch of queries starts."""
        self.marks.append(len(self.name))

    def wrap(self, qualname: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(qualname)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    def write(self, path: str) -> None:
        header = {
            "names": self.names,
            "counts": self.counts,
            "marks": self.marks,
            "spans": len(self.name),
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def _count_nodes(counts: dict[str, int], nodes) -> None:
    counts["hecke.nodes"] = counts.get("hecke.nodes", 0) + len(nodes)


def _count_edges(counts: dict[str, int], quiver) -> None:
    counts["quiver.edges"] = counts.get("quiver.edges", 0) + len(quiver.edges)


OBSERVERS = {
    "hecke.enumerate_hecke_characters": _count_nodes,
    "quiver.build_quiver": _count_edges,
}


def install(tracer: Tracer) -> int:
    """Wrap the public functions of every layer; return how many were wrapped."""
    wrapped: dict[int, object] = {}
    for layer in LAYERS:
        module = importlib.import_module("heckext." + layer)
        for attr, obj in vars(module).items():
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__
            ):
                continue
            qualname = "%s.%s" % (layer, attr)
            wrapped[id(obj)] = (obj, tracer.wrap(qualname, obj, OBSERVERS.get(qualname)))
    for modname, module in list(sys.modules.items()):
        if modname != "heckext" and not modname.startswith("heckext."):
            continue
        for attr, obj in list(vars(module).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, attr, entry[1])
    return len(wrapped)


class SpanSet:
    """Spans read back from one traced process."""

    def __init__(self, path: str) -> None:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n = header["spans"]
            self.names: list[str] = header["names"]
            self.counts: dict[str, int] = header["counts"]
            self.marks: list[int] = header["marks"]
            self.name = array.array("i")
            self.parent = array.array("i")
            self.start = array.array("d")
            self.end = array.array("d")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.fromfile(fh, n)

    def ranges(self) -> list[tuple[int, int]]:
        """Span index ranges between consecutive marks (one per batch)."""
        bounds = self.marks + [len(self.name)]
        return list(zip(bounds[:-1], bounds[1:]))


def summarize(spans: SpanSet, lo: int = 0, hi: int | None = None) -> dict:
    """Per-function calls, inclusive and self seconds for spans lo..hi.

    Spans in a range never have a parent outside it when ranges follow
    top-level boundaries, which is how ``mark`` is used.
    """
    hi = len(spans.name) if hi is None else hi
    name, parent, start, end = spans.name, spans.parent, spans.start, spans.end
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        p = parent[i]
        if p >= lo:
            child[p - lo] += end[i] - start[i]
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    under: dict[str, int] = {}
    names = spans.names
    for i in range(lo, hi):
        key = names[name[i]]
        dur = end[i] - start[i]
        calls[key] = calls.get(key, 0) + 1
        incl[key] = incl.get(key, 0.0) + dur
        self_s[key] = self_s.get(key, 0.0) + dur - child[i - lo]
        p = parent[i]
        if p >= lo:
            edge = "%s<%s" % (key, names[name[p]])
            under[edge] = under.get(edge, 0) + 1
    return {"calls": calls, "incl": incl, "self": self_s, "under": under}


def merge(parts: list[dict]) -> dict:
    """Sum several ``summarize`` results (e.g. the calls of one iteration)."""
    out: dict = {"calls": {}, "incl": {}, "self": {}, "under": {}}
    for part in parts:
        for table, values in part.items():
            for key, v in values.items():
                out[table][key] = out[table].get(key, 0) + v
    return out
