#!/usr/bin/env python3
"""heckext benchmark: three CLI workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Each workload goes through the public entry point ``heckext.cli.main``,
imported from ``src/`` of the checkout, in fresh interpreters started by
``child.py``.  A run sets up (untimed inputs, then timed interpreter
start + import + datum build), measures closed-loop iterations for S
seconds, and then runs the untimed correctness pass of ``check.py`` over
every output.  Times are scaled to a reference CPU speed measured next
to them by ``speed.py``; the raw wall times are printed as well.  With
``--trace 1`` the run measures untraced iterations, then traced ones
(``spans.py``), and reports the per-layer metrics instead of the
end-to-end ones.

The last line of stdout is one JSON object: ``correct``, ``attempted``
(CLI calls), ``failed`` (calls that raised or exited outside the
documented codes 0-4) and ``metrics``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"

DOCUMENTED_EXITS = {0, 1, 2, 3, 4}
SETUP_SAMPLES = 15
QUERY_BATCH = 128
CALL_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    # table workloads: the CLI calls of one iteration, each a fresh interpreter
    calls: tuple[tuple[str, ...], ...] = ()
    # query workload: one long-lived interpreter answering `ext` per pair
    queries: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table-sl_n4",
            "sl_n:4:3",
            calls=(
                ("table", "--preset", "sl_n:4:3"),
                ("blocks", "--preset", "sl_n:4:3", "--compare-l-packets"),
            ),
        ),
        Workload(
            "table-oracle-u21",
            "u21:4",
            calls=(("table", "--oracle", "--preset", "u21:4"),),
        ),
        Workload("ext-queries-sl_n5", "sl_n:5:3", queries=True),
    )
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "pairs_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "right_share": "share",
    "ok_share": "share",
}

# per-layer metrics in the JSON result (and in BENCHMARK.json): the counts
# and the times that no workload leaves at zero.  The others are printed
# only: times some workload never spends, which would read 0 on every
# run, and the node count, which is fixed by the datum.
PER_LAYER = {
    "torus.twist_calls": "count",
    "torus.twist_per_pair": "1/pair",
    "torus.self_s": "s",
    "formula.calls": "count",
    "formula.us_per_call": "us",
    "formula.self_s": "s",
    "oracle.calls": "count",
    "oracle.build_system_calls": "count",
    "quiver.pairs_evaluated": "count",
    "quiver.edge_yield": "share",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
PRINTED_ONLY = {
    "oracle.build_system_s": "s",
    "oracle.kernel_s": "s",
    "oracle.self_s": "s",
    "quiver.build_self_s": "s",
    "quiver.graph_s": "s",
    "quiver.to_dot_s": "s",
    "presets.build_s": "s",
    "document.load_s": "s",
    "hecke.enumerate_s": "s",
    "hecke.nodes": "count",
    "trace.run_s": "s",
}


@dataclass
class Call:
    argv: list[str]
    wall: float  # measured seconds
    speed: float  # scale to reference-speed seconds
    exit: int | None
    error: str | None
    stdout: str
    rss_kb: int = 0

    @property
    def seconds(self) -> float:
        return self.wall * self.speed

    @property
    def failed(self) -> bool:
        return self.error is not None or self.exit not in DOCUMENTED_EXITS


@dataclass
class Iteration:
    calls: list[Call]
    wall: float
    seconds: float  # wall at reference speed
    # traced iterations: (span file, first span, end span or None, speed)
    spans: list[tuple[str, int, int | None, float]] = field(default_factory=list)


@dataclass
class Inputs:
    work: Path
    setup_args: list[str]
    datum: Path | None = None
    pairs: Path | None = None


def _heckext():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import heckext
    import heckext.cli  # noqa: F401  (prepare calls the CLI in-process)

    return heckext


def spawn(args: list[str], report: Path) -> tuple[float, float, str, dict | None]:
    """Run child.py once; return (start, wall seconds, stdout, report or None)."""
    if report.exists():
        report.unlink()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CALL_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    if not report.exists():
        sys.stderr.write(proc.stderr[-2000:])
        return t0, wall, proc.stdout, None
    return t0, wall, proc.stdout, json.loads(report.read_text(encoding="utf-8"))


def prepare(w: Workload, seed: int, work: Path) -> Inputs:
    """Untimed set-up: an empty work directory and, for queries, the datum
    file and the seeded pair order.  The same seed gives identical files."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if not w.queries:
        return Inputs(work, ["--preset", w.preset])
    hx = _heckext()
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = hx.cli.main(["presets", "show", w.preset, "--json"])
    if code != 0:
        raise RuntimeError("presets show %s exited %d" % (w.preset, code))
    datum = work / "datum.json"
    datum.write_text(text.getvalue(), encoding="utf-8")
    preset = hx.build_preset(w.preset)
    specs = [
        hx.format_spec(xi)
        for xi in hx.enumerate_hecke_characters(preset.torus, preset.coxeter)
    ]
    pairs = [(a, b) for a in specs for b in specs]
    random.Random(seed).shuffle(pairs)
    pairs_file = work / "pairs.tsv"
    pairs_file.write_text("".join("%s\t%s\n" % p for p in pairs), encoding="utf-8")
    return Inputs(work, ["--datum", str(datum)], datum, pairs_file)


def measure_setup(inputs: Inputs, mon: speed.Monitor) -> list[float]:
    """Interpreter start + import heckext + datum build, several times."""
    report = inputs.work / "setup.json"
    times = []
    for k in range(SETUP_SAMPLES + 1):
        t0, wall, _, rep = spawn(["setup", str(report), *inputs.setup_args], report)
        if rep is None:
            raise RuntimeError("set-up probe failed")
        if k:  # the first start compiles bytecode; users pay that once
            times.append(wall * mon.factor(t0, t0 + wall))
    return times


def table_iteration(
    w: Workload, inputs: Inputs, traced: bool, k: int, mon: speed.Monitor
) -> Iteration:
    calls, span_files = [], []
    for n, argv in enumerate(w.calls):
        report = inputs.work / ("call-%d.json" % n)
        args = ["cli", str(report)]
        path = str(inputs.work / ("spans-%d-%d.bin" % (k, n)))
        if traced:
            args += ["--trace", path]
        t0, wall, out, rep = spawn([*args, "--", *argv], report)
        factor = mon.factor(t0, t0 + wall)
        if rep is None:
            calls.append(Call(list(argv), wall, factor, None, "no report", out))
            continue
        calls.append(
            Call(list(argv), wall, factor, rep["exit"], rep["error"], out, rep["rss_kb"])
        )
        if traced:
            span_files.append((path, 0, None, factor))
    return Iteration(
        calls,
        sum(c.wall for c in calls),
        sum(c.seconds for c in calls),
        span_files,
    )


def query_session(
    inputs: Inputs, seconds: float, traced: bool, start: int, mon: speed.Monitor
) -> list[Iteration]:
    """One interpreter answering pairs in batches; an iteration is a batch."""
    report = inputs.work / "queries.json"
    records = inputs.work / "queries.jsonl"
    args = ["queries", str(report), "--pairs", str(inputs.pairs),
            "--out", str(records), "--datum", str(inputs.datum),
            "--seconds", repr(seconds), "--batch", str(QUERY_BATCH),
            "--start", str(start)]
    path = str(inputs.work / "spans-queries.bin")
    if traced:
        args += ["--trace", path]
    _, _, _, rep = spawn(args, report)
    if rep is None:
        raise RuntimeError("query session failed")
    ranges = spans.SpanSet(path).ranges() if traced else []
    with open(records, encoding="utf-8") as fh:
        queries = [json.loads(line) for line in fh]
    out, k = [], 0
    for b, batch in enumerate(rep["batches"]):
        factor = mon.factor(batch["t"], batch["t"] + batch["s"])
        calls = [
            Call(["ext", q["from"], q["to"]], q["s"],
                 mon.factor(q["t"], q["t"] + q["s"]),
                 q["exit"], q["error"], q["stdout"], rep["rss_kb"])
            for q in queries[k : k + batch["queries"]]
        ]
        k += batch["queries"]
        span_range = [(path, *ranges[b], factor)] if traced else []
        out.append(Iteration(calls, batch["s"], batch["s"] * factor, span_range))
    return out


def measure(
    w: Workload,
    inputs: Inputs,
    seconds: float,
    mon: speed.Monitor,
    traced: bool,
    start: int = 0,
) -> list[Iteration]:
    """Closed loop, one client: iterations back to back for `seconds`.
    The query session starts at pair `start`, so no pair repeats in a run."""
    if w.queries:
        return query_session(inputs, seconds, traced, start, mon)
    deadline = time.perf_counter() + seconds
    out: list[Iteration] = []
    while not out or time.perf_counter() < deadline:
        out.append(table_iteration(w, inputs, traced, len(out), mon))
    return out


def correctness(w: Workload, inputs: Inputs, iterations: list[Iteration]):
    """Check every output of the run against the reference (untimed)."""
    hx = _heckext()
    preset = hx.build_preset(w.preset)
    torus, cox = preset.torus, preset.coxeter
    nodes = hx.enumerate_hecke_characters(torus, cox)
    tally = check.Tally()
    calls = [c for it in iterations for c in it.calls]
    for c in calls:
        if c.exit not in (0, None) and not c.failed:
            tally.problem("%s exited %d on valid input" % (" ".join(c.argv), c.exit))
    if w.queries:
        index = {check.node_key(xi): i for i, xi in enumerate(nodes)}
        pairs = [
            (index[check.spec_key(c.argv[1])], index[check.spec_key(c.argv[2])])
            for c in calls
        ]
        ref = check.Reference(torus, cox, nodes, sorted(set(pairs)), keep_rows=True)
        for c, pair in zip(calls, pairs):
            if c.exit == 0 and not c.failed:
                check.check_ext(c.stdout, ref, pair, tally)
    else:
        n = len(nodes)
        ref = check.Reference(torus, cox, nodes, [(i, j) for i in range(n) for j in range(n)])
        ss = sorted(
            ref.index[check.node_key(xi)]
            for xi in hx.enumerate_hecke_characters(torus, cox, only_supersingular=True)
        )
        answers = None
        for it in iterations:
            for c in it.calls:
                if c.argv[0] == "table" and c.exit == 0 and not c.failed:
                    answers = check.check_table(c.stdout, ref, tally, "--oracle" in c.argv)
                elif c.argv[0] == "blocks" and answers is not None:
                    check.check_blocks(c.stdout, ref, ss, answers, tally)
        for argv in w.calls:
            if argv[0] == "table" and "--oracle" not in argv and answers is not None:
                report = inputs.work / "dot.json"
                args = ["cli", str(report), "--", *argv, "--format", "dot"]
                _, _, out, rep = spawn(args, report)
                if rep is None or rep["exit"] != 0:
                    tally.problem("table --format dot failed")
                else:
                    check.check_dot(out, ref, answers, tally)
    ref.report_unverified(tally)
    return tally, len(nodes)


def _quantile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _pairs_answered(c: Call, nodes: int) -> int:
    if c.failed or c.exit != 0:
        return 0
    return {"ext": 1, "table": nodes * nodes}.get(c.argv[0], 0)


def end_to_end(setup: list[float], iterations: list[Iteration], tally, nodes: int) -> dict:
    calls = [c for it in iterations for c in it.calls]
    rates = []
    for it in iterations:
        answering = [c for c in it.calls if _pairs_answered(c, nodes)]
        if answering:
            rates.append(
                sum(_pairs_answered(c, nodes) for c in answering)
                / sum(c.seconds for c in answering)
            )
    latencies = [c.seconds * 1000 for c in calls]
    failed = sum(c.failed for c in calls)
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(it.seconds for it in iterations),
        "pairs_per_s": statistics.median(rates) if rates else 0.0,
        "query_p50_ms": _quantile(latencies, 50),
        "query_p90_ms": _quantile(latencies, 90),
        "peak_rss_mb": max(c.rss_kb for c in calls) / 1024,
        "right_share": 1 - tally.wrong / tally.answered if tally.answered else 0.0,
        "ok_share": 1 - failed / len(calls),
    }


def _iteration_layers(it: Iteration) -> dict:
    """Layer metrics of one traced iteration, in reference-speed seconds."""
    parts, counts = [], {}
    for path, lo, hi, factor in it.spans:
        span_set = spans.SpanSet(path)
        part = spans.summarize(span_set, lo, hi)
        for table in ("incl", "self"):
            part[table] = {k: v * factor for k, v in part[table].items()}
        parts.append(part)
        if hi is None:  # counters are per process, so only for whole files
            for key, v in span_set.counts.items():
                counts[key] = counts.get(key, 0) + v
    s = spans.merge(parts)
    calls, incl, self_s, under = s["calls"], s["incl"], s["self"], s["under"]

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    formula_calls = calls.get("formula.ext_dimension", 0)
    evaluations = formula_calls + calls.get("oracle.oracle_ext_dimension", 0)
    quiver_pairs = under.get("formula.ext_dimension<quiver.build_quiver", 0) + under.get(
        "oracle.oracle_ext_dimension<quiver.build_quiver", 0
    )
    twists = calls.get("torus.twist", 0)
    return {
        "torus.twist_calls": twists,
        "torus.twist_per_pair": twists / evaluations if evaluations else 0.0,
        "torus.self_s": layer_self("torus"),
        "formula.calls": formula_calls,
        "formula.us_per_call": (
            incl.get("formula.ext_dimension", 0.0) / formula_calls * 1e6
            if formula_calls else 0.0
        ),
        "formula.self_s": layer_self("formula"),
        "oracle.calls": calls.get("oracle.oracle_ext_dimension", 0),
        "oracle.build_system_calls": calls.get("oracle.build_system", 0),
        "oracle.build_system_s": incl.get("oracle.build_system", 0.0),
        "oracle.kernel_s": self_s.get("oracle.kernel_basis", 0.0)
        + self_s.get("oracle.kernel_dimension", 0.0),
        "oracle.self_s": layer_self("oracle"),
        "quiver.pairs_evaluated": quiver_pairs,
        "quiver.edge_yield": (
            counts.get("quiver.edges", 0) / quiver_pairs if quiver_pairs else 0.0
        ),
        "quiver.build_self_s": self_s.get("quiver.build_quiver", 0.0),
        "quiver.graph_s": sum(
            incl.get("quiver." + f, 0.0)
            for f in ("blocks", "l_packets", "compare_partitions")
        ),
        "quiver.to_dot_s": incl.get("quiver.to_dot", 0.0),
        "cli.self_s": layer_self("cli"),
        "presets.build_s": incl.get("presets.build_preset", 0.0),
        "document.load_s": incl.get("document.load_document", 0.0),
        "hecke.enumerate_s": incl.get("hecke.enumerate_hecke_characters", 0.0),
        "hecke.nodes": counts.get("hecke.nodes", 0),
    }


def per_layer(untraced: list[Iteration], traced: list[Iteration]) -> dict:
    """Median over traced iterations of each layer metric, plus overhead."""
    rows = [_iteration_layers(it) for it in traced]
    out = {}
    for key in rows[0]:
        values = [r[key] for r in rows]
        counts = all(isinstance(v, int) for v in values)
        out[key] = (statistics.median_low if counts else statistics.median)(values)
    out["trace.run_s"] = statistics.median(it.seconds for it in traced)
    out["trace.overhead_s"] = out["trace.run_s"] - statistics.median(
        it.seconds for it in untraced
    )
    return out


def print_metrics(w: Workload, seed: int, setup, iterations, traced, tally, e2e) -> None:
    """Print every metric by name and unit, with sample counts."""
    calls = [c for it in iterations + traced for c in it.calls]
    failed = sum(c.failed for c in calls)
    n_calls = sum(len(it.calls) for it in iterations)
    print("workload %s  seed %d  %d iterations, %d CLI calls%s" % (
        w.name, seed, len(iterations), n_calls,
        ", %d traced iterations" % len(traced) if traced else ""))
    tail = max(
        (p for p in (50, 75, 90, 95, 99) if n_calls * (100 - p) / 100 >= 10),
        default=None,
    )
    notes = {
        "setup_s": "median of %d starts" % len(setup),
        "run_s": "median of %d iterations (raw wall %.4g s)" % (
            len(iterations), statistics.median(it.wall for it in iterations)),
        "pairs_per_s": "median of %d iterations" % len(iterations),
        "query_p50_ms": "n=%d calls" % n_calls,
        "query_p90_ms": "n=%d calls; highest percentile with >=10 beyond: %s" % (
            n_calls, "p%d" % tail if tail else "none"),
    }
    for key, unit in END_TO_END.items():
        print("  %-26s %14.6g %-6s %s" % (key, e2e[key], unit, notes.get(key, "")))
    print("  %-26s %14.6g %-6s %d of %d answered pairs differ from the reference"
          % ("wrong_share", 1 - e2e["right_share"], "share", tally.wrong, tally.answered))
    print("  %-26s %14.6g %-6s %d of %d CLI calls raised or exited outside 0-4"
          % ("fail_share", failed / len(calls), "share", failed, len(calls)))
    for text in tally.witnesses:
        print("  wrong: %s" % text)
    first_failure = next((c for c in calls if c.failed), None)
    if first_failure is not None:
        print("  failed: %s: %s" % (" ".join(first_failure.argv), first_failure.error))
    print("  correctness: %s" % ("ok" if not tally.problems else
                                 "%d problems" % len(tally.problems)))
    for text in tally.problems[:10]:
        print("    %s" % text)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    inputs = prepare(w, seed, WORK / w.name)
    with speed.Monitor() as mon:
        setup = measure_setup(inputs, mon)
        iterations = measure(w, inputs, seconds, mon, traced=False)
        done = sum(len(it.calls) for it in iterations)
        traced = measure(w, inputs, seconds, mon, traced=True, start=done) if trace else []
    tally, nodes = correctness(w, inputs, iterations + traced)
    e2e = end_to_end(setup, iterations, tally, nodes)
    print_metrics(w, seed, setup, iterations, traced, tally, e2e)
    metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    if trace:
        layers = per_layer(iterations, traced)
        for key, unit in {**PER_LAYER, **PRINTED_ONLY}.items():
            print("  %-26s %14.6g %s" % (key, layers[key], unit))
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    calls = [c for it in iterations + traced for c in it.calls]
    return {
        "correct": not tally.problems,
        "attempted": len(calls),
        "failed": sum(c.failed for c in calls),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heckext" / "cli.py").is_file():
        print("run.py: no heckext sources under %s" % SRC, file=sys.stderr)
        return 2
    # one core for the benchmark, its children and the speed monitor, so
    # that the monitor samples the core the work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                "%s.%s" % (n, k): v
                for n, r in results.items()
                for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
