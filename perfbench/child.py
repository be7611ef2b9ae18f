"""One fresh interpreter of the benchmark: a set-up probe, a CLI call, or
a session of ``ext`` queries.

    python3 perfbench/child.py setup REPORT (--preset SPEC | --datum PATH)
    python3 perfbench/child.py cli REPORT [--trace SPANS] -- ARGV...
    python3 perfbench/child.py queries REPORT --pairs FILE --out FILE
        --datum PATH --seconds S --batch N [--start K] [--trace SPANS]

Every mode imports heckext from ``src/`` of the checkout and writes a
JSON report to REPORT.  ``cli`` calls ``heckext.cli.main`` once with
stdout left to the parent; a call that raises is recorded, not
re-raised.  ``queries`` calls ``main`` once per pair, from pair K on, in
batches, until S seconds have passed or the pairs run out; it writes one
JSON line per query to the ``--out`` file, with each query's and batch's
start on the system-wide ``perf_counter`` clock.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _call(main, argv: list[str]) -> tuple[int | None, str | None]:
    """Run the CLI entry point; return (exit code, exception text or None)."""
    try:
        return main(argv), None
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return code, None
    except Exception as exc:  # the benchmark counts a raising call as failed
        traceback.print_exc()
        return None, "%s: %s" % (type(exc).__name__, exc)


def _tracer(spans_path: str | None):
    if spans_path is None:
        return None
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    return tracer


def run_setup(args) -> dict:
    import heckext.cli  # noqa: F401  (the import is what is being timed)

    if args.preset:
        from heckext.presets import build_preset

        build_preset(args.preset)
    else:
        from heckext.document import load_document

        load_document(args.datum)
    return {}


def run_cli(args) -> dict:
    import heckext.cli

    tracer = _tracer(args.trace)
    code, error = _call(heckext.cli.main, args.argv)
    sys.stdout.flush()
    if tracer is not None:
        tracer.write(args.trace)
    return {"exit": code, "error": error}


def run_queries(args) -> dict:
    import heckext.cli

    with open(args.pairs, encoding="utf-8") as fh:
        pairs = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    tracer = _tracer(args.trace)
    main = heckext.cli.main
    batches = []
    deadline = time.perf_counter() + args.seconds
    k = args.start
    # records go to disk after each batch, so memory does not grow with
    # the number of queries answered
    with open(args.out, "w", encoding="utf-8") as records:
        while k < len(pairs) and (not batches or time.perf_counter() < deadline):
            if tracer is not None:
                tracer.mark()
            batch = []
            batch_start = time.perf_counter()
            for a, b in pairs[k : k + args.batch]:
                argv = ["ext", "--datum", args.datum, "--from", a, "--to", b,
                        "--oracle", "--explain"]
                out = io.StringIO()
                t0 = time.perf_counter()
                with redirect_stdout(out):
                    code, error = _call(main, argv)
                latency = time.perf_counter() - t0
                batch.append({"from": a, "to": b, "t": t0, "s": latency,
                              "exit": code, "error": error, "stdout": out.getvalue()})
            batches.append({"t": batch_start, "s": time.perf_counter() - batch_start,
                            "queries": len(batch)})
            records.writelines(json.dumps(q) + "\n" for q in batch)
            k += args.batch
    if tracer is not None:
        tracer.write(args.trace)
    return {"batches": batches}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    subs = parser.add_subparsers(dest="mode", required=True)
    p_setup = subs.add_parser("setup")
    p_setup.add_argument("report")
    p_setup.add_argument("--preset")
    p_setup.add_argument("--datum")
    p_cli = subs.add_parser("cli")
    p_cli.add_argument("report")
    p_cli.add_argument("--trace")
    p_q = subs.add_parser("queries")
    p_q.add_argument("report")
    p_q.add_argument("--pairs", required=True)
    p_q.add_argument("--out", required=True)
    p_q.add_argument("--datum", required=True)
    p_q.add_argument("--seconds", type=float, required=True)
    p_q.add_argument("--batch", type=int, required=True)
    p_q.add_argument("--start", type=int, default=0)
    p_q.add_argument("--trace")
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    args.argv = argv[cut + 1 :]
    report = {"setup": run_setup, "cli": run_cli, "queries": run_queries}[args.mode](args)
    report["rss_kb"] = _peak_rss_kb()
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
