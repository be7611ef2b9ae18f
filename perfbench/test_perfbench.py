"""The benchmark's own tests: seeded inputs and the correctness pass.

Run with ``python -m pytest perfbench``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run as bench  # noqa: E402
from heckext import build_preset, enumerate_hecke_characters, format_spec  # noqa: E402
from heckext.cli import main  # noqa: E402

QUERIES = bench.WORKLOADS["ext-queries-sl_n5"]


def cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def reference(spec):
    preset = build_preset(spec)
    nodes = enumerate_hecke_characters(preset.torus, preset.coxeter)
    n = len(nodes)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    return preset, nodes, check.Reference(preset.torus, preset.coxeter, nodes, pairs)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_same_seed_gives_same_inputs(tmp_path):
    a = bench.prepare(QUERIES, 7, tmp_path / "a")
    b = bench.prepare(QUERIES, 7, tmp_path / "b")
    assert a.datum.read_bytes() == b.datum.read_bytes()
    assert a.pairs.read_bytes() == b.pairs.read_bytes()


def test_different_seed_gives_different_sample(tmp_path):
    a = bench.prepare(QUERIES, 7, tmp_path / "a").pairs.read_text().splitlines()
    b = bench.prepare(QUERIES, 8, tmp_path / "b").pairs.read_text().splitlines()
    assert a[:1024] != b[:1024]
    assert sorted(a) == sorted(b)
    assert len(set(a)) == len(a) == 122 * 122


def test_table_pass_counts_a_planted_wrong_answer():
    _, _, ref = reference("u11:3")
    text = cli("table", "--preset", "u11:3")
    base = check.Tally()
    assert check.check_table(text, ref, base, oracle=False)
    assert not base.problems and base.answered == len(ref.dims)
    lines = text.splitlines()
    src, dst, dim = lines[2].split("\t")
    lines[2] = "\t".join([src, dst, str(int(dim) + 1)])
    planted = check.Tally()
    check.check_table("\n".join(lines), ref, planted, oracle=False)
    assert planted.wrong == base.wrong + 1


def test_oracle_column_and_verdict_are_checked():
    _, _, ref = reference("u11:3")
    text = cli("table", "--oracle", "--preset", "u11:3")
    clean = check.Tally()
    check.check_table(text, ref, clean, oracle=True)
    assert not clean.problems
    lines = text.splitlines()
    fields = lines[2].split("\t")
    fields[3] = str(int(fields[3]) + 1)
    lines[2] = "\t".join(fields)
    planted = check.Tally()
    check.check_table("\n".join(lines), ref, planted, oracle=True)
    assert planted.problems


def test_dot_and_blocks_must_match_the_table():
    preset, _, ref = reference("u11:3")
    answers = check.check_table(cli("table", "--preset", "u11:3"), ref, check.Tally(), False)
    dot = cli("table", "--preset", "u11:3", "--format", "dot")
    tally = check.Tally()
    check.check_dot(dot, ref, answers, tally)
    assert not tally.problems
    dropped = [line for line in dot.splitlines() if "->" not in line]
    check.check_dot("\n".join(dropped), ref, answers, tally)
    assert tally.problems
    ss = sorted(
        ref.index[check.node_key(xi)]
        for xi in enumerate_hecke_characters(
            preset.torus, preset.coxeter, only_supersingular=True
        )
    )
    text = cli("blocks", "--preset", "u11:3", "--compare-l-packets")
    tally = check.Tally()
    check.check_blocks(text, ref, ss, answers, tally)
    assert not tally.problems
    check.check_blocks(text, ref, ss, {}, tally)
    assert tally.problems


def test_ext_pass_flags_a_wrong_oracle_answer():
    preset = build_preset("sl_n:3:2")
    nodes = enumerate_hecke_characters(preset.torus, preset.coxeter)
    ref = check.Reference(preset.torus, preset.coxeter, nodes, [(0, 1)], keep_rows=True)
    text = cli("ext", "--preset", "sl_n:3:2", "--from", format_spec(nodes[0]),
               "--to", format_spec(nodes[1]), "--oracle", "--explain")
    tally = check.Tally()
    check.check_ext(text, ref, (0, 1), tally)
    assert not tally.problems and tally.answered == 1
    wrong = text.replace(
        "dimension (oracle):      %d" % ref.dims[(0, 1)],
        "dimension (oracle):      %d" % (ref.dims[(0, 1)] + 1),
    )
    assert wrong != text
    check.check_ext(wrong, ref, (0, 1), tally)
    assert tally.problems
