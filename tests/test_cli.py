"""Command-line interface: subcommands, exit codes, determinism."""

import json
import subprocess
import sys
import time

import pytest

from heckext import cli, hecke, quiver
from heckext.cli import main
from heckext.document import dump_document
from heckext.presets import sl2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_failing(capsys, *argv):
    """Exit code and message of a command that must fail cleanly: nothing
    on stdout and exactly one ``error:`` line on stderr."""
    code, out, err = run(capsys, *argv)
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return code, lines[0]


def test_exit_codes_list_subclasses_first():
    # the first matching entry wins, so an earlier base would shadow it
    for k, (kind, _) in enumerate(cli.EXIT_CODES):
        for earlier, _ in cli.EXIT_CODES[:k]:
            assert not issubclass(kind, earlier), (kind, earlier)


def test_presets_list(capsys):
    code, out, _ = run(capsys, "presets", "list")
    assert code == 0
    assert {line.split("\t")[0] for line in out.splitlines()} == {
        "sl2",
        "sl_n",
        "u11",
        "u21",
    }


def test_presets_show_json_round_trips(capsys):
    code, out, _ = run(capsys, "presets", "show", "sl2:5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 5
    assert doc["zk_orders"] == [4]
    assert doc["coxeter"] == [[1, 0], [0, 1]]


def test_presets_show_bad_spec(capsys):
    code, _, err = run(capsys, "presets", "show", "nope:1")
    assert code == 2
    assert "unknown preset" in err
    code, line = run_failing(capsys, "presets", "show", "sl2:6")
    assert code == 2
    assert "not a prime power" in line


def test_presets_show_large_prime_power_is_fast(capsys):
    # q = 2**61 - 1: trial division up to q never finished
    start = time.perf_counter()
    code, out, _ = run(capsys, "presets", "show", "sl2:2305843009213693951")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert "residue characteristic: 2305843009213693951" in out
    for spec in ("sl2:6", "sl2:1"):
        code, line = run_failing(capsys, "presets", "show", spec)
        assert code == 2
        assert "not a prime power" in line


def test_validate_accepts_preset_document(tmp_path, capsys):
    preset = sl2(5)
    path = tmp_path / "sl2.json"
    path.write_text(dump_document("sl2", preset.coxeter, preset.torus))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "valid" in out


def test_validate_exit_codes(tmp_path, capsys):
    preset = sl2(5)
    doc = json.loads(dump_document("sl2", preset.coxeter, preset.torus))
    doc["zk_orders"] = [5]  # d = p breaks the coprimality invariant
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "coprime" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    code, _, err = run(capsys, "validate", str(broken))
    assert code == 2

    doc = json.loads(dump_document("sl2", preset.coxeter, preset.torus))
    doc["coxeter"] = [[1, 2], [3, 1]]
    asym = tmp_path / "asym.json"
    asym.write_text(json.dumps(doc))
    assert run(capsys, "validate", str(asym))[0] == 1


def test_ext_regular_pair(capsys):
    code, out, _ = run(
        capsys,
        "ext",
        "--preset",
        "sl2:5",
        "--from",
        "1/4;",
        "--to",
        "3/4;",
        "--oracle",
    )
    assert code == 0
    assert "dimension (closed form): 2" in out
    assert "verdict: MATCH" in out


def test_ext_marked_pairs(capsys):
    code, out, _ = run(
        capsys, "ext", "--preset", "sl2:5", "--from", "0;s0", "--to", "0;s0",
        "--oracle",
    )
    assert code == 0
    assert "dimension (closed form): 0" in out
    assert "verdict: MATCH" in out


def test_ext_u21_hybrid(capsys):
    code, out, _ = run(
        capsys, "ext", "--preset", "u21:2", "--from", "1/3,0;s2",
        "--to", "1/3,0;", "--oracle",
    )
    assert code == 0
    assert "dimension (closed form): 1" in out
    assert "verdict: MATCH" in out


def test_ext_explain_prints_rows(capsys):
    code, out, _ = run(
        capsys, "ext", "--preset", "sl2:5", "--from", "0;s0", "--to", "0;s0",
        "--explain",
    )
    assert code == 0
    assert "Quadratic(s0)" in out
    # --oracle and --explain together print the dimension and the rows
    code, out, _ = run(
        capsys, "ext", "--preset", "sl2:5", "--from", "0;", "--to", "0;s0,s1",
        "--oracle", "--explain",
    )
    assert code == 0
    assert "dimension (oracle):      1" in out
    assert "verdict: MATCH" in out
    assert "Quadratic(s1)" in out


def test_ext_spec_errors(capsys):
    code, _, err = run(
        capsys, "ext", "--preset", "sl2:5", "--from", "zzz", "--to", "0;"
    )
    assert code == 2
    code, _, err = run(
        capsys, "ext", "--preset", "sl2:5", "--from", "1/4;s0", "--to", "0;"
    )
    assert code == 1
    assert "cannot be marked" in err
    # a phase whose denominator does not divide the generator order
    code, out, err = run(
        capsys, "ext", "--preset", "sl2:5", "--from", "1/3;", "--to", "0;"
    )
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "error: phase 1/3 has denominator not dividing generator order 4"
    ]
    code, line = run_failing(
        capsys, "ext", "--preset", "sl2:5", "--from", "0;s9", "--to", "0;"
    )
    assert code == 2
    assert "unknown reflection 's9'" in line


def test_ext_datum_errors(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    code, line = run_failing(
        capsys, "ext", "--datum", str(broken), "--from", "0;", "--to", "0;"
    )
    assert code == 2
    assert "invalid JSON" in line
    preset = sl2(5)
    doc = json.loads(dump_document("sl2", preset.coxeter, preset.torus))
    doc["zk_orders"] = [5]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, line = run_failing(
        capsys, "ext", "--datum", str(bad), "--from", "0;", "--to", "0;"
    )
    assert code == 1
    assert "coprime" in line


def test_action_moving_outside_subgroup_is_invalid(tmp_path, capsys):
    # inversion on Z/3 moves the generator outside the trivial subgroup,
    # which no real reflection does; both engines rely on it
    doc = {
        "name": "bad", "p": 2, "reflections": ["s0", "s1"],
        "coxeter": [[1, 0], [0, 1]], "zk_orders": [3],
        "actions": {"s0": [[2]], "s1": [[2]]},
        "subgroups": {"s0": [[0]], "s1": [[0]]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    expected = "error: action for 's0' moves generator 0 off its subgroup"
    assert run_failing(capsys, "validate", str(path)) == (1, expected)
    assert run_failing(
        capsys, "ext", "--datum", str(path), "--from", "1/3;s0", "--to", "1/3;",
        "--oracle",
    ) == (1, expected)
    assert run_failing(
        capsys, "table", "--datum", str(path), "--oracle"
    ) == (1, expected)


def test_ext_strict_mismatch_exit_code(capsys, monkeypatch):
    # the engines agree on every shipped pair, so plant a closed-form error
    real = cli.ext_dimension

    def off_by_one(*args):
        result = real(*args)
        return result._replace(dimension=result.dimension + 1)

    monkeypatch.setattr(cli, "ext_dimension", off_by_one)
    code, out, _ = run(
        capsys, "ext", "--preset", "sl2:5", "--from", "0;", "--to", "0;s0,s1",
        "--oracle", "--strict",
    )
    assert code == 4
    assert "MISMATCH" in out


def test_table_strict_mismatch_exit_code_for_both_formats(capsys, monkeypatch):
    argv = ("table", "--preset", "sl2:5", "--oracle", "--strict")
    code, dot, _ = run(capsys, *argv, "--format", "dot")
    assert code == 0
    real = quiver.marked_ext_dimension

    def off_by_one(*args):
        result = real(*args)
        return result._replace(dimension=result.dimension + 1)

    monkeypatch.setattr(quiver, "marked_ext_dimension", off_by_one)
    code, out, _ = run(capsys, *argv)
    assert code == 4
    assert "MISMATCH" in out
    # the DOT output draws the oracle's quiver, so only the exit code moves
    assert run(capsys, *argv, "--format", "dot") == (4, dot, "")


def test_table_oracle_enumerates_characters_once(capsys, monkeypatch):
    # both engines come from one pass over one node set
    real = hecke.enumerate_characters
    counted = []

    def counting(*args, **kwargs):
        counted.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hecke, "enumerate_characters", counting)
    code, out, _ = run(capsys, "table", "--preset", "u21:4", "--oracle", "--strict")
    assert code == 0
    assert len(counted) == 1
    assert len(out.splitlines()) == 2 + 150


def test_table_tsv(capsys):
    code, out, _ = run(
        capsys, "table", "--preset", "sl2:5", "--supersingular-only"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# heckext-table v1"
    rows = [l for l in lines if not l.startswith("#")]
    assert len(rows) == 5
    assert "1/4;\t3/4;\t2" in rows


def test_table_oracle_columns(capsys):
    code, out, _ = run(
        capsys, "table", "--preset", "sl2:5", "--supersingular-only", "--oracle"
    )
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert all(l.endswith("MATCH") for l in rows)


def test_table_dot(capsys):
    code, out, _ = run(
        capsys, "table", "--preset", "sl2:5", "--supersingular-only",
        "--format", "dot",
    )
    assert code == 0
    assert out.startswith("digraph ext_quiver {")


def test_table_bound_exceeded(capsys):
    code, _, err = run(
        capsys, "table", "--preset", "sl2:7", "--bound", "2"
    )
    assert code == 3
    code, line = run_failing(capsys, "blocks", "--preset", "sl2:7", "--bound", "2")
    assert code == 3
    assert "exceeds enumeration bound 2" in line


def test_blocks_sl2(capsys):
    code, out, _ = run(capsys, "blocks", "--preset", "sl2:5")
    assert code == 0
    assert "3 blocks" in out


def test_blocks_compare_u11_equal(capsys):
    code, out, _ = run(
        capsys, "blocks", "--preset", "u11:3", "--compare-l-packets"
    )
    assert code == 0
    assert "comparison: EQUAL" in out


def test_blocks_compare_sl_n_not_equal(capsys):
    code, out, _ = run(
        capsys, "blocks", "--preset", "sl_n:3:2", "--compare-l-packets"
    )
    assert code == 0
    assert "comparison: NOT EQUAL" in out
    assert "block spanning several packets" in out


def test_blocks_compare_sl_n_rotation_orbits(capsys):
    code, out, _ = run(
        capsys, "blocks", "--preset", "sl_n:3:3", "--compare-l-packets"
    )
    assert code == 0
    assert "comparison: " in out


def test_missing_datum_source(capsys):
    code, _, err = run(capsys, "ext", "--from", "0;", "--to", "0;")
    assert code == 2
    assert "--preset or --datum" in err


@pytest.mark.parametrize(
    "command", [("ext", "--from", "1/4;", "--to", "3/4;"), ("table",), ("blocks",)]
)
def test_preset_and_datum_together_is_a_parse_error(capsys, tmp_path, command):
    missing = str(tmp_path / "missing.json")
    code, line = run_failing(
        capsys, *command, "--preset", "sl2:5", "--datum", missing
    )
    assert code == 2
    assert "--preset" in line and "--datum" in line and "not both" in line


@pytest.mark.parametrize("bound", ["0", "-5"])
@pytest.mark.parametrize("command", ["table", "blocks"])
def test_bound_below_one_is_a_parse_error(capsys, command, bound):
    code, line = run_failing(
        capsys, command, "--preset", "sl_n:4:3", "--bound", bound
    )
    assert code == 2
    assert line == "error: --bound must be at least 1, got %s" % bound


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "heckext.cli"] + args,
        capture_output=True,
        check=False,
    )


def test_table_output_is_byte_deterministic():
    args = ["table", "--preset", "u21:2", "--oracle"]
    first = _run_cli(args)
    second = _run_cli(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_orders_four_and_six_run_silently_and_five_is_invalid(tmp_path, capsys):
    # affine C2 at q = 3: torus (Z/2)^2, where every inversion is trivial
    c2 = {
        "name": "c2", "p": 3, "reflections": ["s0", "s1", "s2"],
        "coxeter": [[1, 4, 2], [4, 1, 4], [2, 4, 1]],
        "zk_orders": [2, 2],
        "actions": {
            "s0": [[1, 0], [0, 1]], "s1": [[0, 1], [1, 0]], "s2": [[1, 0], [0, 1]],
        },
        "subgroups": {"s0": [[1, 0]], "s1": [[1, 1]], "s2": [[0, 1]]},
    }
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(c2))
    code, out, err = run(
        capsys, "ext", "--datum", str(path), "--from", "0,0;", "--to", "0,0;",
        "--strict",
    )
    assert (code, err) == (0, "")
    assert "dimension (closed form)" in out
    assert "oracle" not in out

    exotic = {
        "name": "exotic", "p": 5, "reflections": ["a", "b"],
        "coxeter": [[1, 5], [5, 1]], "zk_orders": [1],
        "actions": {"a": [[0]], "b": [[0]]},
        "subgroups": {"a": [[0]], "b": [[0]]},
    }
    path = tmp_path / "exotic.json"
    path.write_text(json.dumps(exotic))
    for argv in (
        ("validate", str(path)),
        ("ext", "--datum", str(path), "--from", "0;", "--to", "0;"),
        ("table", "--datum", str(path)),
    ):
        code, line = run_failing(capsys, *argv)
        assert code == 1
        assert line.startswith("error: field 'coxeter': m(a, b) must be"), line


def test_order_two_cross_pairs_match_the_oracle(tmp_path, capsys):
    # trivial torus; m(s0,s1) = 3, m(s1,s2) = m(s2,s3) = 2, all others inf
    doc = {
        "name": "chain", "p": 7, "reflections": ["s0", "s1", "s2", "s3"],
        "coxeter": [[1, 3, 0, 0], [3, 1, 2, 0], [0, 2, 1, 2], [0, 0, 2, 1]],
        "zk_orders": [1],
        "actions": {s: [[0]] for s in ("s0", "s1", "s2", "s3")},
        "subgroups": {s: [[0]] for s in ("s0", "s1", "s2", "s3")},
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys, "ext", "--datum", str(path), "--from", "0;s2", "--to", "0;s1,s3",
        "--oracle", "--strict",
    )
    assert code == 0
    assert "verdict: MATCH" in out


def test_validate_decides_primality_of_large_p(tmp_path, capsys):
    doc = json.loads(run(capsys, "presets", "show", "sl_n:5:3", "--json")[1])
    doc["p"] = 10**400
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    code, line = run_failing(capsys, "validate", str(huge))
    assert code == 1
    assert "too large" in line
    doc["p"] = 2**61 - 1
    mersenne = tmp_path / "mersenne.json"
    mersenne.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "validate", str(mersenne))
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "") and out.startswith("valid: ")


def run_or_usage_error(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_reused_without_state(monkeypatch, capsys):
    ext = ("ext", "--preset", "sl_n:3:3", "--from", "0,0;s1", "--to", "0,0;s2")
    sequence = [
        ext + ("--oracle", "--explain", "--strict"),
        ext,
        ("ext", "--preset", "sl2:5", "--from", "zzz", "--to", "0;"),
        ("ext", "--preset", "sl2:5", "--from", "0;"),
        ("table", "--preset", "u11:3"),
        ext + ("--oracle", "--explain", "--strict"),
    ]
    assert cli._parser() is cli._parser()
    reused = [run_or_usage_error(capsys, argv) for argv in sequence]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        fresh = [run_or_usage_error(capsys, argv) for argv in sequence]
    assert reused == fresh
    assert [r[0] for r in reused] == [0, 0, 2, ("SystemExit", 2), 0, 0]
    assert reused[0][1].count("constraint rows") == 1
