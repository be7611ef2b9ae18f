"""The package surface: public names loaded on first use, the README
example, what a fresh command imports, and frozen value types."""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import heckext
from heckext.document import dump_document, parse_document
from heckext.formula import ext_dimension
from heckext.hecke import parse_spec
from heckext.oracle import build_system
from heckext.presets import build_preset
from heckext.quiver import blocks, build_quiver, compare_partitions
from heckext.torus import enumerate_characters, twist

README = Path(__file__).resolve().parents[1] / "README.md"

# runs one command in a fresh interpreter, then prints the modules it
# loaded beyond those the interpreter had at start
LOADED_BY = """
import sys
bare = set(sys.modules)
from heckext.cli import main
main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - bare)))
"""


def loaded_by(*argv):
    done = subprocess.run(
        [sys.executable, "-c", LOADED_BY, *argv],
        capture_output=True, text=True, check=True,
    )
    return set(done.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--preset", "sl_n:4:3"),
        ("blocks", "--compare-l-packets", "--preset", "sl_n:4:3"),
    ],
)
def test_a_formula_command_loads_no_oracle_json_or_dataclasses(argv):
    loaded = loaded_by(*argv)
    assert "heckext.quiver" in loaded
    assert loaded.isdisjoint({"heckext.oracle", "json", "dataclasses"})


def test_table_oracle_loads_the_oracle_but_no_json_or_dataclasses():
    loaded = loaded_by("table", "--oracle", "--preset", "u21:3")
    assert "heckext.oracle" in loaded
    assert loaded.isdisjoint({"json", "dataclasses"})


@pytest.mark.parametrize("name", [n for n in heckext.__all__ if n != "__version__"])
def test_public_name_is_the_object_of_its_module(name):
    module = importlib.import_module("heckext." + heckext._MODULE_OF[name])
    value = getattr(heckext, name)
    assert value is getattr(module, name)
    if callable(value):
        assert value.__module__ == module.__name__


def test_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        heckext.no_such_name
    with pytest.raises(ImportError):
        from heckext import pair  # noqa: F401


def test_readme_library_example_runs():
    example = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(example.group(1), str(README), "exec"), {})


def value_types():
    """One instance of each of the eleven value types."""
    preset = build_preset("sl2:5")
    torus, cox = preset.torus, preset.coxeter
    xi1, xi2 = parse_spec(torus, cox, "1/4;"), parse_spec(torus, cox, "3/4;")
    quiver = build_quiver(torus, cox)
    parts = blocks(quiver)
    return [
        xi1.torus_char, xi1, torus, cox, preset, preset.automorphisms[1],
        ext_dimension(torus, cox, xi1, xi2), build_system(torus, cox, xi1, xi2),
        parse_document(dump_document("sl2", cox, torus)), quiver,
        compare_partitions(parts, parts),
    ]


def test_value_types_are_frozen():
    instances = value_types()
    assert len({type(v) for v in instances}) == 11
    for value in instances:
        for field in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))
            with pytest.raises(AttributeError):
                delattr(value, field)


def test_datum_equality_ignores_its_caches():
    preset, again = build_preset("u21:3"), build_preset("u21:3")
    for chi in enumerate_characters(preset.torus):
        twist(preset.torus, chi, "s1")
    assert preset.torus._table and not again.torus._table
    assert preset.torus == again.torus
    assert preset.coxeter == again.coxeter
    assert hash(preset.coxeter) == hash(again.coxeter)
    assert preset.coxeter._replace() == preset.coxeter
    assert preset.coxeter._replace()._positions == preset.coxeter._positions
