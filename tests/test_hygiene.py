"""Source hygiene that no installed linter checks: unused module imports,
module-private names the module never reads, and CLI arguments without help."""

import argparse
import ast
from pathlib import Path

import heckext
from heckext.cli import build_parser

SOURCE = Path(heckext.__file__).parent


def read_names(tree: ast.AST) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    ``__future__`` imports are compiler directives, not names, and are skipped.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append((alias.asname or alias.name).split(".")[0])
    used = read_names(tree)
    return [name for name in bound if name not in used]


def unread_private_names(source: str) -> list[str]:
    """Top-level ``_name`` functions, classes and constants the module never reads.

    Dunder names such as ``__all__`` are read by the import system, not by
    the module, and are skipped.
    """
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    used = read_names(tree)
    return [
        name
        for name in defined
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]


def test_unused_imports_are_detected():
    source = "from __future__ import annotations\nimport os\nfrom a import b, c\nc()\n"
    assert unused_imports(source) == ["os", "b"]
    assert unused_imports("import os.path\nos.path.join()\n") == []


def test_unread_private_names_are_detected():
    source = (
        "__all__ = []\n_A = 1\n_B: int = 2\nPUBLIC = _A\n"
        "def _f():\n    return _g()\n"
        "def _g():\n    pass\n"
        "class _C:\n    _hidden = 3\n"
    )
    assert unread_private_names(source) == ["_B", "_f", "_C"]


def test_no_unused_module_imports():
    # __init__.py imports names to re-export them
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_no_unread_private_names():
    found = {
        path.name: unread_private_names(path.read_text())
        for path in sorted(SOURCE.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}


def arguments_without_help(parser: argparse.ArgumentParser, command=()) -> list[str]:
    """Options and positionals of every subcommand that carry no help text,
    each as the words that reach it, e.g. ``"validate path"``."""
    found = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found += arguments_without_help(sub, command + (name,))
        elif not action.help:
            flag = action.option_strings[0] if action.option_strings else action.dest
            found.append(" ".join(command + (flag,)))
    return found


def test_arguments_without_help_are_detected():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bare")
    sub = parser.add_subparsers(dest="command").add_parser("run")
    sub.add_argument("target")
    sub.add_argument("--fine", help="has help")
    assert arguments_without_help(parser) == ["--bare", "run target"]


def test_every_cli_argument_has_help():
    assert arguments_without_help(build_parser()) == []
