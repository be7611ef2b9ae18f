"""Source hygiene that no installed linter checks: unused module imports."""

import ast
from pathlib import Path

import heckext

SOURCE = Path(heckext.__file__).parent


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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_detected():
    source = "from __future__ import annotations\nimport os\nfrom a import b, c\nc()\n"
    assert unused_imports(source) == ["os", "b"]
    assert unused_imports("import os.path\nos.path.join()\n") == []


def test_no_unused_module_imports():
    # __init__.py imports names to re-export them
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}
