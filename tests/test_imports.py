"""No module of the package imports a name that it never uses. An import
statement with a `# noqa: F401` comment, the flake8 code for an unused
import, is exempt: it is kept for its side effect."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "innerqft"


def unused_imports(source: str) -> list:
    """(line, name) of each name that `source` imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
                "# noqa: F401" in line
                for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from a import (b,\n    c as d)\nimport e  # noqa: F401\n"
              "print(b, os.sep)\n")
    assert unused_imports(source) == [(3, "d")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
