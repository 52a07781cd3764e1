"""No module of the package, the demos or the tests imports a name it never
uses. Only the package's ``__init__.py`` imports names for others, to
re-export them. Nothing under bench/ is read."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path
    for folder in ("src/seqsvm", "demos", "tests")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by import and never reads, in line order."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nfrom __future__ import annotations\nnp.x(d)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: c"]
