"""No module of the package, the demos or the tests imports a name it never
uses. Only the package's ``__init__.py`` imports names for others, to
re-export them. No module of the package but ``ddag`` and ``archsim`` names
the DAG's FSM in ``ddag``'s terms: the others read it from the design
record, ``archsim.rtl``. Nothing under bench/ is read."""

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


#: ddag's description of the FSM, which only ddag and archsim.rtl may read.
FSM_NAMES = ("fsm_arms", "pair_index", "state_bits_for")


def fsm_names(source: str) -> list[str]:
    """Where ``source`` imports, reads or takes as an attribute a name of FSM_NAMES, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        else:
            names = [node.id] if isinstance(node, ast.Name) else [node.attr] if isinstance(node, ast.Attribute) else []
        found += [(node.lineno, name) for name in names if name in FSM_NAMES]
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize(
    "path",
    [path for path in sorted((ROOT / "src/seqsvm").glob("*.py")) if path.name not in ("ddag.py", "archsim.py")],
    ids=lambda p: p.name,
)
def test_only_ddag_and_archsim_name_the_fsm(path):
    assert fsm_names(path.read_text()) == []


def test_a_name_of_the_fsm_is_found():
    source = ("from .ddag import pair_index as p, row_pairs\nimport seqsvm.ddag.fsm_arms\nddag.state_bits_for(4)\n"
              "fsm_arms(n)\n")
    assert fsm_names(source) == [
        "line 1: pair_index", "line 2: fsm_arms", "line 3: state_bits_for", "line 4: fsm_arms"]
