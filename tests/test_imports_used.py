"""Every name a ``pqh`` or test module imports is read in that module.

A deletion that leaves an import behind fails here.  ``__init__.py`` is
left out: its imports are the package's exports.  So are the names a test
module imports only to share them with the others (``RE_EXPORTS``).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pqh"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(
    (ROOT / "tests").glob("*.py")
)
RE_EXPORTS = {"conftest.py": {"random_sl2"}}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_scan_sees_an_unused_import():
    source = "from fractions import Fraction\nimport math\nx = math.pi\n"
    assert unused_imports(source) == [(1, "Fraction")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    shared = RE_EXPORTS.get(path.name, set())
    assert [(line, name) for line, name in unused_imports(path.read_text()) if name not in shared] == []
