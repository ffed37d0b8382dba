"""Every function, class and method in ``pqh`` is read by name elsewhere.

A definition counts as reached when its name is read (a ``Name``, an
``Attribute`` or a ``from ... import``) somewhere in ``src/pqh`` outside
its own body, in ``bench/workloads.py`` or in ``tests/test_acceptance.py``.
``__init__.py`` is left out, since its imports are the package's exports,
and so are dunder methods, which Python calls by protocol.

This is a lower bound on dead code: the scan reads names, not types, so a
method whose name another class shares (``contains``, ``dim``, ``scale``)
counts as reached when only the other one is.  Finding those takes a
runtime sweep.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pqh"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = [ROOT / "bench" / "workloads.py", ROOT / "tests" / "test_acceptance.py"]


def _definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, name, first line, last line) of every def and class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = prefix + node.name
            yield qual, node.name, node.lineno, node.end_lineno
            yield from _definitions(node, qual + ".")
        else:
            yield from _definitions(node, prefix)


def _reads(tree: ast.AST):
    """(name, line) of every name the tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unreached(modules: dict, readers: list) -> list:
    """The definitions in ``modules`` (name -> source) that nothing reads.

    Reads in ``readers`` (sources) count wherever they are; reads in a
    module count unless they lie inside the definition itself.
    """
    trees = {name: ast.parse(src) for name, src in modules.items()}
    reads = {name: list(_reads(tree)) for name, tree in trees.items()}
    outside = {name for src in readers for name, _ in _reads(ast.parse(src))}
    dead = []
    for mod, tree in trees.items():
        for qual, name, first, last in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in outside:
                continue
            if any(
                read == name and (other != mod or not first <= line <= last)
                for other, rs in reads.items()
                for read, line in rs
            ):
                continue
            dead.append(f"{mod}.{qual}")
    return sorted(dead)


def test_the_scan_sees_a_dead_def():
    module = (
        "def used():\n"
        "    return 1\n"
        "def dead():\n"
        "    return dead() + used()\n"
        "class C:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def m(self):\n"
        "        return 0\n"
    )
    reader = "from a import C\nC().m()\n"
    assert unreached({"a": module}, [reader]) == ["a.dead"]


def test_every_definition_is_reached():
    modules = {p.stem: p.read_text() for p in MODULES}
    assert unreached(modules, [p.read_text() for p in READERS]) == []
