"""Every function, class and method in ``pqh`` is reached by the program.

Two scans.  The static one: a definition counts as reached when its name
is read (a ``Name``, an ``Attribute`` or a ``from ... import``) somewhere
in ``src/pqh`` outside its own body, or in ``bench/workloads.py``.  Tests
are not readers, so a helper that only tests call fails here; its test
compares against an equal expression or a ``tests/reference.py`` copy
instead.  ``__init__.py`` is left out, since its imports are the
package's exports, and so are dunder methods, which Python calls by
protocol.

The static scan reads names, not types, so a method whose name another
class shares (``contains``, ``dim``, ``scale``) counts as reached when only
the other one is.  The runtime sweep closes that gap: it runs the CLI
corpus in-process under ``sys.setprofile`` (every command and mode, each
of the 11 kinds at n = 1 and 2, ``gen --dim``, the ``oracle`` and the
``tests/data`` files) and one request of each benchmark workload, and
every non-dunder function of the package must be entered.
"""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

from test_tracing_table import _load

import pqh
from pqh.classify import classify, oracle_check
from pqh.cli import main
from pqh.generate import KINDS, generate
from pqh.model import ModelSpace
from pqh.rng import Rng

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pqh"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = [ROOT / "bench" / "workloads.py"]


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


# -- the runtime sweep -------------------------------------------------------------

DATA = ROOT / "tests" / "data"
BENCH = ROOT / "bench"
MODES = ("generic", "form1", "form2", "nilpotent")


def _functions(package_dir: Path) -> dict:
    """(file, first line) -> qualified name of every non-dunder def in the
    package.  The first line is a decorated function's first decorator, as
    in ``co_firstlineno``."""
    out = {}
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = {
            (node.lineno, node.name): node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for qual, name, first, _last in _definitions(tree):
            node = defs.get((first, name))
            if node is None or (name.startswith("__") and name.endswith("__")):
                continue
            line = min([first] + [d.lineno for d in node.decorator_list])
            out[(str(path.resolve()), line)] = f"{path.stem}.{qual}"
    return out


def _cli(*argv) -> tuple:
    """(exit code, stdout) of one in-process run."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _cli_corpus(tmp_path: Path):
    """Every command and mode on each kind at n = 1 and 2, one seed."""
    for n in (1, 2):
        for kind in KINDS:
            code, text = _cli("gen", "--kind", kind, "--n", str(n), "--seed", "1")
            assert code == 0
            path = tmp_path / f"{kind}-{n}.json"
            path.write_text(text)
            _instance_commands(path)
    assert _cli("gen", "--kind", "generic", "--n", "2", "--dim", "3")[0] == 0
    for fmt in ([], ["--json"]):
        assert _cli("oracle", "--seed", "1", "--samples", "3", "--n", "1", *fmt)[0] == 0
        assert _cli("standardize", str(DATA / "structure_r4.json"), *fmt)[0] == 0
    for path in sorted(DATA.glob("instance_*.json")) + [DATA / "para_complex_with_u0.json"]:
        _instance_commands(path)


def _instance_commands(path: Path):
    empty = not json.loads(path.read_text())["vectors"]
    for fmt in ([], ["--json"]):
        for argv in (
            ["classify"], ["signature"], ["uft"], ["product", "--x", "0", "--y", "0"],
            *(["decompose", "--mode", mode] for mode in MODES),
        ):
            # product needs a basis vector, so it exits 2 on U = 0
            expected = 2 if empty and argv[0] == "product" else 0
            assert _cli(*argv, str(path), *fmt)[0] == expected, (path.name, argv)


def _bench_requests(tmp_path: Path):
    """One request of each in-process benchmark workload; ``workloads.py``
    imports the tracer as the top-level module ``tracing``."""
    saved = sys.modules.get("tracing")
    sys.modules["tracing"] = _load("tracing", BENCH / "tracing.py")
    try:
        workloads = _load("bench_workloads", BENCH / "workloads.py")
    finally:
        if saved is None:
            del sys.modules["tracing"]
        else:
            sys.modules["tracing"] = saved
    for workload in (workloads.ClassifySweep, workloads.DecomposeGraph):
        runner = workload(1, tmp_path)
        assert runner.run(runner.make())


def _forged_real_flag():
    """The oracle's real search names its witness only on a violation: a
    para-quaternionic U reported real is moved into itself by every draw."""
    ms, u = ModelSpace.standard(1), generate(Rng(1), 1, "para_quaternionic")
    report = classify(ms, u)
    forged = report._replace(flags=report.flags._replace(real=True))
    found = {f.name: f for f in oracle_check(ms, forged, u)}
    assert not found["real-no-sampled-violation"].ok
    assert found["real-no-sampled-violation"].detail.startswith("witness ")


def test_every_function_is_entered(tmp_path):
    functions = _functions(Path(pqh.__file__).resolve().parent)
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _cli_corpus(tmp_path)
        _bench_requests(tmp_path)
        _forged_real_flag()
    finally:
        sys.setprofile(None)
    seen = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in entered}
    assert sorted(name for key, name in functions.items() if key not in seen) == []
