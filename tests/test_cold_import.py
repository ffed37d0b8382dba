"""Importing the package generates no code.

A fresh interpreter imports ``pqh`` and then ``pqh.cli``, as every CLI
run does.  No module of ``src/pqh`` may pull in ``dataclasses`` (which
``exec``s generated methods for every class it decorates and imports
``inspect``), ``inspect`` or ``sympy``.  The interpreter runs isolated and
without ``site``, so only what the package itself imports is seen.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BANNED = ("dataclasses", "inspect", "sympy")


def test_import_loads_no_code_generation():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import pqh, pqh.cli; "
        f"print(*sorted(m for m in {BANNED!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
