"""The README's documented library example runs against the package.

The python block under the ``## Library`` heading is executed as it
stands, so a change to the API it uses fails here before the README goes
stale.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python block between ``## Library`` and the next heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_library_example_runs():
    source = library_example()
    assert "classify(" in source
    exec(compile(source, f"{README.name}:Library", "exec"), {})
