"""Tracing bootstrap for one CLI child.

    python -X importtime bench/cli_boot.py SPANS_FILE ARGS...

Imports the CLI, installs the benchmark's wrappers, runs
``pqh.cli.main(ARGS)`` and, once it returns, writes the spans it recorded
to SPANS_FILE as JSON.  Exits with ``main``'s code, like ``python -m
pqh.cli ARGS``.
"""

import json
import sys

import pqh.cli  # noqa: F401  (import first: its cost is what -X importtime reports)

import tracing


def main(argv):
    spans_file, args = argv[0], argv[1:]
    tracer = tracing.Tracer().prepare()
    tracer.install()
    try:
        return sys.modules["pqh.cli"].main(args)
    finally:
        snap = tracer.snapshot()
        snap["cache"] = tracing.maximal_pq_cache() or (0, 0)
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(snap, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
