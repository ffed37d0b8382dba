"""The benchmark's three workloads.

Each workload makes requests from its own seeded ``Rng`` stream, one at a
time, so request ``i`` is the same for a given seed in every process (the
set-up probes make request 0, the measuring process makes 0 .. count).
Every request has the same composition and every instance is fresh.

``run(request, split)`` performs one request and returns whether all of its
correctness checks held; an exception also counts as a failure.  It calls
``split()`` between the request's timing phases, so that the runner can
read the host's speed there (``calibration.Clock``).
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from importlib import import_module
from pathlib import Path

import tracing

# Calls go through the module objects, never through names bound here, so
# the traced run's wrappers see the benchmark's own calls into pqh.
# (``import pqh.classify as m`` would give the function, not the module.)
pqh_classify = import_module("pqh.classify")
pqh_generate = import_module("pqh.generate")
pqh_instances = import_module("pqh.instances")
pqh_rng = import_module("pqh.rng")
pqh_uft = import_module("pqh.uft")
KINDS = pqh_generate.KINDS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# fixed dimension per kind, so every request has the same composition
DIMS_N4 = {
    "generic": 6,
    "para_quaternionic": 8,
    "complex": 4,
    "totally_complex": 4,
    "para_complex": 4,
    "weakly_para_complex": 4,
    "totally_para_complex": 4,
    "nilpotent": 3,
    "real": 3,
    "totally_real": 3,
    "decomposable": 4,
}
DIMS_N2 = {
    "generic": 4,
    "para_quaternionic": 4,
    "complex": 2,
    "totally_complex": 2,
    "para_complex": 2,
    "weakly_para_complex": 2,
    "totally_para_complex": 2,
    "nilpotent": 2,
    "real": 2,
    "totally_real": 2,
    "decomposable": 2,
}
FLAG_KINDS = set(KINDS) - {"generic", "decomposable"}


def _no_split():
    pass


def _stream(name: str, seed: int):
    return pqh_rng.Rng((zlib.crc32(name.encode()) << 32) ^ seed)


class ClassifySweep:
    """One request: classify, oracle-check and serialize one fresh instance
    of each of the 11 kinds at n = 4."""

    name = "classify-sweep"
    rate = 0.85  # nominal requests per second; fixes the request count

    def __init__(self, seed: int, workdir: Path):
        self.rng = _stream(self.name, seed)
        self.ms = pqh_generate.standard_model(4)

    def make(self):
        return [(kind, pqh_generate.generate(self.rng, 4, kind, dim)) for kind, dim in DIMS_N4.items()]

    def run(self, request, split=_no_split, trace_file=None) -> bool:
        ok = True
        for i, (kind, u) in enumerate(request):
            if i:
                split()  # one timing phase per instance
            report = pqh_classify.classify(self.ms, u)
            findings = pqh_classify.oracle_check(self.ms, report, u, seed=0)
            text = pqh_instances.canonical_json(pqh_instances.report_to_dict(report))
            ok = ok and all(f.ok for f in findings) and bool(text)
            if kind in FLAG_KINDS:
                ok = ok and report.flags.as_dict()[kind] is True
        return ok


class DecomposeGraph:
    """One request: the generic, form-2 and form-1 decompositions of one
    fresh graph subspace of dimension 12 at n = 6."""

    name = "decompose-graph"
    rate = 0.85

    def __init__(self, seed: int, workdir: Path):
        self.rng = _stream(self.name, seed)

    def make(self):
        return pqh_generate.generate(self.rng, 6, "generic", 12)

    def run(self, u, split=_no_split, trace_file=None) -> bool:
        pqh_classify.generic_decompose(u)  # raises unless the addends recompose U
        split()
        form2 = pqh_uft.decompose_form2(u)
        split()
        form1 = pqh_uft.decompose_form1(u)
        span2 = form2.graph.span()
        for piece in form2.pieces:
            span2 = span2.sum(piece.span())
        span1 = form1.graph.span()
        if form1.piece is not None:
            span1 = span1.sum(form1.piece.span())
        return span2 == u and span1 == u


def spawn(argv, stdout_path: Path, stderr_path: Path):
    """Run a child to completion with stdout and stderr in files.

    Returns ``(exit code, peak RSS in MiB)``; the peak RSS is the child's
    own, read from ``wait4``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644),
    ]
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    _pid, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024


class CliClassify:
    """One request: one ``python -m pqh.cli classify --json`` child on a
    fresh n = 2 instance; kinds go round-robin."""

    name = "cli-classify"
    rate = 1.25

    def __init__(self, seed: int, workdir: Path):
        self.rng = _stream(self.name, seed)
        self.ms = pqh_generate.standard_model(2)
        self.workdir = workdir
        self.made = 0
        self.peak_rss_mb = 0.0
        self.import_s = []  # (pqh_s, sympy_s) per traced child

    def make(self):
        kind = KINDS[self.made % len(KINDS)]
        u = pqh_generate.generate(self.rng, 2, kind, DIMS_N2[kind])
        path = self.workdir / f"instance-{self.made}.json"
        path.write_text(pqh_instances.emit_instance(self.ms, u), encoding="utf-8")
        self.made += 1
        return kind, path

    def run(self, request, split=_no_split, trace_file=None) -> bool:
        """One phase, so ``split`` is unused.  ``trace_file``: run the child through the tracing bootstrap and
        write its spans there."""
        kind, path = request
        out, err = path.with_suffix(".out"), path.with_suffix(".err")
        cli = ["classify", "--json", str(path)]
        if trace_file is None:
            argv = ["-m", "pqh.cli", *cli]
        else:
            argv = ["-X", "importtime", str(BENCH / "cli_boot.py"), str(trace_file), *cli]
        code, rss = spawn(argv, out, err)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        stderr = err.read_text(encoding="utf-8")
        if trace_file is not None:
            pqh_s, sympy_s, rest = tracing.parse_importtime(stderr)
            self.import_s.append((pqh_s, sympy_s))
            stderr = "\n".join(rest)
        if code != 0 or stderr:
            return False
        try:
            flags = json.loads(out.read_text(encoding="utf-8"))["flags"]
        except (ValueError, KeyError, TypeError):
            return False
        return kind not in FLAG_KINDS or flags.get(kind) is True


WORKLOADS = {w.name: w for w in (ClassifySweep, DecomposeGraph, CliClassify)}
