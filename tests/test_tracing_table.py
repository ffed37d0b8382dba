"""The benchmark's tracer patches functions by name; every name must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer, qualname, _home in tracing.TABLE:
        obj = importlib.import_module(f"pqh.{layer}")
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{layer}.{qualname}")
    assert missing == []


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_record_calls_on_their_home_workload(tmp_path):
    """A refactor that routes around a traced function would leave its
    per-layer metric reading zero; each name must be called on its home."""
    bench = TRACING.parent
    tracing = _load("tracing", TRACING)
    # workloads.py imports the tracer as the top-level module ``tracing``
    saved = sys.modules.get("tracing")
    sys.modules["tracing"] = tracing
    try:
        workloads = _load("bench_workloads", bench / "workloads.py")
    finally:
        if saved is None:
            del sys.modules["tracing"]
        else:
            sys.modules["tracing"] = saved
    importlib.import_module("pqh.cli")
    tracer = tracing.Tracer().prepare()
    assert tracer.missing == []

    def traced(fn, *args):
        tracer.reset()
        tracer.install()
        try:
            return fn(*args), dict(tracer.calls)
        finally:
            tracer.uninstall()

    # counted as bench/run.py counts them: the timed run() calls, plus
    # generate.generate from the set-up that make() does
    recorded = {}
    for workload in (workloads.ClassifySweep, workloads.DecomposeGraph):
        runner = workload(1, tmp_path)
        request, made = traced(runner.make)
        ok, calls = traced(runner.run, request)
        assert ok
        calls["generate.generate"] = made.get("generate.generate", 0)
        recorded[workload.name] = calls
    bypassed = [
        f"{layer}.{qual}"
        for layer, qual, home in tracing.TABLE
        if home in recorded and not recorded[home].get(f"{layer}.{qual}")
    ]
    assert bypassed == []
