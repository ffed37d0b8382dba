"""Run one pqh benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: classify-sweep, decompose-graph, cli-classify (see README.md).
The timed phase is a fixed number of requests, ``S`` times the workload's
nominal rate, each a fresh instance made from ``--seed`` before timing.

Timings are reported in reference seconds: each phase of a request, and
each set-up probe, is scaled by the host speed that
``calibration.calibrate`` reads just before and just after it (see
README.md, "Reference seconds").  The raw wall-clock figures go to the
result file under ``wall``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
per-layer wrappers on every other request and prints the per-layer
metrics.  Either way the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the full record,
with provenance and raw samples, goes to
``bench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibration import REF_CAL_S, Clock, to_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 3
MIN_REQUESTS = 21  # ten samples beyond the tail percentile, which is >= p50
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MiB",
    "failed_frac": "1",
}
WORKLOADS = ("classify-sweep", "decompose-graph", "cli-classify")
REPORTED_END_TO_END = ("setup_s", "throughput_rps", "latency_p50_s",
                       "latency_tail_s", "peak_rss_mb")


def request_count(seconds: int, rate: float) -> int:
    return max(MIN_REQUESTS, round(seconds * rate))


def tail(latencies):
    """``(latency, percentile)`` at the highest percentile that still has
    ten samples beyond it."""
    ordered = sorted(latencies)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def git_sha():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def sympy_version():
    if "sympy" in sys.modules:
        return sys.modules["sympy"].__version__
    from importlib import metadata

    try:
        return metadata.version("sympy")
    except metadata.PackageNotFoundError:
        return None


def run_one(workload, request, clock, trace_file=None):
    """Whether one request passed; ``clock`` times it, phase by phase.  An
    exception is a failure."""
    clock.start()
    try:
        ok = workload.run(request, clock.split, trace_file)
    except Exception:  # a failed request is counted, never fatal
        traceback.print_exc(file=sys.stderr)
        ok = False
    clock.split()
    return ok


def run_probes(name, seed, workdir, importtime):
    """Set-up times of ``SETUP_PROBES`` fresh interpreters, as raw and as
    reference seconds, plus their import times when ``importtime``.  Each
    probe is scaled by the calibrations it makes itself."""
    import tracing
    import workloads

    raw, ref, imports, ok = [], [], [], True
    for i in range(SETUP_PROBES):
        out, err = workdir / f"probe-{i}.out", workdir / f"probe-{i}.err"
        argv = (["-X", "importtime"] if importtime else []) + [
            str(BENCH / "probe.py"), name, str(seed), repr(perf_counter()), str(workdir)
        ]
        code, _rss = workloads.spawn(argv, out, err)
        stderr = err.read_text(encoding="utf-8")
        if importtime:
            pqh_s, sympy_s, rest = tracing.parse_importtime(stderr)
            imports.append((pqh_s, sympy_s))
            stderr = "\n".join(rest)
        try:
            probe = json.loads(out.read_text(encoding="utf-8").splitlines()[-1])
        except (ValueError, IndexError):
            probe = {"ok": False}
        if code != 0 or stderr or not probe["ok"]:
            sys.stderr.write(f"set-up probe {i} failed (exit {code}):\n{stderr}\n")
            ok = False
            continue
        raw.append(probe["setup_s"])
        ref.append(to_reference(probe["setup_s"], *probe["cal_s"]))
    return raw, ref, imports, ok


def per_layer(tracer, gen, traced_n, total_n, cache, imports, traced_lat, untraced_lat):
    import tracing

    metrics = {}
    for name in tracing.NAMES:
        calls, self_s = tracer.calls, tracer.self_s
        n = traced_n
        if name == "generate.generate":  # runs in set-up, for every request
            calls, self_s, n = gen["calls"], gen["self_s"], total_n
        metrics[f"{name}.calls"] = calls.get(name, 0) / n
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    hits, misses = cache
    metrics["linalg.max_bits"] = tracer.max_bits
    metrics["subspace.maximal_pq.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["import.pqh_s"] = statistics.median(i[0] for i in imports) if imports else 0.0
    metrics["import.sympy_s"] = statistics.median(i[1] for i in imports) if imports else 0.0
    metrics["trace.traced_rps"] = len(traced_lat) / sum(traced_lat)
    metrics["trace.untraced_rps"] = len(untraced_lat) / sum(untraced_lat)
    units = {name: unit for name, unit, _better in tracing.per_layer_spec()}
    return {name: (value, units[name]) for name, value in metrics.items()}


def measure(name, seed, seconds, trace, workdir):
    import tracing
    import workloads

    cls = workloads.WORKLOADS[name]
    count = request_count(seconds, cls.rate)
    workload = cls(seed, workdir)
    in_process = name != "cli-classify"

    setup_raw, setup, probe_imports, probes_ok = run_probes(name, seed, workdir, trace)

    tracer = tracing.Tracer().prepare() if trace else None
    if tracer:
        tracer.install()
    requests = [workload.make() for _ in range(count + 1)]  # request 0 warms up
    gen = None
    if tracer:
        tracer.uninstall()
        gen = tracer.snapshot()
        tracer.reset()
    clock = Clock()
    warm_ok = run_one(workload, requests[0], clock)

    raw, latencies, traced_flags = [], [], []
    cache = [0, 0]
    failed = 0
    start = perf_counter()
    for i, request in enumerate(requests[1:], 1):
        traced = tracer is not None and i % 2 == 0
        trace_file = None
        if traced and in_process:
            before = tracing.maximal_pq_cache() or (0, 0)
            tracer.install()
        elif traced:
            trace_file = workdir / f"spans-{i}.json"
        ok = run_one(workload, request, clock, trace_file)
        if traced and in_process:
            tracer.uninstall()
            after = tracing.maximal_pq_cache() or (0, 0)
            cache[0] += after[0] - before[0]
            cache[1] += after[1] - before[1]
        elif trace_file is not None and trace_file.is_file():
            snap = json.loads(trace_file.read_text(encoding="utf-8"))
            tracer.merge(snap)
            cache[0] += snap["cache"][0]
            cache[1] += snap["cache"][1]
        raw.append(clock.wall)
        latencies.append(clock.ref)
        traced_flags.append(traced)
        failed += not ok
    wall = perf_counter() - start

    tail_s, tail_pct = tail(latencies)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "sympy": sympy_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "requests": count,
        "tail_percentile": tail_pct,
        "ref_cal_s": REF_CAL_S,
        "setup_probes_s": setup,
        "latencies_s": latencies,
        "wall": {
            "setup_probes_s": setup_raw,
            "latencies_s": raw,
            "timed_phase_s": wall,
            "setup_s": statistics.median(setup_raw) if setup_raw else None,
            "throughput_rps": count / sum(raw),
            "latency_p50_s": statistics.median(raw),
            "latency_tail_s": tail(raw)[0],
        },
    }
    correct = failed == 0 and probes_ok and warm_ok
    if trace:
        imports = probe_imports if in_process else workload.import_s
        traced_lat = [x for x, t in zip(latencies, traced_flags) if t]
        untraced_lat = [x for x, t in zip(latencies, traced_flags) if not t]
        metrics = per_layer(tracer, gen, len(traced_lat), count + 1, cache, imports,
                            traced_lat, untraced_lat)
        bypassed = [
            f"{layer}.{qual}" for layer, qual, home in tracing.TABLE
            if home == name and f"{layer}.{qual}" not in tracer.missing
            and metrics[f"{layer}.{qual}.calls"][0] == 0
        ]
        if bypassed:
            sys.stderr.write("traced functions recorded no calls on their home "
                             f"workload (wrapper bypassed?): {', '.join(bypassed)}\n")
            correct = False
        record["missing_functions"] = tracer.missing
        record["bypassed_functions"] = bypassed
        record["traced_requests"] = len(traced_lat)
    else:
        peak = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                if in_process else workload.peak_rss_mb)
        values = {
            "setup_s": statistics.median(setup) if setup else 0.0,
            "throughput_rps": count / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_s,
            "peak_rss_mb": peak,
            "failed_frac": failed / count,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    record["correct"] = correct
    record["attempted"] = count
    record["failed"] = failed
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pqh" / "__init__.py").is_file():
        print(f"error: no pqh sources under {ROOT / 'src' / 'pqh'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    out_dir = BENCH / "out"
    workdir = out_dir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    metrics = record["metrics"]
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    if not args.trace:
        for name, value in record["wall"].items():
            if name in END_TO_END_UNITS:
                print(f"wall.{name} {value} {END_TO_END_UNITS[name]}")
    reported = {k: v for k, v in metrics.items()
                if args.trace or k in REPORTED_END_TO_END}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
