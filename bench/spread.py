"""Check the benchmark's own steadiness and its traced run.

    python3 bench/spread.py spread --seeds 1-10 [--workloads A,B] --out FILE
        Run every workload listed in BENCHMARK.json (or those named) once
        per seed, untraced, and record, for each
        end-to-end metric, the median and the quartile spread
        (Q3 - Q1) / median of the per-seed values, against the bound in
        BENCHMARK.json.

    python3 bench/spread.py compare FIRST SECOND
        For two files written by ``spread``, against the bounds in
        BENCHMARK.json: is every median of SECOND within the bound of
        FIRST, in the direction that counts as worse, and is every spread
        but that of setup_s within its bound?

    python3 bench/spread.py trace --seed N --out FILE
        Run all three workloads (cli-classify included) traced, twice at
        the same seed.  Checks that the per-request call counts repeat
        exactly and that every traced function records calls on some
        workload, and reports the tracing overhead.

Every run uses ``run_seconds`` from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload, seed, trace):
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_spread(args):
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in SPEC["workloads"]]
    summary = {"seeds": seeds(args.seeds), "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for name in names:
        values = {}
        for seed in summary["seeds"]:
            for metric, value in run(name, seed, 0).items():
                values.setdefault(metric, []).append(value)
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        rows = {}
        for metric in SPEC["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[metric["name"]] = {
                "values": vals, "median": med, "spread": (q3 - q1) / med,
                "bound": metric["bound"], "better": metric["better"],
            }
            print(f"  {metric['name']}: median {med:.4f} spread {(q3 - q1) / med:.3f}"
                  f" (bound {metric['bound']})", flush=True)
        summary["workloads"][name] = rows
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


def cmd_compare(args):
    first = json.loads(Path(args.first).read_text(encoding="utf-8"))
    second = json.loads(Path(args.second).read_text(encoding="utf-8"))
    ok = True
    for name, rows in first["workloads"].items():
        for metric in SPEC["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a, b = rows[key], second["workloads"][name][key]
            worse = (b["median"] - a["median"]) / a["median"]
            if metric["better"] == "higher":
                worse = -worse
            steady = key == "setup_s" or max(a["spread"], b["spread"]) <= bound
            verdict = "ok" if worse <= bound and steady else "FAIL"
            ok = ok and verdict == "ok"
            print(f"{name:16} {key:15} median {a['median']:.4f} -> {b['median']:.4f}"
                  f" worse by {worse:+.3f}, spreads {a['spread']:.3f} {b['spread']:.3f},"
                  f" bound {bound} {verdict}")
    return 0 if ok else 1


def cmd_trace(args):
    out = {"seed": args.seed, "workloads": {}}
    called = set()
    ok = True
    for name in WORKLOADS:
        first, second = run(name, args.seed, 1), run(name, args.seed, 1)
        calls = {k: v for k, v in first.items() if k.endswith(".calls")}
        repeat = calls == {k: v for k, v in second.items() if k.endswith(".calls")}
        ok = ok and repeat
        called |= {k for k, v in calls.items() if v > 0}
        overhead = first["trace.untraced_rps"] / first["trace.traced_rps"] - 1
        out["workloads"][name] = {"calls_repeat": repeat, "tracing_overhead": overhead,
                                  "metrics": first}
        print(f"{name}: calls repeat {repeat}, tracing overhead {overhead:+.3f}", flush=True)
    never = sorted(m["name"] for m in SPEC["per_layer"]
                   if m["name"].endswith(".calls") and m["name"] not in called)
    out["never_called"] = never
    print("never called on any workload:", never or "none")
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0 if ok and not never else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default="")
    p.add_argument("--out", required=True)
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    p = sub.add_parser("trace")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    return {"spread": cmd_spread, "compare": cmd_compare, "trace": cmd_trace}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
