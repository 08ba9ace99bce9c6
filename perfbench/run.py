#!/usr/bin/env python3
"""Serving benchmark of the live llmpq runtime.

Usage (from the repository root):
    python3 perfbench/run.py --workload chat --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload batch --seed 1 --seconds 40 --repeat 5

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
library from src/) into .bench_build/perfbench on first use, runs one
workload and prints every metric by name with its unit and sample count,
then, as the last line, one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
also replays the workload traced and reports the per-layer ones (the span
timeline is kept at .bench_build/perfbench/runs/<workload>.trace.json).

--repeat K runs K seeds (seed, seed+1, ...) and prints each metric's median,
quartiles and quartile spread as a share of the median, the figure the
bounds in BENCHMARK.json are set from.

See perfbench/README.md for the workloads and metric definitions.
Exit codes: 0 ok, 1 build/run failure or incorrect output, 2 usage.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import derive  # noqa: E402
import fold_trace  # noqa: E402

BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("chat", "batch")
RUN_BUDGET_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the bench program; returns its path."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
            stdout=sys.stderr,
            check=True,
        )
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1), "--target", "perfbench"],
        stdout=sys.stderr,
        check=True,
    )
    return BUILD / "perfbench"


def run_once(exe, workload, seed, seconds, trace, deadline):
    """Runs the bench program once; returns (raw document, folded span table or
    None, trace path or None)."""
    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    raw_path = runs / f"{workload}-{seed}-{os.getpid()}.raw.json"
    trace_path = runs / f"{workload}.trace.json"
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    cmd += ["--trace", "1" if trace else "0", "--raw", str(raw_path)]
    if trace:
        cmd += ["--trace-out", str(trace_path)]
    # The kernel pool takes its default size (one thread per core); a
    # caller's LLMPQ_THREADS would silently change what is measured.
    env = {k: v for k, v in os.environ.items() if k != "LLMPQ_THREADS"}
    subprocess.run(
        cmd, stdout=sys.stderr, env=env, check=True, timeout=max(1.0, deadline - time.monotonic())
    )
    with open(raw_path, "r", encoding="utf-8") as f:
        raw = json.load(f)
    raw_path.unlink()
    folded = fold_trace.fold(fold_trace.load(str(trace_path))) if trace else None
    return raw, folded, (trace_path if trace else None)


def outcome(raw):
    """(attempted, failed) over the untraced run and, if any, the traced
    replay of the same requests."""
    serve = raw["serve"]
    attempted = serve["submitted"]
    failed = derive.failed_count(attempted, serve["requests"])
    if "traced" in raw:
        t = raw["traced"]
        attempted += serve["submitted"]
        failed += t["mismatches"] + (serve["submitted"] - t["completed"])
    return attempted, failed


def metrics_of(raw, folded):
    return derive.per_layer(raw, folded) if folded is not None else derive.end_to_end(raw)


def stamp_line(raw, trace):
    s = raw["stamp"]
    return (
        f"perfbench workload={raw['workload']} seed={s['seed']} seconds={raw['seconds']} "
        f"trace={int(trace)} nproc={s['nproc']} pool_threads={s['pool_threads']} "
        f"simd={s['simd']} build_type={s['build_type']}"
    )


def single(args, exe, deadline):
    raw, folded, trace_path = run_once(
        exe, args.workload, args.seed, args.seconds, args.trace, deadline
    )
    metrics = metrics_of(raw, folded)
    attempted, failed = outcome(raw)
    serve = raw["serve"]
    print(stamp_line(raw, args.trace))
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit:<8} (n={n})")
    print(
        f"  {'failed_frac':<34} "
        f"{derive.failed_frac(serve['submitted'], serve['requests']):>14.6g} frac     "
        f"(n={serve['submitted']})"
    )
    ttft_limit, tpot_limit = derive.SLO[args.workload]
    print(f"  slo limits: ttft <= {ttft_limit} s, tpot <= {tpot_limit} s")
    if trace_path is not None:
        print(f"  trace: {trace_path}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def repeat(args, exe):
    samples, units = {}, {}
    failed_total = 0
    for i in range(args.repeat):
        seed = args.seed + i
        raw, folded, _ = run_once(
            exe, args.workload, seed, args.seconds, args.trace, time.monotonic() + RUN_BUDGET_S
        )
        failed_total += outcome(raw)[1]
        for name, (value, unit, _) in metrics_of(raw, folded).items():
            samples.setdefault(name, []).append(value)
            units[name] = unit
        log(f"repeat {i + 1}/{args.repeat} seed={seed} done")
    print(f"perfbench repeat workload={args.workload} runs={args.repeat} seeds={args.seed}..{args.seed + args.repeat - 1}")
    print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  unit")
    summary = {}
    for name, values in samples.items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
        print(f"  {name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%}  {units[name]}")
    print(json.dumps({"failed": failed_total, "metrics": summary}))
    return 0 if failed_total == 0 else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="run K seeds and summarize")
    args = ap.parse_args(argv)
    try:
        exe = build()
        if args.repeat > 0:
            return repeat(args, exe)
        return single(args, exe, time.monotonic() + RUN_BUDGET_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
