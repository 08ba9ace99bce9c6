#!/usr/bin/env python3
"""Fold a traced benchmark run into a per-layer table.

Usage:
    python3 perfbench/fold_trace.py TRACE.json [--json]

TRACE.json is the Chrome trace-event document a traced run writes (open it
in https://ui.perfetto.dev to see the timeline). Every complete ("X") event
is one timed call; spans are grouped by name, and per name the table gives
the call count, total time and the p50/p90/p99 duration in microseconds.

Span args are folded too. A numeric arg gets its sum and percentiles. An
arg whose name ends in "_us" is the time of a child measurement inside the
span (the qgemm share of a layer forward, the ideal pipelined time of a
decode step), so the table also gives the span's self time with it
removed: `self.<arg>` = duration - arg, over the spans that carry the arg.

Stdlib only. Exit codes: 0 ok, 2 usage/bad input.
"""

import argparse
import json
import math
import sys


def quantile(values, q):
    """Nearest-rank q-quantile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _stats(values):
    return {
        "count": len(values),
        "sum": sum(values),
        "p50": quantile(values, 0.5),
        "p90": quantile(values, 0.9),
        "p99": quantile(values, 0.99),
    }


def fold(doc):
    """name -> {count, sum_us, p50, p90, p99, args: {k: stats},
    self: {k: stats}} over the complete events of a trace document."""
    durs, args, selfs = {}, {}, {}
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        name = ev["name"]
        dur = float(ev["dur"])
        durs.setdefault(name, []).append(dur)
        for k, v in (ev.get("args") or {}).items():
            if not isinstance(v, (int, float)):
                continue
            args.setdefault(name, {}).setdefault(k, []).append(float(v))
            if k.endswith("_us"):
                selfs.setdefault(name, {}).setdefault(k, []).append(dur - float(v))
    table = {}
    for name, values in durs.items():
        s = _stats(values)
        table[name] = {
            "count": s["count"],
            "sum_us": s["sum"],
            "p50": s["p50"],
            "p90": s["p90"],
            "p99": s["p99"],
            "args": {k: _stats(v) for k, v in args.get(name, {}).items()},
            "self": {k: _stats(v) for k, v in selfs.get(name, {}).items()},
        }
    return table


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")


def render(table):
    head = f"{'span':<32} {'count':>7} {'total_ms':>10} {'p50_us':>10} {'p90_us':>10} {'p99_us':>10}  self"
    lines = [head, "-" * len(head)]
    for name in sorted(table):
        row = table[name]
        selfs = " ".join(
            f"{k}:p50={v['p50']:.1f}" for k, v in sorted(row["self"].items())
        )
        lines.append(
            f"{name:<32} {row['count']:>7} {row['sum_us'] / 1e3:>10.2f} "
            f"{row['p50']:>10.1f} {row['p90']:>10.1f} {row['p99']:>10.1f}  {selfs}"
        )
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="Chrome trace-event JSON from a traced run")
    ap.add_argument("--json", action="store_true", help="print the table as JSON")
    args = ap.parse_args(argv)
    table = fold(load(args.trace))
    if not table:
        fail(f"{args.trace}: no complete events")
    print(json.dumps(table, indent=1, sort_keys=True) if args.json else render(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
