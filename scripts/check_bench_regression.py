#!/usr/bin/env python3
"""Bench-regression gate: diff a fresh "llmpq-bench/v1" artifact against a
committed baseline.

Usage:
    scripts/check_bench_regression.py \
        --baseline bench/baselines/table4_hetero_serving.json \
        --current build/BENCH_table4_hetero_serving.json \
        [--tolerance 0.15]

The gated bench numbers come from the deterministic discrete-event
simulator (jitter=0 roofline model), so on one toolchain the artifact
reproduces the baseline bit-for-bit; the relative tolerance (default 15%)
absorbs float variance across compilers and libm versions. Wall-clock
benches are machine-dependent and must not be gated here.

Checks, per (cluster, scheme) row of the *baseline*:
  * the row exists in the current artifact;
  * ok/OOM status matches (a scheme newly fitting or newly OOMing is a
    behavior change, not noise);
  * for ok rows, ppl / latency_s / throughput_tok_s are each within the
    relative tolerance of the baseline value.

Rows present only in the current artifact are reported but do not fail the
gate (new clusters/schemes land first, the baseline is regenerated after).

--floor-ratio CLUSTER/NUM_SCHEME/DEN_SCHEME/MIN (repeatable) adds an
absolute floor on the *current* artifact: throughput_tok_s of NUM_SCHEME
must be >= MIN x throughput_tok_s of DEN_SCHEME within that cluster slot.
This is how CI pins "continuous batching >= static batching at the highest
arrival rate" — a ratio of deterministic simulator rows, gated directly
rather than via drift from a baseline (a baseline refresh cannot quietly
bless an ordering regression).

--floor-value CLUSTER/SCHEME/FIELD/MIN (repeatable) adds an absolute floor
on a single field of a *current* row: the named field must be >= MIN. This
is how CI pins the multi-tenant fairness floor — the min-tenant row's
slo_attainment may never fall below the committed floor, independent of
baseline drift (a baseline refresh cannot quietly bless a starved tenant).

--kind kernels switches to the "llmpq-kernels/v1" schema written by
bench_ext_qgemm_kernels: the baseline holds a floor
(`min_speedup_vs_scalar`) per (bits, format, dispatch) cell and the gate
requires the fresh measurement to clear it. Speedup ratios are
machine-portable (both kernels run back to back on the same box), which is
what makes a wall-clock bench gateable at all. Baseline cells whose
dispatch level the host lacks (e.g. avx512 on an AVX2-only runner) are
skipped, so one committed baseline serves the whole CI matrix. The
baseline's `ratio_floors` (`min_ratio` per (name, dispatch), e.g. the
single-row decode time ratio b16/b4, or the attention kernel's
scalar/level time ratio) gate the artifact's `ratios` the same way.

Stdlib only. Exit codes: 0 pass, 1 regression, 2 usage/bad input.
"""

import argparse
import json
import sys

SCHEMA = "llmpq-bench/v1"
KERNELS_SCHEMA = "llmpq-kernels/v1"
METRICS = ("ppl", "latency_s", "throughput_tok_s")


def load(path, schema=SCHEMA):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    if doc.get("schema") != schema:
        sys.exit(
            f"error: {path}: schema {doc.get('schema')!r} != {schema!r} "
            "(regenerate the baseline after schema bumps)"
        )
    return doc


def check_kernels(baseline_path, current_path):
    """Gate kernel speedups: measured speedup_vs_scalar >= baseline floor
    per (bits, format, dispatch), and each decode time ratio >= its
    ratio_floors entry per (name, dispatch); cells absent from the current
    artifact (dispatch level not available on this host) are skipped."""
    base = load(baseline_path, KERNELS_SCHEMA)
    cur = load(current_path, KERNELS_SCHEMA)
    cur_rows = {
        (r.get("bits"), r.get("format"), r.get("dispatch")): r
        for r in cur.get("rows", [])
    }
    if not base.get("rows"):
        sys.exit(f"error: {baseline_path} contains no rows")

    failures = []
    checked = skipped = 0
    cur_ratios = {
        (r.get("name"), r.get("dispatch")): r.get("ratio")
        for r in cur.get("ratios", [])
    }
    for row in base.get("ratio_floors", []):
        key = (row.get("name"), row.get("dispatch"))
        label = "{} ({})".format(*key)
        floor = row.get("min_ratio")
        if not isinstance(floor, (int, float)):
            failures.append(f"{label}: baseline floor is not numeric")
            continue
        if key not in cur_ratios:
            skipped += 1  # dispatch level unavailable on this host
            continue
        got = cur_ratios[key]
        if not isinstance(got, (int, float)):
            failures.append(f"{label}: ratio is not numeric")
        elif got < floor:
            failures.append(
                f"{label}: time ratio {got:.2f}x below floor {floor:.2f}x"
            )
        checked += 1
    for row in base["rows"]:
        key = (row.get("bits"), row.get("format"), row.get("dispatch"))
        label = "{}b/{}/{}".format(*key)
        floor = row.get("min_speedup_vs_scalar")
        if not isinstance(floor, (int, float)):
            failures.append(f"{label}: baseline floor is not numeric")
            continue
        cur_row = cur_rows.get(key)
        if cur_row is None:
            skipped += 1  # dispatch level unavailable on this host
            continue
        got = cur_row.get("speedup_vs_scalar")
        if not isinstance(got, (int, float)):
            failures.append(f"{label}: speedup_vs_scalar is not numeric")
        elif got < floor:
            failures.append(
                f"{label}: speedup {got:.2f}x below floor {floor:.2f}x"
            )
        checked += 1

    if failures:
        print(f"kernel regression: {len(failures)} failure(s) "
              f"vs {baseline_path}:")
        for f in failures:
            print(f"  FAIL {f}")
        return 1
    print(f"kernel regression: {checked} cell(s) above their floors "
          f"({skipped} skipped: dispatch unavailable) vs {baseline_path}")
    return 0


def index_rows(doc):
    """{(cluster_index, scheme): row} over every cluster in the artifact."""
    rows = {}
    for cluster in doc.get("clusters", []):
        for row in cluster.get("rows", []):
            rows[(cluster.get("cluster"), row.get("scheme"))] = row
    return rows


def rel_diff(base, cur):
    denom = max(abs(base), 1e-12)
    return abs(cur - base) / denom


def parse_floor_ratio(spec):
    """CLUSTER/NUM_SCHEME/DEN_SCHEME/MIN -> (int, str, str, float)."""
    parts = spec.split("/")
    if len(parts) != 4:
        sys.exit(f"error: --floor-ratio {spec!r}: expected "
                 "CLUSTER/NUM_SCHEME/DEN_SCHEME/MIN")
    try:
        return int(parts[0]), parts[1], parts[2], float(parts[3])
    except ValueError as e:
        sys.exit(f"error: --floor-ratio {spec!r}: {e}")


def parse_floor_value(spec):
    """CLUSTER/SCHEME/FIELD/MIN -> (int, str, str, float)."""
    parts = spec.split("/")
    if len(parts) != 4:
        sys.exit(f"error: --floor-value {spec!r}: expected "
                 "CLUSTER/SCHEME/FIELD/MIN")
    try:
        return int(parts[0]), parts[1], parts[2], float(parts[3])
    except ValueError as e:
        sys.exit(f"error: --floor-value {spec!r}: {e}")


def check_floor_values(current, specs, failures):
    """Absolute per-field floors on current rows. Appends to `failures`;
    returns the number of floors checked."""
    checked = 0
    for cluster, scheme, field, floor in specs:
        label = f"cluster {cluster}: {scheme}.{field} >= {floor:g}"
        row = current.get((cluster, scheme))
        if row is None:
            failures.append(f"{label}: scheme missing from current artifact")
            continue
        if not row.get("ok"):
            failures.append(f"{label}: scheme not ok "
                            f"(note: {row.get('note')!r})")
            continue
        value = row.get(field)
        if not isinstance(value, (int, float)):
            failures.append(f"{label}: field {field!r} not numeric "
                            f"(got {value!r})")
            continue
        if value < floor:
            failures.append(f"{label}: value {value:.6g} below floor")
        else:
            print(f"floor-value ok: {label} (got {value:.6g})")
        checked += 1
    return checked


def check_floor_ratios(current, specs, failures):
    """Appends to `failures`; returns the number of ratios checked."""
    checked = 0
    for cluster, num_scheme, den_scheme, floor in specs:
        label = (f"cluster {cluster}: {num_scheme}/{den_scheme} "
                 f">= {floor:.2f}")
        num = current.get((cluster, num_scheme))
        den = current.get((cluster, den_scheme))
        if num is None or den is None:
            failures.append(f"{label}: scheme missing from current artifact")
            continue
        if not num.get("ok") or not den.get("ok"):
            failures.append(f"{label}: scheme not ok "
                            f"({num.get('note')!r} / {den.get('note')!r})")
            continue
        num_v = num.get("throughput_tok_s")
        den_v = den.get("throughput_tok_s")
        if not isinstance(num_v, (int, float)) or not isinstance(
                den_v, (int, float)) or den_v <= 0:
            failures.append(f"{label}: throughput_tok_s not usable")
            continue
        ratio = num_v / den_v
        if ratio < floor:
            failures.append(
                f"{label}: ratio {ratio:.3f} below floor "
                f"({num_v:.6g} vs {den_v:.6g} tok/s)"
            )
        else:
            print(f"floor-ratio ok: {label} (got {ratio:.2f})")
        checked += 1
    return checked


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed relative drift per metric (default 0.15)")
    ap.add_argument("--kind", choices=("bench", "kernels"), default="bench",
                    help="artifact schema: simulator bench rows (default) "
                         "or kernel speedup floors")
    ap.add_argument("--floor-ratio", action="append", default=[],
                    metavar="CLUSTER/NUM_SCHEME/DEN_SCHEME/MIN",
                    help="require throughput(NUM) >= MIN*throughput(DEN) in "
                         "the current artifact's cluster slot (repeatable)")
    ap.add_argument("--floor-value", action="append", default=[],
                    metavar="CLUSTER/SCHEME/FIELD/MIN",
                    help="require the current row's FIELD >= MIN "
                         "(repeatable; e.g. the min-tenant SLO-attainment "
                         "fairness floor)")
    args = ap.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        ap.error("--tolerance must be in [0, 1)")
    if args.kind == "kernels":
        if args.floor_ratio or args.floor_value:
            ap.error("--floor-ratio/--floor-value apply to --kind bench only")
        return check_kernels(args.baseline, args.current)

    baseline = index_rows(load(args.baseline))
    current = index_rows(load(args.current))
    if not baseline:
        sys.exit(f"error: {args.baseline} contains no rows")

    failures = []
    checked = 0
    for key, base_row in sorted(baseline.items()):
        cluster, scheme = key
        label = f"cluster {cluster} / {scheme}"
        cur_row = current.get(key)
        if cur_row is None:
            failures.append(f"{label}: missing from current artifact")
            continue
        if bool(base_row.get("ok")) != bool(cur_row.get("ok")):
            failures.append(
                f"{label}: ok changed {base_row.get('ok')} -> "
                f"{cur_row.get('ok')} (note: {cur_row.get('note')!r})"
            )
            continue
        if not base_row.get("ok"):
            checked += 1
            continue
        for metric in METRICS:
            base_v = base_row.get(metric)
            cur_v = cur_row.get(metric)
            if not isinstance(base_v, (int, float)) or not isinstance(
                    cur_v, (int, float)):
                failures.append(f"{label}: {metric} is not numeric")
                continue
            d = rel_diff(base_v, cur_v)
            if d > args.tolerance:
                failures.append(
                    f"{label}: {metric} drifted {d * 100:.1f}% "
                    f"({base_v:.6g} -> {cur_v:.6g}, tol "
                    f"{args.tolerance * 100:.0f}%)"
                )
        checked += 1

    checked += check_floor_ratios(
        current, [parse_floor_ratio(s) for s in args.floor_ratio], failures)
    checked += check_floor_values(
        current, [parse_floor_value(s) for s in args.floor_value], failures)

    extra = sorted(set(current) - set(baseline))
    if extra:
        print(f"note: {len(extra)} row(s) not in baseline "
              f"(regenerate it to gate them): "
              + ", ".join(f"{c}/{s}" for c, s in extra))

    if failures:
        print(f"bench regression: {len(failures)} failure(s) "
              f"vs {args.baseline}:")
        for f in failures:
            print(f"  FAIL {f}")
        return 1
    print(f"bench regression: {checked} row(s) within "
          f"{args.tolerance * 100:.0f}% of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
