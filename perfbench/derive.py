"""Metric derivations of the serving benchmark (stdlib only).

Every function here is pure: it takes what the bench program measured (the
"perfbench-raw/v1" document written by the C++ program, and the span table
fold_trace.py makes from a traced run) and returns numbers. run.py prints
them; test_derive.py pins the arithmetic.

Conventions:
  * Times are seconds unless a name says otherwise.
  * An open-loop request is timed from when it was due, so the generator's
    lateness is added to its time to first token (TTFT) and latency.
  * TTFT = lateness + queue_delay_s + prefill_s; time per output token
    (TPOT) = (latency - TTFT) / (gen_tokens - 1).
  * A tail percentile needs at least MIN_TAIL_SAMPLES samples beyond it.
"""

import math
import statistics

from fold_trace import quantile

MIN_TAIL_SAMPLES = 10

# Per-workload service-level limits: (TTFT limit s, TPOT limit s). A request
# meets its SLO when it completes with correct tokens and both times are
# within the limits. BENCHMARK.json restates them in each workload's "why".
SLO = {
    "chat": (0.050, 0.006),
    "batch": (60.0, 0.100),
}


def median(values):
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def tail(values, q):
    """Nearest-rank q-quantile, refused unless the sample leaves at least
    MIN_TAIL_SAMPLES values beyond it (p90 needs 100 samples)."""
    n = len(values)
    if n * (1.0 - q) < MIN_TAIL_SAMPLES - 1e-9:
        raise ValueError(
            f"p{q * 100:g} needs {math.ceil(MIN_TAIL_SAMPLES / (1.0 - q))} "
            f"samples, got {n}"
        )
    return quantile(values, q)


def request_times(req):
    """(ttft_s, tpot_s or None) of one completed request."""
    late = req.get("lateness_s", 0.0)
    ttft = late + req["queue_delay_s"] + req["prefill_s"]
    latency = late + req["finish_s"] - req["arrival_s"]
    gen = req["gen_tokens"]
    tpot = (latency - ttft) / (gen - 1) if gen > 1 else None
    return ttft, tpot


def completed(requests):
    return [r for r in requests if r["outcome"] == "completed"]


def failed_count(submitted, requests):
    """Requests that did not complete with correct tokens: timed out,
    rejected or failed by the server, finished with tokens that differ from
    the reference, or never reported at all."""
    bad = sum(1 for r in requests if r["outcome"] != "completed" or not r["match"])
    return bad + max(0, submitted - len(requests))


def failed_frac(submitted, requests):
    return failed_count(submitted, requests) / submitted


def slo_attainment(submitted, requests, ttft_limit, tpot_limit):
    ok = 0
    for r in completed(requests):
        if not r["match"]:
            continue
        ttft, tpot = request_times(r)
        if ttft <= ttft_limit and (tpot is None or tpot <= tpot_limit):
            ok += 1
    return ok / submitted


def output_tok_s(requests):
    """Completed output tokens over (last finish - first due time)."""
    done = completed(requests)
    if not done:
        return 0.0
    first_due = min(r["arrival_s"] - r.get("lateness_s", 0.0) for r in requests)
    last_finish = max(r["finish_s"] for r in done)
    span = last_finish - first_due
    return sum(r["gen_tokens"] for r in done) / span if span > 0 else 0.0


def recompute_frac(decisions, prompt_len, output_tokens):
    """Tokens re-prefilled by preempt-resume joins over output tokens. A
    decision's joining rows are its last `joins` rows; a join whose context
    exceeds its prompt is a resume re-running its whole history."""
    redo = 0
    for d in decisions:
        joins = d.get("joins", 0)
        if joins <= 0:
            continue
        for rid, ctx in zip(d["ids"][-joins:], d["contexts"][-joins:]):
            if ctx > prompt_len[rid]:
                redo += ctx
    return redo / output_tokens if output_tokens else 0.0


def kv_used_peak_bytes(decisions, page_size, page_bytes):
    """Largest KV footprint any dispatch leaves mapped: every row of a
    continuous round holds its whole context in pages."""
    peak = 0
    for d in decisions:
        pages = sum(-(-ctx // page_size) for ctx in d["contexts"])
        peak = max(peak, pages)
    return peak * page_bytes


def dispatch_shape(decisions):
    """(dispatches, mean rows per dispatch, mean joins per dispatch)."""
    n = len(decisions)
    if n == 0:
        return 0, 0.0, 0.0
    rows = sum(len(d["ids"]) for d in decisions)
    joins = sum(d.get("joins", 0) for d in decisions)
    return n, rows / n, joins / n


def end_to_end(raw):
    """name -> (value, unit, samples) for every end-to-end metric."""
    serve = raw["serve"]
    reqs = serve["requests"]
    done = [r for r in completed(reqs) if r["match"]]
    times = [request_times(r) for r in done]
    ttft = [t[0] for t in times]
    tpot = [t[1] for t in times if t[1] is not None]
    setup = [
        w + e + u
        for w, e, u in zip(
            raw["setup"]["weights_s"], raw["setup"]["engine_s"], raw["setup"]["warmup_s"]
        )
    ]
    ttft_limit, tpot_limit = SLO[raw["workload"]]
    plan_tok = raw["plan"]["plan_tok_s"]
    submitted = serve["submitted"]
    return {
        "setup_s": (median(setup), "s", len(setup)),
        "ttft_p50_s": (median(ttft), "s", len(ttft)),
        "ttft_p90_s": (tail(ttft, 0.9), "s", len(ttft)),
        "tpot_p50_s": (median(tpot), "s", len(tpot)),
        "tpot_p90_s": (tail(tpot, 0.9), "s", len(tpot)),
        "output_tok_s": (output_tok_s(reqs), "tok/s", len(done)),
        "slo_attainment": (
            slo_attainment(submitted, reqs, ttft_limit, tpot_limit),
            "frac",
            submitted,
        ),
        "peak_rss_mb": (serve["peak_rss_kb"] / 1024.0, "MiB", 1),
        "plan_s": (median(raw["plan"]["plan_s"]), "s", len(raw["plan"]["plan_s"])),
        "plan_tok_s": (
            math.exp(sum(math.log(v) for v in plan_tok) / len(plan_tok)),
            "tok/s",
            len(plan_tok),
        ),
    }


def _span(folded, name):
    row = folded.get(name)
    if row is None:
        raise KeyError(f"traced run recorded no '{name}' span")
    return row


def per_layer(raw, folded):
    """name -> (value, unit, samples) for every per-layer metric. Report
    metrics come from the untraced run in `raw`; traced ones from the span
    table `folded` (see fold_trace.fold)."""
    serve = raw["serve"]
    reqs = serve["requests"]
    done = completed(reqs)
    decisions = serve["decisions"]
    prompt_len = {r["id"]: r["prompt_len"] for r in reqs}
    out_tokens = sum(r["gen_tokens"] for r in done)
    m = {}

    def put(name, value, unit, n):
        m[name] = (float(value), unit, n)

    put("loadgen.lag_max_s", max((r["lateness_s"] for r in reqs), default=0.0), "s", len(reqs))
    waits = [r["queue_delay_s"] for r in done]
    put("serve.queue_wait_p50_s", median(waits), "s", len(waits))
    put("serve.queue_wait_p90_s", quantile(waits, 0.9), "s", len(waits))
    resume = [r["resume_wait_s"] for r in done]
    put("serve.resume_wait_p90_s", quantile(resume, 0.9), "s", len(resume))
    n, rows, joins = dispatch_shape(decisions)
    put("serve.dispatches", n, "count", n)
    put("serve.rows_per_dispatch", rows, "rows", n)
    put("serve.joins_per_dispatch", joins, "rows", n)
    put("serve.preemptions", serve["preemptions"], "count", n)
    put("serve.recompute_frac", recompute_frac(decisions, prompt_len, out_tokens), "frac", n)

    d = _span(folded, "serve.dispatch")
    put("serve.sched_us_p50", d["args"]["sched_us"]["p50"], "us", d["count"])
    put("serve.sched_us_p99", d["args"]["sched_us"]["p99"], "us", d["count"])

    pre = _span(folded, "runtime.prefill")
    put(
        "runtime.prefill_ms_per_ktok",
        pre["sum_us"] / pre["args"]["tokens"]["sum"],
        "ms/ktok",
        pre["count"],
    )
    step = _span(folded, "runtime.decode_step")
    put("runtime.decode_step_ms_p50", step["p50"] / 1e3, "ms", step["count"])
    put("runtime.decode_step_ms_p90", step["p90"] / 1e3, "ms", step["count"])
    over = step["self"]["ideal_us"]
    put("runtime.overhead_us_per_step", over["p50"], "us", over["count"])
    pr = _span(folded, "runtime.preempt_session")
    put("runtime.preempt_us", pr["p50"], "us", pr["count"])

    stages = serve["stages"]
    busy = [s["busy_s"] for s in stages]
    for p, s in enumerate(stages):
        total = s["busy_s"] + s["idle_s"]
        put(f"runtime.stage{p}.busy_frac", s["busy_s"] / total if total else 0.0, "frac", 1)
        put(f"runtime.stage{p}.idle_s", s["idle_s"], "s", 1)
    mean_busy = sum(busy) / len(busy)
    put("runtime.stage_imbalance", max(busy) / mean_busy if mean_busy else 1.0, "ratio", len(busy))
    for phase in ("prefill", "decode"):
        ph = serve[phase]
        rate = ph["tokens"] / ph["seconds"] if ph["seconds"] > 0 else 0.0
        put(f"runtime.{phase}_tok_s", rate, "tok/s", ph["tokens"])
    mib = 1024.0 * 1024.0
    put("runtime.kv_reserved_mb", serve["kv_reserved_bytes"] / mib, "MiB", 1)
    put(
        "runtime.kv_used_peak_mb",
        kv_used_peak_bytes(decisions, serve["kv_page_size"], serve["kv_page_bytes"]) / mib,
        "MiB",
        n,
    )

    for bits in (4, 8, 16):
        for phase in ("decode", "prefill"):
            q = _span(folded, f"quant.qgemm.b{bits}.{phase}")
            put(f"quant.qgemm_us.b{bits}.{phase}", q["p50"], "us", q["count"])
        q = _span(folded, f"quant.qgemm.b{bits}.decode")
        put(f"quant.qgemm_gbps.b{bits}.decode", q["args"]["gbps"]["p50"], "GB/s", q["count"])
    for phase in ("decode", "prefill"):
        layer = _span(folded, f"transformer.layer.{phase}")
        put(f"transformer.layer_us.{phase}", layer["p50"], "us", layer["count"])
        put(f"transformer.attn_us.{phase}", layer["self"]["qgemm_us"]["p50"], "us", layer["count"])
    emb = _span(folded, "transformer.embed.decode")
    put("transformer.embed_us", emb["p50"], "us", emb["count"])
    smp = _span(folded, "transformer.sample.decode")
    put("transformer.sample_us", smp["p50"], "us", smp["count"])

    combo = _span(folded, "core.combo")
    put("core.combos", combo["count"], "count", combo["count"])
    put("core.combo_ms", combo["p50"] / 1e3, "ms", combo["count"])
    for name, key, scale, unit in (
        ("core.indicator_ms", "core.indicator", 1e-3, "ms"),
        ("core.estimate_us", "core.estimate", 1.0, "us"),
        ("core.incremental_move_us", "core.incremental_move", 1.0, "us"),
        ("cost.build_ms", "cost.build", 1e-3, "ms"),
        ("solver.mckp_us", "solver.mckp", 1.0, "us"),
    ):
        row = _span(folded, key)
        put(name, row["p50"] * scale, unit, row["count"])
    for phase in ("weights", "engine", "warmup", "kv_reserve"):
        row = _span(folded, f"setup.{phase}")
        put(f"setup.{phase}_s", row["p50"] / 1e6, "s", row["count"])

    t = raw["traced"]
    span = t["last_finish_s"] - t["first_due_s"]
    put("traced.output_tok_s", t["output_tokens"] / span if span > 0 else 0.0, "tok/s", t["completed"])
    put("untraced.output_tok_s", output_tok_s(reqs), "tok/s", len(done))
    return m
