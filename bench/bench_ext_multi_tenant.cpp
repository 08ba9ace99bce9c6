// Extension bench: multi-tenant SLO-aware fair-share serving on an LLM-PQ
// plan. Three tenant profiles share one cluster under virtual-time
// weighted fair sharing (serve/scheduler.hpp, DESIGN.md "Multi-tenant
// serving & fair sharing"):
//
//   interactive  weight 4, tight SLO     — chat-style traffic
//   standard     weight 2, moderate SLO  — API traffic
//   batch        weight 1, loose SLO     — offline jobs, served on the
//                uniform 4-bit class-1 engine variant in the live leg
//
// Leg 1 (gated): the deterministic virtual-clock simulator serves a
// trace-driven tenant workload (hw/trace.hpp utilization modulates the
// Poisson rate) through continuous batching with the starvation bound
// armed. Per-tenant rows are diffed against
// bench/baselines/ext_multi_tenant.json, and CI floors the min-tenant SLO
// attainment (--floor-value) so no tenant can be starved to prop up the
// aggregate. The same leg scales to the nightly 10^6-request smoke
// (--requests 1000000: decision log off, bounded admission scan).
//
// Leg 2 (reported, not gated — wall clock): the same tenant mix served
// live through OnlineEngine on a tiny real pipeline, with the batch
// tenant's class routed to a uniform 4-bit build of the same model
// (OnlineEngineOptions::class_engine). Skipped with --live 0, which is
// how the baseline is generated.
//
// Flags:
//   --json PATH      write the "llmpq-bench/v1" artifact CI diffs
//   --slo-json PATH  write the per-tenant SLO attainment export the
//                    nightly scale smoke archives
//   --requests N     simulator leg request count        (default 20000)
//   --live N         live-leg request count, 0 = skip   (default 2000)
//   --rate R         base arrival rate, req/s           (default 2.0)
//   --seed S         workload seed                      (default 2024)
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/json_writer.hpp"
#include "common/table.hpp"
#include "core/assigner.hpp"
#include "quant/quality.hpp"
#include "runtime/transformer.hpp"
#include "serve/online_engine.hpp"
#include "sim/online_sim.hpp"

namespace {

using namespace llmpq;

std::vector<TenantSpec> tenant_mix() {
  TenantSpec interactive;
  interactive.id = 1;
  interactive.name = "interactive";
  interactive.weight = 4.0;
  interactive.slo_s = 60.0;
  TenantSpec standard;
  standard.id = 2;
  standard.name = "standard";
  standard.weight = 2.0;
  standard.slo_s = 180.0;
  TenantSpec batch;
  batch.id = 3;
  batch.name = "batch";
  batch.weight = 1.0;
  batch.slo_s = 900.0;
  batch.default_class = 1;  // live leg: 4-bit engine variant
  return {interactive, standard, batch};
}

/// One per-tenant measurement row. ppl/latency_s/throughput_tok_s are the
/// gated triple (see scripts/check_bench_regression.py); slo_attainment is
/// gated separately via --floor-value on the min-tenant row.
struct TenantRow {
  std::string scheme;
  bool ok = false;
  std::string note;
  double ppl = 0.0;
  double latency_s = 0.0;  ///< mean, completed requests of this tenant
  double throughput = 0.0; ///< tenant tokens_out / run makespan
  double p99_s = 0.0;
  double slo_attainment = 0.0;
};

struct LegReport {
  int index = 0;
  std::string tag;
  std::vector<TenantRow> rows;
};

std::vector<TenantRow> rows_from_summaries(
    const std::vector<TenantSummary>& sums, double makespan_s, double ppl,
    const std::string& note) {
  std::vector<TenantRow> rows;
  const TenantSummary* worst = nullptr;
  for (const TenantSummary& ts : sums) {
    TenantRow row;
    row.scheme = ts.name.empty() ? "tenant-" + std::to_string(ts.tenant)
                                 : ts.name;
    row.ok = ts.submitted > 0;
    row.note = note;
    row.ppl = ppl;
    row.latency_s = ts.latency.mean_s;
    row.p99_s = ts.latency.p99_s;
    row.throughput = makespan_s > 0.0
                         ? static_cast<double>(ts.tokens_out) / makespan_s
                         : 0.0;
    row.slo_attainment = ts.slo_attainment;
    rows.push_back(row);
    if (worst == nullptr || ts.slo_attainment < worst->slo_attainment)
      worst = &ts;
  }
  if (worst != nullptr) {
    // The fairness-floor row CI gates with --floor-value: the worst
    // tenant's numbers under its own scheme name, re-keyed "min-tenant".
    TenantRow floor;
    floor.scheme = "min-tenant";
    floor.ok = worst->submitted > 0;
    floor.note = "worst attainment: " +
                 (worst->name.empty() ? std::to_string(worst->tenant)
                                      : worst->name);
    floor.ppl = ppl;
    floor.latency_s = worst->latency.mean_s;
    floor.p99_s = worst->latency.p99_s;
    floor.throughput = makespan_s > 0.0
                           ? static_cast<double>(worst->tokens_out) /
                                 makespan_s
                           : 0.0;
    floor.slo_attainment = worst->slo_attainment;
    rows.push_back(floor);
  }
  return rows;
}

bool write_json_artifact(const std::string& path, const std::string& model,
                         const std::string& devices,
                         const std::vector<LegReport>& reports) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  JsonWriter w(os, /*indent=*/1);
  w.begin_object();
  w.kv("schema", "llmpq-bench/v1");
  w.kv("bench", "ext_multi_tenant");
  w.key("clusters");
  w.begin_array();
  for (const LegReport& rep : reports) {
    w.begin_object();
    w.kv("cluster", rep.index);
    w.kv("model", model);
    w.kv("devices", devices + " " + rep.tag);
    w.key("rows");
    w.begin_array();
    for (const TenantRow& row : rep.rows) {
      w.begin_object();
      w.kv("scheme", row.scheme);
      w.kv("ok", row.ok);
      w.kv("note", row.note);
      w.kv("ppl", row.ppl);
      w.kv("latency_s", row.latency_s);
      w.kv("throughput_tok_s", row.throughput);
      w.kv("p99_s", row.p99_s);
      w.kv("slo_attainment", row.slo_attainment);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  os.flush();
  return static_cast<bool>(os);
}

/// Per-tenant SLO export for the nightly scale smoke: one row per tenant
/// plus the run's conservation totals, so a regression in fairness or
/// accounting is visible in the archived artifact without re-running.
bool write_slo_json(const std::string& path, int requests, double rate,
                    long seed, const OnlineSimResult& res) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  JsonWriter w(os, /*indent=*/1);
  w.begin_object();
  w.kv("schema", "llmpq-tenant-slo/v1");
  w.kv("requests", requests);
  w.kv("base_rate_per_s", rate);
  w.kv("seed", static_cast<double>(seed));
  w.kv("makespan_s", res.makespan_s);
  w.kv("completed", res.completed);
  w.kv("timed_out", res.timed_out);
  w.kv("rejected", res.rejected);
  w.kv("failed", res.failed);
  w.kv("preemptions", res.preemptions);
  w.kv("forced_joins", res.forced_joins);
  w.kv("min_slo_attainment", min_slo_attainment(res.tenants));
  w.key("tenants");
  w.begin_array();
  for (const TenantSummary& ts : res.tenants) {
    w.begin_object();
    w.kv("tenant", ts.tenant);
    w.kv("name", ts.name);
    w.kv("weight", ts.weight);
    w.kv("slo_s", ts.slo_s);
    w.kv("submitted", ts.submitted);
    w.kv("completed", ts.completed);
    w.kv("timed_out", ts.timed_out);
    w.kv("rejected", ts.rejected);
    w.kv("failed", ts.failed);
    w.kv("tokens_out", static_cast<double>(ts.tokens_out));
    w.kv("mean_latency_s", ts.latency.mean_s);
    w.kv("p99_latency_s", ts.latency.p99_s);
    w.kv("slo_attainment", ts.slo_attainment);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  os.flush();
  return static_cast<bool>(os);
}

void print_rows(Table& t, const std::string& leg,
                const std::vector<TenantRow>& rows) {
  for (const TenantRow& row : rows)
    t.add_row({leg, row.scheme, row.ok ? Table::fmt(row.throughput) : "-",
               row.ok ? Table::fmt(row.latency_s) : "-",
               row.ok ? Table::fmt(row.p99_s) : "-",
               row.ok ? Table::fmt(row.slo_attainment) : "-"});
}

ModelSpec tiny_spec() {
  ModelSpec m;
  m.name = "tiny-serve";
  m.family = "opt";
  m.hidden = 32;
  m.ffn = 128;
  m.heads = 4;
  m.layers = 6;
  m.vocab = 96;
  m.max_pos = 160;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace llmpq;

  const ArgParser args(argc, argv);
  for (const std::string& key : args.keys()) {
    if (key != "json" && key != "slo-json" && key != "requests" &&
        key != "live" && key != "rate" && key != "seed") {
      std::fprintf(stderr,
                   "unknown option --%s (known: --json --slo-json "
                   "--requests --live --rate --seed)\n",
                   key.c_str());
      return 2;
    }
  }
  const int requests = static_cast<int>(args.get_long("requests", 20000));
  const int live = static_cast<int>(args.get_long("live", 2000));
  const double rate = args.get_double("rate", 2.0);
  const long seed = args.get_long("seed", 2024);

  std::printf("=== Extension: multi-tenant SLO-aware serving ===\n\n");

  const std::vector<TenantSpec> tenants = tenant_mix();
  const std::vector<double> load = {0.2, 0.3, 0.5};  // batch-heavy mix

  const PaperCluster pc = paper_cluster(3);
  const ModelSpec& model = model_registry_get(pc.model_name);
  CostProvider cost(model, pc.cluster, CostMode::kFitted);
  AssignerOptions aopt;
  aopt.solver = SolverKind::kHeuristic;
  const AssignerResult planned = assign(cost, aopt);
  const double ppl = plan_ppl(model, planned.plan.layer_bits);

  // ---- Leg 1: deterministic virtual-clock simulator (gated).
  Rng trng(static_cast<std::uint64_t>(seed));
  const ClusterTrace trace = generate_cluster_trace(trng, 10);
  Rng wrng(static_cast<std::uint64_t>(seed) + 1);
  const auto reqs = generate_tenant_workload(wrng, trace, tenants, requests,
                                             rate, load, 256, 64);

  OnlineSimOptions sopt;
  sopt.policy = SchedulerPolicy::kIterationLevel;
  sopt.exec = DecodeExec::kContinuous;
  sopt.max_batch = 16;
  sopt.kv_page_size = 16;
  sopt.kv_pages = 512;
  sopt.tenants = tenants;
  // join_starvation_rounds stays auto (16 with tenants configured).
  // Scale levers for the nightly 10^6-request smoke: no decision log,
  // bounded waiting-list scan. Both are decision-neutral at this batch
  // size, so the CI-sized run and the scale run share one baseline shape.
  sopt.record_decisions = false;
  sopt.admit_scan_limit = 256;

  const OnlineSimResult sim =
      simulate_online(model, pc.cluster, planned.plan, reqs, sopt);
  if (!sim.ok) {
    std::fprintf(stderr, "simulator leg failed: %s\n", sim.error.c_str());
    return 1;
  }

  std::printf(
      "sim leg: %d requests @ base %.1f req/s on cluster 3 (%s)\n"
      "  completed %d, timed_out %d, rejected %d, failed %d, "
      "preemptions %d, forced_joins %d, makespan %.1fs\n\n",
      requests, rate, pc.cluster.describe_devices().c_str(), sim.completed,
      sim.timed_out, sim.rejected, sim.failed, sim.preemptions,
      sim.forced_joins, sim.makespan_s);

  std::vector<LegReport> reports;
  LegReport sim_rep;
  sim_rep.index = 1;
  sim_rep.tag = "@ sim, base rate " + Table::fmt(rate, 1) + " req/s, " +
                std::to_string(requests) + " requests";
  sim_rep.rows = rows_from_summaries(sim.tenants, sim.makespan_s, ppl, "");
  reports.push_back(sim_rep);

  Table t({"Leg", "Tenant", "Throughput (tok/s)", "Mean latency (s)",
           "P99 (s)", "SLO attainment"});
  print_rows(t, "sim", sim_rep.rows);

  // ---- Leg 2: live serving through OnlineEngine with per-class engine
  // routing (wall clock — reported, never gated).
  if (live > 0) {
    const ModelSpec spec = tiny_spec();
    const std::vector<std::pair<int, int>> stages = {{0, 3}, {3, 6}};
    const std::vector<int> bits(static_cast<std::size_t>(spec.layers), 8);
    ModelWeights weights = build_random_model(spec, bits, 2024);
    PipelineEngine engine(weights, stages, 2, 2);
    // Class 1 (the batch tenant) executes on a uniform 4-bit build of the
    // same model (same seed, same stages and micro-batches) — the
    // adaptive-quantization story applied per request class.
    const ModelWeights weights4 = build_random_model(
        spec, std::vector<int>(static_cast<std::size_t>(spec.layers), 4),
        2024);
    PipelineEngine engine4(weights4, stages, 2, 2);

    OnlineEngineOptions eopt;
    eopt.scheduler.policy = SchedulerPolicy::kIterationLevel;
    eopt.scheduler.exec = DecodeExec::kContinuous;
    eopt.scheduler.max_batch = 8;
    eopt.scheduler.kv_page_size = 16;
    eopt.scheduler.kv_pages = 256;
    eopt.scheduler.tenants = tenants;
    eopt.scheduler.record_decisions = false;
    eopt.class_engine = [&engine4](int cls) {
      return cls == 1 ? &engine4 : nullptr;
    };

    OnlineEngine server(engine, eopt);
    Rng prng(static_cast<std::uint64_t>(seed) + 2);
    Rng lrng(static_cast<std::uint64_t>(seed) + 3);
    const auto live_reqs =
        generate_tenant_workload(lrng, trace, tenants, live, 1.0, load, 24, 8);
    for (const OnlineRequest& r : live_reqs) {
      std::vector<TokenId> prompt;
      const int len = std::max(4, r.prompt_len % 24);
      for (int k = 0; k < len; ++k)
        prompt.push_back(
            static_cast<TokenId>(prng.uniform_int(0, spec.vocab - 1)));
      server.submit(std::move(prompt), std::max(2, r.gen_tokens % 8),
                    r.tenant_id, r.req_class);
    }
    server.close();
    const OnlineReport rep = server.wait();
    std::printf("live leg: %d requests through OnlineEngine "
                "(class 1 -> 4-bit variant): completed %d, "
                "preemptions %d, makespan %.2fs\n\n",
                live, rep.completed, rep.preemptions, rep.makespan_s);

    LegReport live_rep;
    live_rep.index = 2;
    live_rep.tag = "@ live tiny-pipeline (wall clock, ungated), " +
                   std::to_string(live) + " requests";
    live_rep.rows = rows_from_summaries(rep.tenants, rep.makespan_s, 0.0,
                                        "wall clock, not gated");
    reports.push_back(live_rep);
    print_rows(t, "live", live_rep.rows);
  }

  std::printf("%s", t.to_string().c_str());
  std::printf("\nshape check: the weight-4 interactive tenant sees the "
              "lowest latency, every tenant clears its own SLO floor "
              "(weighted fair sharing plus the starvation bound keep the "
              "batch tenant from being starved out), and the per-class "
              "routing serves the batch tenant on a cheaper engine "
              "variant without changing batching decisions.\n");

  int rc = 0;
  if (const auto json_path = args.get("json")) {
    if (write_json_artifact(*json_path, pc.model_name,
                            pc.cluster.describe_devices(), reports))
      std::printf("wrote %s\n", json_path->c_str());
    else
      rc = 1;
  }
  if (const auto slo_path = args.get("slo-json")) {
    if (write_slo_json(*slo_path, requests, rate, seed, sim))
      std::printf("wrote %s\n", slo_path->c_str());
    else
      rc = 1;
  }
  return rc;
}
