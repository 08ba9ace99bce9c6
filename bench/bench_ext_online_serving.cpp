// Extension bench (paper Sec. 2.3 / Sec. 7): LLM-PQ plans under *online*
// load. Reports (a) the ShareGPT-shaped prompt-length distribution that
// motivates phase awareness (Sec 2.1), and (b) continuous-batching serving
// over the same LLM-PQ plan across arrival rates: static batching vs
// ORCA-style iteration-level scheduling with step-level session decode
// over the paged KV cache (one decode-shaped pass per token), plus fully
// continuous batching (kContinuous), where arrivals join the running
// decode batch mid-flight instead of waiting for it to drain.
// Continuous-vs-static at the highest arrival rate is the floor CI gates
// the continuous-batching work on.
//
// Slot 4 is the self-healing row pair: the same plan served while one
// stage drags under an injected kSlow straggler, once tolerating the drag
// (straggler-tolerate) and once with the health-monitor + re-planner
// control loop migrating layers off the slow stage mid-run
// (straggler-replan). CI floors straggler-replan >= straggler-tolerate,
// pinning "the control loop never makes a degraded run worse".
//
// Flags:
//   --json PATH   also write the rows as "llmpq-bench/v1" JSON — the
//                 artifact CI's bench-regression gate diffs against
//                 bench/baselines/ext_online_serving.json. All rows come
//                 from the deterministic simulator, so the artifact is
//                 reproducible and every row is gated.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/json_writer.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/assigner.hpp"
#include "quant/quality.hpp"
#include "sim/online_sim.hpp"

namespace {

using namespace llmpq;

/// One (rate, scheme) measurement. Mirrors the harness SchemeRow fields the
/// regression gate checks (ppl / latency_s / throughput_tok_s) and adds the
/// tail-latency percentiles this bench exists to report; extra fields ride
/// along ungated.
struct ServingRow {
  std::string scheme;
  bool ok = false;
  std::string note;
  double ppl = 0.0;
  double latency_s = 0.0;  ///< mean, arrival -> last token
  double throughput = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
};

struct RateReport {
  int index = 0;  ///< JSON "cluster" slot: 1-based rate index
  double rate = 0.0;
  std::string tag;  ///< extra context appended to the devices string
  std::vector<ServingRow> rows;
};

ServingRow run_scheme(const std::string& scheme, const ModelSpec& model,
                      const PaperCluster& pc, const ExecutionPlan& plan,
                      double ppl, const std::vector<OnlineRequest>& reqs,
                      SchedulerPolicy policy, DecodeExec exec,
                      const FaultPlan& faults = {},
                      const OnlineReplanOptions* replan = nullptr) {
  ServingRow row;
  row.scheme = scheme;
  row.ppl = ppl;
  OnlineSimOptions oopt;
  oopt.policy = policy;
  oopt.exec = exec;
  const OnlineSimResult r =
      simulate_online(model, pc.cluster, plan, reqs, oopt, faults, replan);
  if (!r.ok) {
    row.note = r.error;
    return row;
  }
  row.ok = true;
  if (replan != nullptr)
    row.note = std::to_string(r.migrations) + " migration(s) over " +
               std::to_string(r.replans.size()) + " replan event(s)";
  row.throughput = r.throughput_tokens_per_s;
  row.latency_s = r.mean_latency_s;
  std::vector<double> lat;
  lat.reserve(r.requests.size());
  for (const RequestStats& s : r.requests)
    if (s.outcome == RequestOutcome::kCompleted)
      lat.push_back(s.finish_s - s.arrival_s);
  if (!lat.empty()) {
    row.p50_s = percentile(lat, 50);
    row.p99_s = percentile(lat, 99);
  }
  return row;
}

bool write_json_artifact(const std::string& path, const std::string& model,
                         const std::string& devices,
                         const std::vector<RateReport>& reports) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  JsonWriter w(os, /*indent=*/1);
  w.begin_object();
  w.kv("schema", "llmpq-bench/v1");
  w.kv("bench", "ext_online_serving");
  w.key("clusters");
  w.begin_array();
  for (const RateReport& rep : reports) {
    w.begin_object();
    w.kv("cluster", rep.index);
    w.kv("model", model);
    // The regression gate keys rows on (cluster, scheme); the devices
    // string documents what the slot actually sweeps.
    w.kv("devices", devices + " @ rate=" + Table::fmt(rep.rate, 1) +
                        " req/s" + (rep.tag.empty() ? "" : " " + rep.tag));
    w.key("rows");
    w.begin_array();
    for (const ServingRow& row : rep.rows) {
      w.begin_object();
      w.kv("scheme", row.scheme);
      w.kv("ok", row.ok);
      w.kv("note", row.note);
      w.kv("ppl", row.ppl);
      w.kv("latency_s", row.latency_s);
      w.kv("throughput_tok_s", row.throughput);
      w.kv("p50_s", row.p50_s);
      w.kv("p99_s", row.p99_s);
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

}  // namespace

int main(int argc, char** argv) {
  using namespace llmpq;

  const ArgParser args(argc, argv);
  for (const std::string& key : args.keys()) {
    if (key != "json") {
      std::fprintf(stderr, "unknown option --%s (known: --json)\n",
                   key.c_str());
      return 2;
    }
  }

  std::printf("=== Extension: online serving on LLM-PQ plans ===\n\n");

  Rng rng(2024);
  const auto sample = generate_sharegpt_workload(rng, 5000, 1.0);
  std::printf("ShareGPT-like prompt lengths (5000 samples): %.0f%% < 128 "
              "tokens, %.0f%% < 512, max %d\n\n",
              100.0 * fraction_below(sample, 128),
              100.0 * fraction_below(sample, 512),
              [&] {
                int mx = 0;
                for (const auto& r : sample) mx = std::max(mx, r.prompt_len);
                return mx;
              }());

  const PaperCluster pc = paper_cluster(3);
  const ModelSpec& model = model_registry_get(pc.model_name);
  CostProvider cost(model, pc.cluster, CostMode::kFitted);
  AssignerOptions opt;
  opt.solver = SolverKind::kHeuristic;
  const AssignerResult planned = assign(cost, opt);
  const double ppl = plan_ppl(model, planned.plan.layer_bits);
  std::printf("plan: LLM-PQ on cluster 3 (%s)\n\n",
              pc.cluster.describe_devices().c_str());

  Table t({"Arrival rate (req/s)", "Scheduler", "Throughput (tok/s)",
           "Mean latency (s)", "P50 (s)", "P99 (s)"});
  std::vector<RateReport> reports;
  const std::vector<double> rates = {0.5, 2.0, 8.0};
  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    const double rate = rates[ri];
    Rng wrng(7);
    const auto reqs = generate_sharegpt_workload(wrng, 120, rate, 512, 128);
    RateReport rep;
    rep.index = static_cast<int>(ri) + 1;
    rep.rate = rate;
    rep.rows.push_back(run_scheme("static", model, pc, planned.plan, ppl,
                                  reqs, SchedulerPolicy::kStaticBatching,
                                  DecodeExec::kSession));
    rep.rows.push_back(run_scheme("iter-session", model, pc, planned.plan,
                                  ppl, reqs, SchedulerPolicy::kIterationLevel,
                                  DecodeExec::kSession));
    rep.rows.push_back(run_scheme("continuous", model, pc, planned.plan,
                                  ppl, reqs, SchedulerPolicy::kIterationLevel,
                                  DecodeExec::kContinuous));
    for (const ServingRow& row : rep.rows)
      t.add_row({Table::fmt(rate, 1), row.scheme,
                 row.ok ? Table::fmt(row.throughput) : "-",
                 row.ok ? Table::fmt(row.latency_s) : "-",
                 row.ok ? Table::fmt(row.p50_s) : "-",
                 row.ok ? Table::fmt(row.p99_s) : "-"});
    reports.push_back(std::move(rep));
  }

  // Slot 4: self-healing under a sustained straggler. A kSlow fault on one
  // stage's serve site charges a per-layer delay on the virtual clock from
  // decision `after` onwards. straggler-tolerate serves through the drag;
  // straggler-replan adds the health-monitor + re-planner mirror, which
  // migrates layers off the slow stage so the per-dispatch drag shrinks
  // with every repair. Both rows are deterministic simulator output; CI
  // floors replan >= tolerate (see scripts/ci.sh).
  {
    Rng wrng(7);
    const auto reqs = generate_sharegpt_workload(wrng, 60, 2.0, 512, 128);
    const int slow_stage = planned.plan.num_stages() > 1 ? 1 : 0;
    FaultPlan chaos;
    FaultRule slow;
    slow.site = "serve.stage." + std::to_string(slow_stage);
    slow.kind = FaultKind::kSlow;
    slow.delay_ms = 250.0;  // x stage layers per dispatch on the sim clock
    slow.after = 12;        // past the health monitor's baseline window
    chaos.rules.push_back(slow);

    OnlineReplanOptions ropt;
    ropt.health.straggler_ratio = 2.0;  // the drag is unambiguous
    ropt.health.cooldown = 4;           // let several repairs land
    ropt.cost = &cost;

    RateReport rep;
    rep.index = static_cast<int>(rates.size()) + 1;
    rep.rate = 2.0;
    rep.tag = "+ kSlow straggler on stage " + std::to_string(slow_stage);
    rep.rows.push_back(run_scheme("straggler-tolerate", model, pc,
                                  planned.plan, ppl, reqs,
                                  SchedulerPolicy::kIterationLevel,
                                  DecodeExec::kSession, chaos));
    rep.rows.push_back(run_scheme("straggler-replan", model, pc,
                                  planned.plan, ppl, reqs,
                                  SchedulerPolicy::kIterationLevel,
                                  DecodeExec::kSession, chaos, &ropt));
    for (const ServingRow& row : rep.rows)
      t.add_row({"2.0 (straggler)", row.scheme,
                 row.ok ? Table::fmt(row.throughput) : "-",
                 row.ok ? Table::fmt(row.latency_s) : "-",
                 row.ok ? Table::fmt(row.p50_s) : "-",
                 row.ok ? Table::fmt(row.p99_s) : "-"});
    reports.push_back(std::move(rep));
  }
  std::printf("%s", t.to_string().c_str());

  {
    // Continuous-vs-static at the highest arrival rate and replan-vs-
    // tolerate under the straggler: the two ratios CI's floor-ratio gates
    // check (see scripts/check_bench_regression.py).
    const ServingRow* stat = nullptr;
    const ServingRow* cont = nullptr;
    const ServingRow* tolerate = nullptr;
    const ServingRow* replan = nullptr;
    double cont_rate = 0.0;
    for (const RateReport& rep : reports) {
      for (const ServingRow& row : rep.rows) {
        if (row.scheme == "static") stat = &row, cont_rate = rep.rate;
        if (row.scheme == "continuous") cont = &row;
        if (row.scheme == "straggler-tolerate") tolerate = &row;
        if (row.scheme == "straggler-replan") replan = &row;
      }
    }
    if (stat != nullptr && cont != nullptr && stat->ok && cont->ok &&
        stat->throughput > 0.0)
      std::printf("\ncontinuous vs static throughput at %.1f req/s: %.2fx\n",
                  cont_rate, cont->throughput / stat->throughput);
    if (tolerate != nullptr && replan != nullptr && tolerate->ok &&
        replan->ok && tolerate->throughput > 0.0)
      std::printf("self-healing vs tolerating the straggler: %.2fx "
                  "throughput (%s)\n",
                  replan->throughput / tolerate->throughput,
                  replan->note.c_str());
  }
  std::printf("\nshape check: iteration-level scheduling cuts mean/P99 "
              "latency at every load, and continuous batching (mid-flight "
              "joins + capacity preemption) holds or beats static batching "
              "at high load (the ORCA/vLLM argument the paper's discussion "
              "defers to).\n");

  int rc = 0;
  if (const auto json_path = args.get("json")) {
    if (write_json_artifact(*json_path, pc.model_name,
                            pc.cluster.describe_devices(), reports))
      std::printf("wrote %s\n", json_path->c_str());
    else
      rc = 1;
  }
  return rc;
}
