// Online serving on the real (CPU) runtime: drive the shared serving
// scheduler — the same policy code the online simulator uses — against the
// threaded pipeline engine. Replays one trace under three configurations
// (static batching, ORCA-style iteration-level scheduling, and continuous
// batching with a KV page ledger that preempts under memory pressure),
// then demos the live path where requests are submitted from the caller's
// thread and admitted by the engine's own serving loop.
//
// Pass --trace PATH to record the whole demo — engine stage spans, the
// scheduler's dispatch passes and per-request lifecycles — as Chrome trace
// JSON (open in chrome://tracing or ui.perfetto.dev).
//
// Pass --faults PLAN.json to arm the process-wide fault injector with a
// chaos plan (see common/fault.hpp for the JSON shape) and watch the
// serving stack retry and restart its way through it; the report then
// includes the outcome/recovery counters. --deadline-s, --capacity
// and --max-retries expose the matching scheduler fault policy.
//
// Pass --metrics-out PATH (and optionally --metrics-interval-s N, default
// 1.0) to have each serving loop periodically overwrite PATH with an
// llmpq-metrics/v1 JSON snapshot of its health monitor and engine stats.
//
// Pass --tenants N to add a multi-tenant section: the burst trace is
// striped across N weighted tenants and served under virtual-time fair
// sharing (DESIGN.md "Multi-tenant serving & fair sharing"), with a
// per-tenant SLO report at the end. --slo-s S sets tenant 1's latency SLO
// (tenant i gets S*i — the heaviest tenant carries the strictest target)
// and --class-bits B routes the lowest-weight tenant's request class to a
// uniform B-bit variant of the same model (B in {3, 4, 8, 16}).
//
// The final section demos the self-healing control loop: a sustained
// straggler is injected into stage 1's workers, the health monitor trips,
// and the Replanner + MigrationController migrate layers off the slow
// stage live — mid-trace, bit-exactly.
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "common/args.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "cost/cost_provider.hpp"
#include "hw/cluster.hpp"
#include "runtime/weights.hpp"
#include "serve/migration.hpp"
#include "serve/online_engine.hpp"
#include "serve/replanner.hpp"

namespace {

std::vector<llmpq::TokenId> random_prompt(llmpq::Rng& rng, int len,
                                          int vocab) {
  std::vector<llmpq::TokenId> p;
  for (int t = 0; t < len; ++t)
    p.push_back(static_cast<llmpq::TokenId>(rng.uniform_int(0, vocab - 1)));
  return p;
}

void print_report(const char* title, const llmpq::OnlineReport& rep) {
  std::printf("%s\n", title);
  std::printf("  completed %d requests in %.2f s (%.1f tokens/s)\n",
              rep.completed, rep.makespan_s, rep.throughput_tokens_per_s);
  std::printf("  latency     %s\n",
              llmpq::format_latency_summary(rep.latency).c_str());
  std::printf("  queue delay %s\n",
              llmpq::format_latency_summary(rep.queue_delay).c_str());
  std::printf("  prefill     %s\n",
              llmpq::format_latency_summary(rep.prefill).c_str());
  std::printf("  %zu dispatches:", rep.decisions.size());
  for (const llmpq::DispatchDecision& d : rep.decisions) {
    std::printf(" %s[%zu",
                d.phase == llmpq::ServePhase::kPrefillPass ? "P" : "D",
                d.request_ids.size());
    if (d.num_join > 0 && d.phase != llmpq::ServePhase::kPrefillPass)
      std::printf("+%dj", d.num_join);  // joins riding a decode round
    std::printf("]");
  }
  std::printf("\n");
  if (rep.preemptions > 0)
    std::printf("  %d preemption(s): KV pages evicted to pending, resumed "
                "via re-prefill\n",
                rep.preemptions);
  if (rep.timed_out || rep.rejected || rep.failed || rep.retries ||
      rep.engine_restarts || rep.mem_faults)
    std::printf(
        "  faults: %d timed out, %d rejected, %d failed, %d retries, "
        "%d engine restarts, %d mem faults\n",
        rep.timed_out, rep.rejected, rep.failed, rep.retries,
        rep.engine_restarts, rep.mem_faults);
  for (const llmpq::ReplanEvent& ev : rep.replans)
    std::printf("  replan @seq %d: %s on stage %d -> %s%s\n", ev.at_seq,
                llmpq::health_status_name(ev.status), ev.bottleneck_stage,
                ev.delta.describe().c_str(),
                ev.applied ? "" : " (not applied)");
  if (rep.migrations > 0)
    std::printf("  %d live migration(s): sessions re-prefilled on the new "
                "engine, outputs bit-exact\n",
                rep.migrations);
  std::printf("\n");
}

llmpq::FaultPlan load_fault_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw llmpq::Error("cannot open fault plan: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return llmpq::FaultPlan::from_json(text.str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace llmpq;

  const ArgParser args(argc, argv);
  const auto trace_path = args.get("trace");
  if (trace_path) TraceSession::instance().start();

  // Chaos mode: arm the process-wide injector before the engine exists so
  // every compiled-in fault site sees the plan.
  if (const auto fault_path = args.get("faults")) {
    try {
      FaultInjector::instance().arm(load_fault_plan(*fault_path));
    } catch (const Error& e) {
      std::fprintf(stderr, "online_serve: %s\n", e.what());
      return 1;
    }
  }

  // A laptop-sized decoder-only model; serving behavior is independent of
  // scale, so small sizes keep the demo instant.
  ModelSpec spec;
  spec.name = "demo-serve";
  spec.family = "opt";
  spec.hidden = 64;
  spec.ffn = 256;
  spec.heads = 4;
  spec.layers = 6;
  spec.vocab = 256;
  spec.max_pos = 128;
  const std::vector<int> bits(static_cast<std::size_t>(spec.layers), 8);
  const ModelWeights weights = build_random_model(spec, bits, 2024);
  PipelineEngine engine(weights, {{0, 3}, {3, 6}}, /*prefill_mb=*/2,
                        /*decode_mb=*/2);

  // A burst trace: 6 requests, mixed prompt/generation lengths, all
  // arriving at t=0 — the shape the sim-vs-runtime parity test uses.
  Rng rng(7);
  std::vector<OnlineTraceRequest> trace;
  for (int i = 0; i < 6; ++i) {
    OnlineTraceRequest t;
    t.arrival_s = 0.0;
    t.prompt = random_prompt(rng, 6 + 3 * i, spec.vocab);
    t.gen_tokens = 4 + i;
    trace.push_back(std::move(t));
  }

  OnlineEngineOptions opts;
  // Fault-tolerance knobs (defaults change nothing on a fault-free run).
  opts.scheduler.deadline_s =
      args.get_double("deadline-s", opts.scheduler.deadline_s);
  opts.scheduler.admission_capacity = static_cast<int>(
      args.get_long("capacity", opts.scheduler.admission_capacity));
  opts.scheduler.max_retries =
      static_cast<int>(args.get_long("max-retries", opts.scheduler.max_retries));
  if (args.has("faults")) opts.dispatch_deadline_s = 2.0;  // bound hangs
  // Observability: every serving loop below periodically overwrites this
  // path with an llmpq-metrics/v1 snapshot (the last section wins).
  if (const auto metrics = args.get("metrics-out")) opts.metrics_out = *metrics;
  opts.metrics_interval_s =
      args.get_double("metrics-interval-s", opts.metrics_interval_s);

  opts.scheduler.policy = SchedulerPolicy::kStaticBatching;
  opts.scheduler.batch_size = 4;
  opts.scheduler.max_wait_s = 0.05;
  print_report("static batching (batch_size=4, max_wait=50ms):",
               serve_trace(engine, trace, opts));

  opts.scheduler.policy = SchedulerPolicy::kIterationLevel;
  opts.scheduler.max_batch = 4;
  if (!engine.healthy()) engine.restart();  // a chaos run may break it
  print_report("iteration-level scheduling (max_batch=4):",
               serve_trace(engine, trace, opts));

  // Continuous batching: arrivals join the running decode batch between
  // steps instead of waiting for a prefill round, and a deliberately tight
  // KV page ledger forces the capacity planner to preempt the newest
  // sequence under memory pressure (it resumes bit-exactly via re-prefill).
  OnlineEngineOptions cont = opts;
  cont.scheduler.policy = SchedulerPolicy::kIterationLevel;
  cont.scheduler.exec = DecodeExec::kContinuous;
  cont.scheduler.max_batch = 4;
  cont.scheduler.kv_page_size = 4;
  cont.scheduler.kv_pages = 8;
  if (!engine.healthy()) engine.restart();
  print_report("continuous batching (max_batch=4, kv_pages=8):",
               serve_trace(engine, trace, cont));

  // Live mode: the engine's admission thread owns the scheduler; the stale
  // timer bounds a lone request's wait at arrival + max_wait_s.
  OnlineEngineOptions live = opts;
  live.scheduler.policy = SchedulerPolicy::kIterationLevel;
  live.scheduler.max_batch = 4;
  if (!engine.healthy()) engine.restart();
  OnlineEngine server(engine, live);
  for (int i = 0; i < 4; ++i)
    server.submit(random_prompt(rng, 8 + i, spec.vocab), 3);
  server.close();
  print_report("live submissions (iteration-level):", server.wait());

  // Multi-tenant fair sharing: stripe a fresh burst across N weighted
  // tenants (tenant 1 heaviest) and serve it under the virtual-time
  // fair-share scheduler. With --class-bits the lowest-weight tenant's
  // requests carry class 1, which the engine routes to a uniform B-bit
  // variant of the same model — adaptive quantization applied per request
  // class instead of per outage.
  if (const int n_tenants = static_cast<int>(args.get_long("tenants", 0));
      n_tenants > 0) {
    const double slo_s = args.get_double("slo-s", 0.75);
    const int class_bits = static_cast<int>(args.get_long("class-bits", 0));

    OnlineEngineOptions fair = opts;
    fair.scheduler.policy = SchedulerPolicy::kIterationLevel;
    fair.scheduler.exec = DecodeExec::kContinuous;
    fair.scheduler.max_batch = 4;
    fair.scheduler.kv_page_size = 4;
    fair.scheduler.kv_pages = 16;
    for (int i = 1; i <= n_tenants; ++i) {
      TenantSpec ts;
      ts.id = i;
      ts.weight = static_cast<double>(n_tenants - i + 1);
      ts.slo_s = slo_s * i;  // heaviest tenant, strictest target
      ts.name = "tenant-" + std::to_string(i);
      if (class_bits > 0 && i == n_tenants) ts.default_class = 1;
      fair.scheduler.tenants.push_back(ts);
    }

    // The class-1 variant: the same seed requantized to uniform B bits,
    // on the base engine's stages and micro-batches.
    std::optional<ModelWeights> variant_weights;
    std::optional<PipelineEngine> variant;
    if (class_bits > 0) {
      variant_weights = build_random_model(
          spec,
          std::vector<int>(static_cast<std::size_t>(spec.layers), class_bits),
          2024);
      variant.emplace(*variant_weights,
                      std::vector<std::pair<int, int>>{{0, 3}, {3, 6}}, 2, 2);
      fair.class_engine = [e = &*variant](int cls) {
        return cls == 1 ? e : nullptr;
      };
    }

    std::vector<OnlineTraceRequest> mt_trace;
    for (int i = 0; i < 4 * n_tenants; ++i) {
      OnlineTraceRequest t;
      t.arrival_s = 0.0;
      t.prompt = random_prompt(rng, 6 + 3 * (i % 4), spec.vocab);
      t.gen_tokens = 4 + (i % 4);
      t.tenant_id = 1 + i % n_tenants;
      t.req_class =
          fair.scheduler.tenants[static_cast<std::size_t>(t.tenant_id - 1)]
              .default_class;
      mt_trace.push_back(std::move(t));
    }
    if (!engine.healthy()) engine.restart();
    const OnlineReport rep = serve_trace(engine, mt_trace, fair);
    std::string title = "multi-tenant fair sharing (" +
                        std::to_string(n_tenants) + " tenants, slo-s " +
                        std::to_string(slo_s) + "):";
    print_report(title.c_str(), rep);
    for (const TenantSummary& ts : rep.tenants)
      std::printf("  %-10s w=%-3g slo=%5.2fs  %d/%d completed, "
                  "attainment %.2f, latency %s\n",
                  ts.name.c_str(), ts.weight, ts.slo_s, ts.completed,
                  ts.submitted, ts.slo_attainment,
                  format_latency_summary(ts.latency).c_str());
    if (class_bits > 0)
      std::printf("  class 1 (tenant-%d) served on the uniform %d-bit "
                  "variant via class_engine routing\n",
                  n_tenants, class_bits);
    std::printf("\n");
  }

  // Self-healing control loop: arm a sustained straggler on stage 1's
  // workers (delay per micro-batch per layer, so the drag scales with the
  // layers the stage owns), then serve with the health monitor and the
  // re-planner wired in. Watch the replan events migrate layers off the
  // slow stage — the drag shrinks with each move, and outputs stay
  // bit-exact because boundary moves share the same weights.
  {
    FaultPlan slow_plan;
    FaultRule slow;
    slow.site = "stage.1.layer";
    slow.kind = FaultKind::kSlow;
    slow.delay_ms = 10.0;
    slow.after = 40;  // keep the health baseline window clean
    slow_plan.rules.push_back(slow);
    FaultInjector::instance().arm(slow_plan);

    const ClusterSpec cluster = make_cluster("demo", {{"T4-16G", 2}});
    const CostProvider cost(spec, cluster, CostMode::kProfiled);
    ExecutionPlan plan;
    plan.model_name = spec.name;
    plan.cluster_name = cluster.name;
    plan.workload.global_batch = 4;
    plan.workload.prompt_len = 32;
    plan.workload.gen_tokens = 16;
    plan.device_order = {0, 1};
    plan.boundaries = {0, 3, 6};
    plan.layer_bits = bits;
    plan.prefill_micro_batch = 2;
    plan.decode_micro_batch = 2;

    const Replanner replanner(cost, nullptr, /*theta=*/0.0);
    MigrationController controller(weights, plan, 2024);
    OnlineEngineOptions heal = opts;
    heal.scheduler.policy = SchedulerPolicy::kIterationLevel;
    heal.scheduler.max_batch = 4;
    heal.health.cooldown = 3;  // re-trip quickly so several repairs land
    heal.replan = controller.hook(replanner);
    std::vector<OnlineTraceRequest> long_trace;
    for (int i = 0; i < 4; ++i) {
      OnlineTraceRequest t;
      t.prompt = random_prompt(rng, 8, spec.vocab);
      t.gen_tokens = 16;
      long_trace.push_back(std::move(t));
    }
    if (!engine.healthy()) engine.restart();
    print_report("self-healing (kSlow straggler on stage 1 + re-planner):",
                 serve_trace(engine, long_trace, heal));
    std::printf("  final plan boundaries after migration:");
    for (int b : controller.plan().boundaries) std::printf(" %d", b);
    std::printf("\n\n");
    FaultInjector::instance().disarm();
  }

  if (trace_path) {
    TraceSession::instance().stop();
    if (!TraceSession::instance().write_chrome_trace_file(*trace_path))
      return 1;
    std::printf("wrote %s\n", trace_path->c_str());
  }
  return 0;
}
