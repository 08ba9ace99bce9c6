#include "sim/online_sim.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "cost/ground_truth.hpp"
#include "cost/profiler.hpp"
#include "serve/serve_driver.hpp"
#include "sim/pipeline_sim.hpp"

namespace llmpq {

std::vector<OnlineRequest> generate_sharegpt_workload(Rng& rng, int count,
                                                      double rate_per_s,
                                                      int max_prompt,
                                                      int max_gen) {
  check_arg(count >= 0 && rate_per_s > 0.0,
            "generate_sharegpt_workload: bad arguments");
  std::vector<OnlineRequest> reqs;
  reqs.reserve(static_cast<std::size_t>(count));
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    t += -std::log(std::max(rng.uniform(), 1e-12)) / rate_per_s;  // Poisson
    OnlineRequest r;
    r.arrival_s = t;
    // Bimodal prompt mix: ~55% short chat turns (lognormal around ~40
    // tokens), the rest long context pastes (lognormal around ~400).
    const bool short_prompt = rng.uniform() < 0.55;
    const double mu = short_prompt ? 3.6 : 6.0;
    const double sigma = short_prompt ? 0.6 : 0.5;
    r.prompt_len = static_cast<int>(
        std::clamp(std::exp(rng.normal(mu, sigma)), 4.0,
                   static_cast<double>(max_prompt)));
    // Generation length: geometric-ish with a heavier tail.
    r.gen_tokens = static_cast<int>(
        std::clamp(std::exp(rng.normal(4.0, 0.8)), 4.0,
                   static_cast<double>(max_gen)));
    reqs.push_back(r);
  }
  return reqs;
}

std::vector<OnlineRequest> generate_tenant_workload(
    Rng& rng, const ClusterTrace& trace,
    const std::vector<TenantSpec>& tenants, int count, double base_rate_per_s,
    const std::vector<double>& load, int max_prompt, int max_gen) {
  check_arg(count >= 0 && base_rate_per_s > 0.0,
            "generate_tenant_workload: bad arguments");
  check_arg(!tenants.empty(), "generate_tenant_workload: no tenants");
  check_arg(load.empty() || load.size() == tenants.size(),
            "generate_tenant_workload: load shares must match tenants");
  // Per-day fleet utilization: share-weighted mean over GPU types. An
  // empty trace degenerates to a flat 0.5 modulation (constant rate).
  int days = 0;
  for (const UtilizationSample& s : trace.samples)
    days = std::max(days, s.day + 1);
  std::vector<double> util(static_cast<std::size_t>(std::max(days, 1)), 0.5);
  if (days > 0) {
    std::vector<double> acc(static_cast<std::size_t>(days), 0.0);
    std::vector<double> wsum(static_cast<std::size_t>(days), 0.0);
    for (const UtilizationSample& s : trace.samples) {
      double share = 0.0;
      for (const GpuFleetShare& g : trace.shares)
        if (g.gpu_name == s.gpu_name) share = g.fraction;
      acc[static_cast<std::size_t>(s.day)] += share * s.util;
      wsum[static_cast<std::size_t>(s.day)] += share;
    }
    for (int d = 0; d < days; ++d)
      if (wsum[static_cast<std::size_t>(d)] > 0.0)
        util[static_cast<std::size_t>(d)] =
            acc[static_cast<std::size_t>(d)] / wsum[static_cast<std::size_t>(d)];
  }
  // Normalized cumulative tenant shares for the per-request draw.
  std::vector<double> cum(tenants.size(), 0.0);
  {
    double total = 0.0;
    for (std::size_t i = 0; i < tenants.size(); ++i)
      total += load.empty() ? 1.0 : std::max(load[i], 0.0);
    check_arg(total > 0.0, "generate_tenant_workload: zero total load");
    double run = 0.0;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      run += (load.empty() ? 1.0 : std::max(load[i], 0.0)) / total;
      cum[i] = run;
    }
    cum.back() = 1.0;  // absorb rounding
  }
  std::vector<OnlineRequest> reqs;
  reqs.reserve(static_cast<std::size_t>(count));
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    // Map the stream position onto the trace's days so busy days become
    // burst windows of the generated stream.
    const std::size_t day =
        count > 0 ? static_cast<std::size_t>(
                        (static_cast<long long>(i) * util.size()) / count)
                  : 0;
    const double rate = base_rate_per_s * (0.5 + util[day]);
    t += -std::log(std::max(rng.uniform(), 1e-12)) / rate;  // Poisson
    OnlineRequest r;
    r.arrival_s = t;
    const double u = rng.uniform();
    std::size_t ti = 0;
    while (ti + 1 < cum.size() && u > cum[ti]) ++ti;
    r.tenant_id = tenants[ti].id;
    r.req_class = tenants[ti].default_class;
    const bool short_prompt = rng.uniform() < 0.55;
    const double mu = short_prompt ? 3.6 : 6.0;
    const double sigma = short_prompt ? 0.6 : 0.5;
    r.prompt_len = static_cast<int>(
        std::clamp(std::exp(rng.normal(mu, sigma)), 4.0,
                   static_cast<double>(max_prompt)));
    r.gen_tokens = static_cast<int>(
        std::clamp(std::exp(rng.normal(4.0, 0.8)), 4.0,
                   static_cast<double>(max_gen)));
    reqs.push_back(r);
  }
  return reqs;
}

double fraction_below(const std::vector<OnlineRequest>& reqs, int threshold) {
  if (reqs.empty()) return 0.0;
  int below = 0;
  for (const auto& r : reqs) below += r.prompt_len < threshold;
  return static_cast<double>(below) / static_cast<double>(reqs.size());
}

namespace {

/// Serial traversal time of the whole pipeline for one pass: with a single
/// in-flight batch, round r+1 depends on round r's token, so stages do not
/// overlap; the pass costs the sum of stage times plus transfers. When
/// `stage_s` is non-null it accumulates each stage's share (embedding to
/// the first non-empty stage, a transfer to its receiving stage) so the
/// health monitor can attribute a dispatch's cost per stage.
double pass_time(const ModelSpec& model, const ClusterSpec& cluster,
                 const ExecutionPlan& plan, Phase phase, int batch,
                 int seq_or_ctx, std::vector<double>* stage_s = nullptr) {
  double total = 0.0;
  int prev_dev = -1;
  bool first = true;
  for (int p = 0; p < plan.num_stages(); ++p) {
    if (plan.stage_size(p) == 0) continue;
    const int dev = plan.device_order[static_cast<std::size_t>(p)];
    const GpuSpec& gpu = cluster.devices[static_cast<std::size_t>(dev)].gpu();
    const PhaseShape shape = phase == Phase::kPrefill
                                 ? prefill_shape(batch, seq_or_ctx)
                                 : decode_shape(batch, seq_or_ctx);
    double stage_t = 0.0;
    for (int bits : plan.stage_bits(p))
      stage_t += layer_time_ground_truth(gpu, model, shape, bits);
    if (first) {
      const std::int64_t tokens =
          phase == Phase::kPrefill
              ? static_cast<std::int64_t>(batch) * seq_or_ctx
              : static_cast<std::int64_t>(batch);
      stage_t += embedding_time_ground_truth(gpu, model, tokens);
      first = false;
    }
    if (prev_dev >= 0 && prev_dev != dev)
      stage_t += cluster.link(prev_dev, dev)
                     .transfer_time(activation_bytes(model, shape));
    prev_dev = dev;
    total += stage_t;
    if (stage_s != nullptr && p < static_cast<int>(stage_s->size()))
      (*stage_s)[static_cast<std::size_t>(p)] += stage_t;
  }
  return total;
}

/// The roofline executor behind simulate_online: each dispatch costs
/// `pass_time` on the working plan, the "sim.dispatch" and per-stage
/// "serve.stage.<p>" FaultLottery sites turn into stragglers or failures,
/// and replan() mutates the working plan through the Replanner (the
/// runtime swaps engines at the same point).
class ModelExecutor final : public ServeExecutor {
 public:
  ModelExecutor(const ModelSpec& model, const ClusterSpec& cluster,
                const ExecutionPlan& plan, const OnlineSimOptions& options,
                const FaultPlan& faults, const OnlineReplanOptions* replan)
      : model_(model),
        cluster_(cluster),
        options_(options),
        lottery_(faults),
        faults_armed_(!faults.empty()),
        plan_(plan) {
    if (replan != nullptr)
      replanner_.emplace(*replan->cost, replan->indicator, replan->theta);
  }

  DispatchResult execute(const DispatchDecision& d, double t) override {
    DispatchResult r;
    r.end_s = t;  // a failed dispatch costs nothing on the model clock
    const int batch = static_cast<int>(d.request_ids.size());
    r.stage_busy_s.assign(static_cast<std::size_t>(plan_.num_stages()), 0.0);
    double straggle = 0.0;
    if (faults_armed_) {
      // One "sim.dispatch" draw per decision: a delay rule makes the
      // dispatch a straggler, any other kind fails it and exercises the
      // retry/backoff/kFailed machinery.
      const FaultAction fa = lottery_.check("sim.dispatch");
      if (fa.kind != FaultKind::kNone) ++fault_events_;
      if (fa.kind == FaultKind::kDelay) {
        straggle = fa.delay_s;
      } else if (fa.kind != FaultKind::kNone) {
        r.ok = false;
        return r;
      }
      // Per-stage serving sites, one draw per decision per plan stage —
      // the cadence the runtime serving loop uses. A delay/slow firing is
      // charged per layer of the stage, so a migration that moves layers
      // off the straggler shrinks the drag on the virtual clock; any
      // other kind fails the dispatch (and, like the runtime, stops
      // evaluating later stages' sites for this attempt).
      for (int p = 0; p < plan_.num_stages(); ++p) {
        const FaultAction sa =
            lottery_.check(("serve.stage." + std::to_string(p)).c_str());
        if (sa.kind == FaultKind::kNone) continue;
        ++fault_events_;
        if (sa.kind == FaultKind::kDelay || sa.kind == FaultKind::kSlow) {
          const double drag = sa.delay_s * plan_.stage_size(p);
          straggle += drag;
          r.stage_busy_s[static_cast<std::size_t>(p)] += drag;
        } else if (sa.kind != FaultKind::kDrop) {
          r.ok = false;
          return r;
        }
      }
    }
    const auto pass = [&](Phase phase, int rows, int seq_or_ctx) {
      return pass_time(model_, cluster_, plan_, phase, rows, seq_or_ctx,
                       &r.stage_busy_s);
    };
    double finish;
    if (d.phase == ServePhase::kPrefillPass) {
      r.prefill_end_s =
          t + straggle + pass(Phase::kPrefill, batch, d.padded_prompt);
      finish = r.prefill_end_s;
      if (options_.policy == SchedulerPolicy::kStaticBatching) {
        // Static batching runs the whole padded generation as one unit;
        // the batch stays intact until its longest request finishes.
        for (int round = 1; round < d.padded_gen; ++round)
          finish += pass(Phase::kDecode, batch, d.padded_prompt + round);
      }
    } else if (d.num_join > 0) {
      // Mixed continuous round: the joining rows' ride-along prefill runs
      // first (mirroring the SessionExecutor's prefill-then-decode call
      // order), then the continuing rows decode one token each.
      r.prefill_end_s =
          t + straggle + pass(Phase::kPrefill, d.num_join, d.padded_prompt);
      finish = r.prefill_end_s +
               pass(Phase::kDecode, batch - d.num_join, d.max_context);
    } else {
      finish = t + straggle + pass(Phase::kDecode, batch, d.max_context);
    }
    r.end_s = finish;
    r.dispatch_s = finish - t;
    return r;
  }

  void replan(const HealthVerdict& verdict, ReplanEvent& ev) override {
    ev.delta = replanner_->propose(plan_, verdict);
    ev.applied = ev.delta.kind != PlanDeltaKind::kNone;
    if (ev.applied) plan_ = Replanner::apply(plan_, ev.delta);
  }

  const ExecutionPlan& plan() const { return plan_; }
  int fault_events() const { return fault_events_; }

 private:
  const ModelSpec& model_;
  const ClusterSpec& cluster_;
  const OnlineSimOptions& options_;
  /// Local lottery, so concurrent sims never share state.
  FaultLottery lottery_;
  const bool faults_armed_;
  ExecutionPlan plan_;  ///< the working plan replan() mutates
  std::optional<Replanner> replanner_;
  int fault_events_ = 0;
};

}  // namespace

OnlineSimResult simulate_online(const ModelSpec& model,
                                const ClusterSpec& cluster,
                                const ExecutionPlan& plan,
                                const std::vector<OnlineRequest>& requests,
                                const OnlineSimOptions& options,
                                const FaultPlan& faults,
                                const OnlineReplanOptions* replan) {
  OnlineSimResult result;
  plan.validate(model.layers, cluster.num_devices());
  check_arg(replan == nullptr || replan->cost != nullptr,
            "simulate_online: OnlineReplanOptions needs a cost provider");

  // The plan's memory feasibility gates the run exactly like offline.
  {
    const SimResult probe = simulate_plan(model, cluster, plan);
    if (!probe.ok) {
      result.error = probe.error;
      return result;
    }
  }

  // Same driver and decision logic as the runtime back-end
  // (serve/online_engine.cpp); only the cost of each dispatched pass
  // differs — here it comes from the roofline ground truth instead of a
  // wall clock.
  ServeScheduler scheduler(options);
  // Simulated serving lifecycles land on the sim pid, so a sim run and a
  // runtime run of the same trace are distinct tracks in one trace file.
  scheduler.enable_trace(trace_pids::kSim, 0.0);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ServeRequest r;
    r.id = static_cast<int>(i);  // ids index the input vector
    r.arrival_s = requests[i].arrival_s;
    r.prompt_len = requests[i].prompt_len;
    r.gen_tokens = requests[i].gen_tokens;
    r.tenant_id = requests[i].tenant_id;
    r.req_class = requests[i].req_class;
    scheduler.submit(r);
  }
  scheduler.close();

  ModelExecutor exec(model, cluster, plan, options, faults, replan);
  std::optional<HealthMonitorOptions> health;
  if (replan != nullptr) health = replan->health;
  ServeDriver driver(scheduler, health, replan != nullptr);
  VirtualClock clock;
  driver.run(clock, exec);
  const double t = clock.now();

  // Same served-only summary as the runtime report.
  const ServedSummary served = summarize_served(scheduler, t);
  result.ok = true;
  result.completed = served.completed;
  result.makespan_s = t;
  result.throughput_tokens_per_s = served.throughput_tokens_per_s;
  result.mean_latency_s = served.latency.mean_s;
  result.p95_latency_s = served.latency.p95_s;
  result.p99_latency_s = served.latency.p99_s;
  result.mean_queue_delay_s = served.queue_delay.mean_s;
  result.mean_prefill_s = served.prefill.mean_s;
  result.timed_out = served.outcomes.timed_out;
  result.rejected = served.outcomes.rejected;
  result.failed = served.outcomes.failed;
  result.retries = served.outcomes.retries;
  result.fault_events = exec.fault_events();
  result.preemptions = scheduler.preemptions();
  result.forced_joins = scheduler.forced_joins();
  result.tenants = scheduler.tenant_summaries();
  result.requests = scheduler.finished();
  result.decisions = scheduler.decision_log();
  result.replans = driver.replans();
  result.migrations = driver.migrations();
  result.final_plan = exec.plan();
  return result;
}

}  // namespace llmpq
