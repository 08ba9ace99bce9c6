#pragma once

#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "core/plan.hpp"
#include "hw/cluster.hpp"
#include "hw/trace.hpp"
#include "model/model_spec.hpp"
#include "serve/replanner.hpp"
#include "serve/scheduler.hpp"

namespace llmpq {

/// Online-serving extension (paper Sec. 2.3 / Sec. 7): LLM-PQ targets the
/// offline task, but the discussion sketches applying its plans to
/// ORCA/vLLM-style online serving, where requests arrive unpredictably
/// with varying prompt and generation lengths. This module provides a
/// ShareGPT-shaped request generator and the *simulator back-end* of the
/// shared serving driver (`serve/serve_driver.hpp`): the same loop and
/// policy code that drive the real `PipelineEngine` in
/// `serve/online_engine.cpp` run here with analytic roofline pass times,
/// so the two back-ends make identical admission/batching decisions on
/// identical traces (the sim-vs-runtime parity test asserts exactly that).

struct OnlineRequest {
  double arrival_s = 0.0;
  int prompt_len = 0;
  int gen_tokens = 0;
  int tenant_id = 0;   ///< ServeRequest::tenant_id (multi-tenant runs)
  int req_class = 0;   ///< ServeRequest::req_class (bitwidth routing)
};

/// Synthetic ShareGPT-like workload (paper Sec. 2.1: "prompt length varies
/// substantially", with a large short-prompt mass and a long tail).
/// Poisson arrivals at `rate_per_s`.
std::vector<OnlineRequest> generate_sharegpt_workload(Rng& rng, int count,
                                                      double rate_per_s,
                                                      int max_prompt = 1024,
                                                      int max_gen = 256);

/// Multi-tenant workload whose aggregate arrival rate follows the cluster
/// utilization trace (hw/trace.hpp): the request stream is mapped onto the
/// trace's days and each day's Poisson rate is
/// `base_rate_per_s * (0.5 + fleet_util(day))`, so busy trace days become
/// burst windows. Each request draws its tenant from `load` (per-tenant
/// arrival share, normalized; empty = equal shares), takes that tenant's
/// default_class, and uses the ShareGPT shape mix for lengths. This is the
/// scenario generator behind the 10^6-request scale runs — deterministic
/// given the rng seed, so scale baselines are reproducible.
std::vector<OnlineRequest> generate_tenant_workload(
    Rng& rng, const ClusterTrace& trace,
    const std::vector<TenantSpec>& tenants, int count, double base_rate_per_s,
    const std::vector<double>& load = {}, int max_prompt = 1024,
    int max_gen = 256);

/// Fraction of prompts shorter than `threshold` (the paper's "< 128"
/// observation).
double fraction_below(const std::vector<OnlineRequest>& reqs, int threshold);

/// The scheduling policy and its knobs live with the shared scheduler;
/// the simulator keeps its historical option-struct name.
using OnlineSimOptions = SchedulerOptions;

/// Arms the serving driver's control loop in the simulator (DESIGN.md
/// "Online control loop & elastic migration"): one HealthMonitor sample
/// per dispatched decision (dispatch cost + per-stage busy breakdown from
/// the roofline model), with the Replanner's single-move repairs applied
/// to the simulator's working copy of the plan. With identical traces,
/// fault plans, and health options, the sim's ReplanEvent log matches the
/// runtime's event for event (ReplanEvent::same_decision) — the extended
/// parity key.
struct OnlineReplanOptions {
  /// Health-monitor knobs; defaults are the parity-tested configuration.
  HealthMonitorOptions health;
  /// Cost model for the Replanner's feasibility/objective scoring.
  /// Required (the simulator cannot propose repairs without one).
  const CostProvider* cost = nullptr;
  /// Optional quality indicator for the evaluator's objective.
  const IndicatorResult* indicator = nullptr;
  /// Quality/latency trade-off weight (same theta as the offline planner).
  double theta = 0.0;
};

struct OnlineSimResult {
  bool ok = false;
  std::string error;
  int completed = 0;
  double makespan_s = 0.0;
  double throughput_tokens_per_s = 0.0;
  double mean_latency_s = 0.0;   ///< arrival -> last token
  double p95_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double mean_queue_delay_s = 0.0;  ///< arrival -> admission decision
  double mean_prefill_s = 0.0;      ///< prefill pass time, tracked apart
                                    ///< from queueing (was conflated)
  /// Per-request records in completion order (request ids index the input
  /// vector) and the dispatch-decision log — the parity-test key shared
  /// with the runtime back-end.
  std::vector<RequestStats> requests;
  std::vector<DispatchDecision> decisions;
  /// Per-tenant outcome/latency/SLO summaries (one synthetic row when no
  /// tenants are configured). Same shape as OnlineReport::tenants.
  std::vector<TenantSummary> tenants;
  /// Joins admitted by the continuous-mode starvation bound.
  int forced_joins = 0;

  // ---- Control loop (populated when OnlineReplanOptions is passed).
  // `replans` joins `decisions` in the sim-vs-runtime parity
  // contract: same compared fields as OnlineReport::replans. The sim has
  // no engine to swap, so an "applied" event means the working plan copy
  // changed; `final_plan` is that copy after the run.
  std::vector<ReplanEvent> replans;
  int migrations = 0;  ///< applied deltas (plan mutations in the sim)
  ExecutionPlan final_plan;

  // ---- Fault accounting (all zero with an empty fault plan).
  int timed_out = 0;     ///< requests past deadline_s
  int rejected = 0;      ///< bounced by the admission bound
  int failed = 0;        ///< exhausted max_retries
  int retries = 0;       ///< total dispatch retries consumed
  int fault_events = 0;  ///< sim-site rule firings (delays included)
  int preemptions = 0;   ///< capacity-planner evictions (kContinuous)
};

/// Replays `requests` against the plan's pipeline on the simulated
/// cluster. Timing comes from the same roofline ground truth the offline
/// simulator uses; memory feasibility of the plan is checked up front.
///
/// `faults` mirrors the runtime fault injector on the virtual clock: a
/// `delay` rule on site "sim.dispatch" inflates that dispatch's pass time
/// (straggler); any other rule kind fails the dispatch, exercising the
/// scheduler's retry/backoff/kFailed path. Per-stage sites
/// "serve.stage.<p>" are evaluated once per decision per plan stage (the
/// same cadence as the runtime serving loop), with delay/slow rules
/// charged once per layer of stage p — so migrating layers off a
/// straggling stage visibly shrinks the drag on the virtual clock. The
/// lottery is seeded by the plan alone, so identical (requests, options,
/// faults) runs are bit-identical — chaos tests sweep seeds on top of
/// this determinism.
///
/// `replan`, when non-null, arms the control loop (see
/// OnlineReplanOptions); the plan evolves inside the run and the result
/// carries the decision log plus the final plan.
OnlineSimResult simulate_online(const ModelSpec& model,
                                const ClusterSpec& cluster,
                                const ExecutionPlan& plan,
                                const std::vector<OnlineRequest>& requests,
                                const OnlineSimOptions& options = {},
                                const FaultPlan& faults = {},
                                const OnlineReplanOptions* replan = nullptr);

}  // namespace llmpq
