#pragma once

#include <string>
#include <vector>

namespace llmpq {

/// Health monitoring for the online control loop (DESIGN.md "Online control
/// loop & elastic migration"): aggregates the per-dispatch signals both
/// serving back-ends already produce — per-stage busy time, scheduler queue
/// depth, preemption and mem-fault counters, dispatch latency — into a
/// bottleneck/degradation verdict the re-planner can act on.
///
/// Determinism contract: observe() is a pure function of the sample
/// sequence. Both back-ends feed one sample per scheduler dispatch, and the
/// straggler trigger compares each sample against a baseline learned as the
/// max over the first `warmup` samples — not a wall-clock rate — so the
/// virtual-clock simulator and the threaded runtime reach the same verdict
/// at the same decision index whenever an injected delay dominates both
/// clocks. That is what lets re-plan events join the sim-vs-runtime parity
/// key.
///
/// Flap control: a verdict needs `hysteresis` consecutive flagged samples,
/// and after any verdict the monitor stays silent for `cooldown` samples so
/// a repair has time to take effect before the loop re-evaluates. The
/// baseline is learned once and kept across migrations: comparing against
/// the healthy era lets a persisting bottleneck re-trip after the cooldown,
/// so repairs iterate until the plan is healthy again instead of
/// normalizing a still-degraded state.

/// One per-dispatch observation. Counters are cumulative (the monitor
/// diffs them internally where needed).
struct HealthSample {
  int seq = -1;            ///< scheduler decision seq (the parity key)
  double dispatch_s = 0.0; ///< end-to-end cost of this dispatch
  std::vector<double> stage_busy_s;  ///< per-stage attribution of that cost
  int queue_depth = 0;     ///< scheduler pending() after the dispatch
  int preemptions = 0;     ///< cumulative KV preemptions
  int mem_faults = 0;      ///< cumulative allocation faults
};

enum class HealthStatus : char {
  kHealthy,
  kStraggler,       ///< one stage's dispatches degraded vs the baseline
  kMemoryPressure,  ///< mem-fault counter advanced past the threshold
  kOverload,        ///< queue depth stuck above the configured bound
};

const char* health_status_name(HealthStatus status);

/// A non-healthy observation the re-planner can act on. `severity` is
/// back-end specific (wall vs virtual clock) and therefore excluded from
/// the parity key; every other field must match across back-ends.
struct HealthVerdict {
  HealthStatus status = HealthStatus::kHealthy;
  int bottleneck_stage = -1;  ///< argmax stage_busy_s for stragglers
  double severity = 0.0;      ///< dispatch_s / baseline at the verdict
  int at_seq = -1;            ///< decision seq that tripped the verdict

  bool healthy() const { return status == HealthStatus::kHealthy; }
};

struct HealthMonitorOptions {
  int warmup = 4;               ///< samples used to learn the baseline
  double straggler_ratio = 3.0; ///< flag when dispatch > ratio * baseline
  int hysteresis = 2;           ///< consecutive flags before a verdict
  int cooldown = 8;             ///< silent samples after any verdict
  int queue_overload_depth = 0; ///< 0 disables the overload verdict
  int mem_fault_threshold = 2;  ///< new mem faults per verdict window
};

class HealthMonitor {
 public:
  HealthMonitor() : HealthMonitor(HealthMonitorOptions{}) {}
  explicit HealthMonitor(const HealthMonitorOptions& options);

  /// Feeds one dispatch sample; returns kHealthy or a verdict. Verdict
  /// priority when several trip at once: straggler, memory pressure,
  /// overload.
  HealthVerdict observe(const HealthSample& sample);

  /// Everything the metrics exporter dumps (llmpq-metrics/v1).
  struct Snapshot {
    int samples = 0;
    int verdicts = 0;
    double baseline_s = 0.0;
    double dispatch_ewma_s = 0.0;
    std::vector<double> stage_busy_ewma_s;
    int queue_depth = 0;
    int preemptions = 0;
    int mem_faults = 0;
  };
  Snapshot snapshot() const { return snap_; }

  const HealthMonitorOptions& options() const { return opt_; }

 private:
  HealthMonitorOptions opt_;
  Snapshot snap_;
  int warmup_seen_ = 0;    ///< samples consumed learning the baseline
  int streak_ = 0;         ///< consecutive straggler-flagged samples
  int cooldown_left_ = 0;  ///< samples to stay silent after a verdict
  int mem_fault_mark_ = 0; ///< cumulative mem faults at the last verdict
};

/// The control loop's repair vocabulary: the Replanner (serve/replanner.hpp)
/// answers a verdict with a PlanDelta, and the serving driver
/// (serve/serve_driver.hpp) logs each answered verdict as a ReplanEvent.
/// They live beside the verdict so the driver needs no planner.

enum class PlanDeltaKind : char {
  kNone,          ///< no feasible single-move repair
  kMigrateLayer,  ///< move `layer` from `from_stage` to `to_stage`
  kBitChange,     ///< requantize `layer` to `new_bits`
  kMicroBatch,    ///< set prefill/decode micro-batch sizes
};

const char* plan_delta_kind_name(PlanDeltaKind kind);

struct PlanDelta {
  PlanDeltaKind kind = PlanDeltaKind::kNone;
  int layer = -1;
  int from_stage = -1;
  int to_stage = -1;
  int new_bits = -1;
  int prefill_micro_batch = 0;
  int decode_micro_batch = 0;
  double base_objective = 0.0;  ///< evaluator score before the move
  double new_objective = 0.0;   ///< evaluator score after the move

  std::string describe() const;

  /// Parity comparison: every structural field, none of the scores (the
  /// two back-ends run different clocks but identical search state).
  bool same_move(const PlanDelta& other) const {
    return kind == other.kind && layer == other.layer &&
           from_stage == other.from_stage && to_stage == other.to_stage &&
           new_bits == other.new_bits &&
           prefill_micro_batch == other.prefill_micro_batch &&
           decode_micro_batch == other.decode_micro_batch;
  }
};

/// One control-loop decision, logged by the serving driver for every
/// back-end. Alongside the scheduler's DispatchDecision log this forms the
/// extended parity key: `same_decision` compares verdict identity and the
/// proposed move, not severities or objective scores (those are
/// clock-dependent).
struct ReplanEvent {
  int at_seq = -1;  ///< decision seq the verdict tripped on
  HealthStatus status = HealthStatus::kHealthy;
  int bottleneck_stage = -1;
  double severity = 0.0;  ///< informational; excluded from parity
  PlanDelta delta;
  bool applied = false;  ///< false when no feasible repair existed

  bool same_decision(const ReplanEvent& other) const {
    return at_seq == other.at_seq && status == other.status &&
           bottleneck_stage == other.bottleneck_stage &&
           applied == other.applied && delta.same_move(other.delta);
  }
};

}  // namespace llmpq
