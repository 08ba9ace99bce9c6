#include "serve/health.hpp"

#include <algorithm>
#include <sstream>

namespace llmpq {

namespace {

/// Smoothing for the exported dispatch and per-stage busy EWMAs.
constexpr double kEwmaAlpha = 0.3;

}  // namespace

const char* health_status_name(HealthStatus status) {
  switch (status) {
    case HealthStatus::kHealthy:
      return "healthy";
    case HealthStatus::kStraggler:
      return "straggler";
    case HealthStatus::kMemoryPressure:
      return "memory_pressure";
    case HealthStatus::kOverload:
      return "overload";
  }
  return "?";
}

HealthMonitor::HealthMonitor(const HealthMonitorOptions& options)
    : opt_(options) {}

HealthVerdict HealthMonitor::observe(const HealthSample& sample) {
  ++snap_.samples;
  if (snap_.samples == 1) {
    snap_.dispatch_ewma_s = sample.dispatch_s;
  } else {
    snap_.dispatch_ewma_s = kEwmaAlpha * sample.dispatch_s +
                            (1.0 - kEwmaAlpha) * snap_.dispatch_ewma_s;
  }
  if (snap_.stage_busy_ewma_s.size() != sample.stage_busy_s.size())
    snap_.stage_busy_ewma_s.assign(sample.stage_busy_s.size(), 0.0);
  for (std::size_t p = 0; p < sample.stage_busy_s.size(); ++p)
    snap_.stage_busy_ewma_s[p] =
        kEwmaAlpha * sample.stage_busy_s[p] +
        (1.0 - kEwmaAlpha) * snap_.stage_busy_ewma_s[p];
  snap_.queue_depth = sample.queue_depth;
  snap_.preemptions = sample.preemptions;
  snap_.mem_faults = sample.mem_faults;

  HealthVerdict verdict;
  verdict.at_seq = sample.seq;

  // Baseline learning: the max dispatch cost over the warmup window. The
  // max (not the mean) keeps the heterogeneous prefill/decode mix from
  // flagging a legitimately expensive phase as a straggler.
  if (warmup_seen_ < opt_.warmup) {
    ++warmup_seen_;
    snap_.baseline_s = std::max(snap_.baseline_s, sample.dispatch_s);
    streak_ = 0;
    return verdict;
  }

  const bool flagged = snap_.baseline_s > 0.0 &&
                       sample.dispatch_s >
                           opt_.straggler_ratio * snap_.baseline_s;
  streak_ = flagged ? streak_ + 1 : 0;

  if (cooldown_left_ > 0) {
    --cooldown_left_;
    return verdict;
  }

  if (streak_ >= opt_.hysteresis) {
    verdict.status = HealthStatus::kStraggler;
    verdict.severity =
        snap_.baseline_s > 0.0 ? sample.dispatch_s / snap_.baseline_s : 0.0;
    // Deterministic attribution: the stage that consumed the most of this
    // sample's cost (lowest index wins ties).
    for (std::size_t p = 0; p < sample.stage_busy_s.size(); ++p)
      if (verdict.bottleneck_stage < 0 ||
          sample.stage_busy_s[p] >
              sample.stage_busy_s[static_cast<std::size_t>(
                  verdict.bottleneck_stage)])
        verdict.bottleneck_stage = static_cast<int>(p);
  } else if (sample.mem_faults - mem_fault_mark_ >= opt_.mem_fault_threshold) {
    verdict.status = HealthStatus::kMemoryPressure;
    verdict.severity = static_cast<double>(sample.mem_faults - mem_fault_mark_);
  } else if (opt_.queue_overload_depth > 0 &&
             sample.queue_depth > opt_.queue_overload_depth) {
    verdict.status = HealthStatus::kOverload;
    verdict.severity = static_cast<double>(sample.queue_depth) /
                       static_cast<double>(opt_.queue_overload_depth);
  }

  if (!verdict.healthy()) {
    ++snap_.verdicts;
    cooldown_left_ = opt_.cooldown;
    streak_ = 0;
    mem_fault_mark_ = sample.mem_faults;
  }
  return verdict;
}

const char* plan_delta_kind_name(PlanDeltaKind kind) {
  switch (kind) {
    case PlanDeltaKind::kNone:
      return "none";
    case PlanDeltaKind::kMigrateLayer:
      return "migrate_layer";
    case PlanDeltaKind::kBitChange:
      return "bit_change";
    case PlanDeltaKind::kMicroBatch:
      return "micro_batch";
  }
  return "?";
}

std::string PlanDelta::describe() const {
  std::ostringstream os;
  switch (kind) {
    case PlanDeltaKind::kNone:
      os << "no-op";
      break;
    case PlanDeltaKind::kMigrateLayer:
      os << "migrate layer " << layer << " from stage " << from_stage
         << " to stage " << to_stage;
      break;
    case PlanDeltaKind::kBitChange:
      os << "requantize layer " << layer << " to " << new_bits << " bits";
      break;
    case PlanDeltaKind::kMicroBatch:
      os << "resize micro-batches to prefill=" << prefill_micro_batch
         << " decode=" << decode_micro_batch;
      break;
  }
  return os.str();
}

}  // namespace llmpq
