#pragma once

#include "core/estimator.hpp"
#include "core/plan.hpp"
#include "serve/health.hpp"

namespace llmpq {

/// Single-move plan repairs for the online control loop. On a health
/// verdict the Replanner searches the O(1)-rescorable moves the
/// IncrementalPlanEvaluator exposes and emits the best one as a PlanDelta;
/// the serving layer (MigrationController / the simulator's executor)
/// applies it live. The search is deterministic — candidate order and tie-breaks
/// are fixed — so both back-ends propose the identical delta from the same
/// plan and verdict, which is what puts re-plan events into the
/// sim-vs-runtime parity key.
///
/// Repair policy per verdict (DESIGN.md "Online control loop & elastic
/// migration"):
///   kStraggler       migrate one layer off the bottleneck stage to an
///                    adjacent stage (bit-preserving, hence bit-exact:
///                    the replacement engine shares the same weights)
///   kMemoryPressure  lower one bottleneck-stage layer to the next bit
///                    candidate (trades quality for memory; NOT
///                    bit-preserving, documented as such)
///   kOverload        halve the micro-batch sizes (smaller dispatch
///                    quanta drain the queue sooner)

class PipelineEngine;

/// What a replan hook hands back to the serving loop: the delta it decided
/// on (kNone = no feasible repair) and, when the delta was applied, the
/// replacement engine to migrate onto. The hook's owner retains engine
/// ownership (MigrationController is the canonical owner).
struct ReplanOutcome {
  PipelineEngine* engine = nullptr;
  PlanDelta delta;
};

class Replanner {
 public:
  /// `indicator` may be null. References must outlive the Replanner.
  Replanner(const CostProvider& cost, const IndicatorResult* indicator,
            double theta)
      : cost_(cost), indicator_(indicator), theta_(theta) {}

  /// Searches single-move repairs for `verdict` against `plan`; returns
  /// kNone when nothing feasible improves the verdict's pressure.
  PlanDelta propose(const ExecutionPlan& plan,
                    const HealthVerdict& verdict) const;

  /// Applies a delta to a plan (pure; validates the result). kNone returns
  /// the plan unchanged.
  static ExecutionPlan apply(const ExecutionPlan& plan, const PlanDelta& delta);

 private:
  const CostProvider& cost_;
  const IndicatorResult* indicator_;
  double theta_;
};

}  // namespace llmpq
