#include "serve/replanner.hpp"

#include <algorithm>
#include <optional>

#include "common/error.hpp"
#include "hw/gpu_spec.hpp"

namespace llmpq {

namespace {

struct MigrateCandidate {
  int layer = -1;
  int from = -1;
  int to = -1;
  double objective = 0.0;
};

}  // namespace

PlanDelta Replanner::propose(const ExecutionPlan& plan,
                             const HealthVerdict& verdict) const {
  PlanDelta delta;
  if (verdict.healthy()) return delta;

  IncrementalPlanEvaluator eval(cost_, indicator_, theta_, plan);
  delta.base_objective = eval.base().objective;

  if (verdict.status == HealthStatus::kStraggler) {
    // Migrate one layer off the bottleneck stage. The analytic cost model
    // cannot see the live drag the verdict measured (a degraded device
    // looks nominal on paper), so the verdict overrides the objective:
    // any *feasible* off-move is accepted, and the evaluator only ranks
    // the feasible candidates against each other. Candidate order and the
    // prefer-earlier tie-break are fixed for cross-back-end determinism.
    const int b = verdict.bottleneck_stage;
    if (b < 0 || b >= plan.num_stages()) return delta;
    std::optional<MigrateCandidate> best;
    // Candidate 1: the bottleneck's first layer moves to stage b-1.
    if (b > 0) {
      const auto score = eval.score_boundary_shift(b - 1, +1, /*new_bits=*/-1);
      if (score && score->feasible)
        best = MigrateCandidate{plan.stage_range(b).first, b, b - 1,
                                score->objective};
    }
    // Candidate 2: the bottleneck's last layer moves to stage b+1.
    if (b + 1 < plan.num_stages()) {
      const auto score = eval.score_boundary_shift(b, -1, /*new_bits=*/-1);
      if (score && score->feasible &&
          (!best || score->objective < best->objective))
        best = MigrateCandidate{plan.stage_range(b).second - 1, b, b + 1,
                                score->objective};
    }
    if (!best) return delta;  // single-layer stage hemmed in: no repair
    delta.kind = PlanDeltaKind::kMigrateLayer;
    delta.layer = best->layer;
    delta.from_stage = best->from;
    delta.to_stage = best->to;
    delta.new_objective = best->objective;
    return delta;
  }

  if (verdict.status == HealthStatus::kMemoryPressure) {
    // Lower one layer to the next bit candidate. Scope the search to the
    // bottleneck stage when the verdict names one, else the whole model;
    // the evaluator's feasibility check is exactly the memory model the
    // pressure tripped.
    const auto range = (verdict.bottleneck_stage >= 0 &&
                        verdict.bottleneck_stage < plan.num_stages())
                           ? plan.stage_range(verdict.bottleneck_stage)
                           : std::pair<int, int>{0, plan.num_layers()};
    bool found = false;
    for (int layer = range.first; layer < range.second; ++layer) {
      const int bi = bit_index(plan.layer_bits[static_cast<std::size_t>(layer)]);
      if (bi <= 0) continue;  // already at the lowest candidate
      const int lower = kBitCandidates[static_cast<std::size_t>(bi - 1)];
      const auto score = eval.score_bit_change(layer, lower);
      if (!score.feasible) continue;
      if (!found || score.objective < delta.new_objective) {
        found = true;
        delta.kind = PlanDeltaKind::kBitChange;
        delta.layer = layer;
        delta.from_stage = plan.stage_of_layer(layer);
        delta.new_bits = lower;
        delta.new_objective = score.objective;
      }
    }
    return delta;
  }

  // kOverload: halve the micro-batch sizes so dispatches turn around
  // faster. Halving an even divisor of the global batch keeps the
  // divisibility invariant; integer-halving an odd one lands on a divisor
  // too (worst case 1).
  const int pre = std::max(1, plan.prefill_micro_batch / 2);
  const int dec = std::max(1, plan.decode_micro_batch / 2);
  if (pre == plan.prefill_micro_batch && dec == plan.decode_micro_batch)
    return delta;  // already at the smallest quanta
  ExecutionPlan candidate = plan;
  candidate.prefill_micro_batch = pre;
  candidate.decode_micro_batch = dec;
  const PlanEstimate est =
      estimate_plan(cost_, candidate, indicator_, theta_);
  if (!est.mem_feasible) return delta;
  delta.kind = PlanDeltaKind::kMicroBatch;
  delta.prefill_micro_batch = pre;
  delta.decode_micro_batch = dec;
  delta.new_objective = est.objective;
  return delta;
}

ExecutionPlan Replanner::apply(const ExecutionPlan& plan,
                               const PlanDelta& delta) {
  ExecutionPlan out = plan;
  switch (delta.kind) {
    case PlanDeltaKind::kNone:
      return out;
    case PlanDeltaKind::kMigrateLayer:
      check_arg(delta.from_stage >= 0 && delta.from_stage < out.num_stages() &&
                    (delta.to_stage == delta.from_stage - 1 ||
                     delta.to_stage == delta.from_stage + 1) &&
                    delta.to_stage >= 0 && delta.to_stage < out.num_stages(),
                "PlanDelta: migrate stages must be adjacent and in range");
      if (delta.to_stage == delta.from_stage - 1) {
        // The source's first layer joins the end of the previous stage.
        out.boundaries[static_cast<std::size_t>(delta.from_stage)] += 1;
      } else {
        // The source's last layer joins the start of the next stage.
        out.boundaries[static_cast<std::size_t>(delta.from_stage) + 1] -= 1;
      }
      break;
    case PlanDeltaKind::kBitChange:
      check_arg(delta.layer >= 0 && delta.layer < out.num_layers(),
                "PlanDelta: bit-change layer out of range");
      out.layer_bits[static_cast<std::size_t>(delta.layer)] = delta.new_bits;
      break;
    case PlanDeltaKind::kMicroBatch:
      out.prefill_micro_batch = delta.prefill_micro_batch;
      out.decode_micro_batch = delta.decode_micro_batch;
      break;
  }
  out.validate(out.num_layers(), out.num_stages());
  return out;
}

}  // namespace llmpq
