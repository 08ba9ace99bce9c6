#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/plan.hpp"
#include "runtime/engine.hpp"
#include "runtime/weights.hpp"
#include "serve/replanner.hpp"

namespace llmpq {

/// Owns the elastic-migration state on the runtime side: the evolving
/// ExecutionPlan and every replacement engine built for it. apply() turns a
/// PlanDelta into a live engine:
///
///   kMigrateLayer / kMicroBatch  the new engine SHARES the base weights
///       (boundary and batching moves change no tensor), so greedy output
///       is bit-identical across the swap — the chaos tests pin this.
///   kBitChange  the moved precision is requantized from the same weight
///       seed (build_random_model draws master weights from a
///       bits/format-independent stream, the same overlap path
///       OtfQuantizer serves), so the model identity is preserved but
///       logits are NOT bit-identical — precision changed by design. This
///       is how the serving loop answers memory pressure.
///
/// The serving loop completes the migration: swapping engines releases
/// every live session (KvCacheManager::preempt semantics) and the next
/// dispatch re-prefills each request's full context on the new engine,
/// which under greedy sampling resumes it exactly.
///
/// Caveat: health verdicts attribute bottlenecks by ENGINE stage index;
/// the controller maps deltas through PLAN stage indices. The two agree
/// when every plan stage is non-empty (empty stages are filtered out of
/// the engine) — keep migration plans free of empty stages.
class MigrationController {
 public:
  /// `weights` is the serving engine's weight set; it must outlive the
  /// controller. `plan` must describe the same model (layer count) and is
  /// the starting point deltas are applied to. `seed` must be the seed
  /// `weights` was built from so bit-change rebuilds preserve identity.
  MigrationController(const ModelWeights& weights, ExecutionPlan plan,
                      std::uint64_t seed);

  /// The current plan (after every applied delta).
  const ExecutionPlan& plan() const { return plan_; }

  /// Applies a delta and builds the replacement engine (lazily owned for
  /// the controller's lifetime; old engines stay valid until destruction).
  /// Returns nullptr for kNone without touching the plan.
  PipelineEngine* apply(const PlanDelta& delta);

  int migrations() const { return migrations_; }

  /// Adapter for OnlineEngineOptions::replan: proposes with `replanner`
  /// against the current plan and applies the result. Both referents must
  /// outlive the serving loop.
  std::function<ReplanOutcome(const HealthVerdict&)> hook(
      const Replanner& replanner);

 private:
  std::vector<std::pair<int, int>> stage_ranges() const;

  const ModelWeights& base_;
  ExecutionPlan plan_;
  std::uint64_t seed_ = 0;
  int migrations_ = 0;

  struct Built {
    ModelWeights weights;  ///< only populated for bit-change rebuilds
    bool owns_weights = false;
    std::unique_ptr<PipelineEngine> engine;
  };
  std::vector<std::unique_ptr<Built>> built_;
};

}  // namespace llmpq
