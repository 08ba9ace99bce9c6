#pragma once

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>

#include "cost/latency_model.hpp"
#include "hw/cluster.hpp"
#include "model/workload.hpp"
#include "quant/format.hpp"

namespace llmpq {

/// The planner's single window onto execution cost. Two modes, matching
/// the paper's `--fit / --use_profiler_prediction` switch:
///   kFitted   — profile every device type once, fit the regression model,
///               answer queries from the fit (fast, slightly inaccurate);
///   kProfiled — answer queries straight from profiled samples (here: the
///               noiseless ground truth), the "use profiled result" path.
enum class CostMode { kFitted, kProfiled };

/// Thread-safety contract: every const member is safe to call from any
/// number of threads concurrently (the planner's parallel combo search
/// shares one provider across all workers). layer_time() memoizes its
/// answers in an internal cache guarded by a shared_mutex — the function
/// is pure in its arguments, so the cache never needs invalidation and is
/// shared across every (ordering, micro-batch) combo of a search.
/// set_workload() / set_format() are NOT thread-safe and must happen-before
/// any concurrent queries (the format participates in the cache key, so a
/// mid-search change would mix regimes).
class CostProvider {
 public:
  CostProvider(const ModelSpec& model, const ClusterSpec& cluster,
               CostMode mode = CostMode::kFitted,
               const ProfilerOptions& options = {});

  /// Predicted time of ONE decoder layer at `bits` on device `dev` of the
  /// cluster for a micro-batch of the given size. Memoized per
  /// (device, bits, phase, micro_batch, seq_or_ctx); thread-safe.
  double layer_time(int dev, int bits, Phase phase, int micro_batch,
                    int seq_or_ctx) const;

  /// Predicted master-engine (embedding + LM head) time per micro-batch,
  /// charged to the first device.
  double embedding_time(int dev, int micro_batch, int tokens_per_seq) const;

  /// Activation-transfer time between consecutive pipeline positions.
  double comm_time(int from_dev, int to_dev, Phase phase,
                   int micro_batch) const;

  /// Total time spent producing the cost model (profiling sweeps), for
  /// overhead reporting.
  double build_cost_s() const { return build_cost_s_; }

  const ModelSpec& model() const { return model_; }
  const ClusterSpec& cluster() const { return cluster_; }
  const Workload& workload() const { return workload_; }
  void set_workload(const Workload& w) { workload_ = w; }
  /// Weight storage format the planner is costing (default per-channel).
  /// assign() stamps this onto the plans it produces so memory estimates
  /// and kernel times stay coherent with the runtime's packed layout.
  QuantFormat format() const { return format_; }
  void set_format(QuantFormat format) { format_ = format; }
  CostMode mode() const { return mode_; }
  const LatencyModel& latency_model() const { return latency_model_; }

 private:
  double layer_time_uncached(int dev, int bits, Phase phase, int micro_batch,
                             int seq_or_ctx) const;

  ModelSpec model_;
  ClusterSpec cluster_;
  CostMode mode_;
  Workload workload_;
  QuantFormat format_ = QuantFormat::kPerChannel;
  LatencyModel latency_model_;
  double build_cost_s_ = 0.0;

  // Memoized layer_time answers, keyed by the packed query tuple. Mutable
  // because memoization is not observable state; guarded by cache_mu_
  // (shared for lookups, exclusive for inserts).
  mutable std::shared_mutex cache_mu_;
  mutable std::unordered_map<std::uint64_t, double> layer_time_cache_;
};

}  // namespace llmpq
