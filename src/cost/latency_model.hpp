#pragma once

#include <map>
#include <string>
#include <vector>

#include "cost/profiler.hpp"
#include "model/flops.hpp"

namespace llmpq {

/// Phase-aware linear-regression latency model (paper Sec. 4.1): per
/// (GPU, bitwidth, phase) an OLS fit over profiled samples of one decoder
/// layer. Features capture the phase's computational character:
///   prefill (compute-bound):  [1, b*s, b*s^2]  — GEMM FLOPs + attention
///   decode  (memory-bound):   [1, b,  b*ctx]   — per-token MOPs + KV reads
/// The model is bound to one ModelSpec (profiles are per model).
class LatencyModel {
 public:
  explicit LatencyModel(const ModelSpec& model) : model_(model) {}

  /// Fits regressions from profiler output. Records from several GPUs can
  /// be mixed; they are keyed by record.gpu_name.
  void fit(const std::vector<ProfileRecord>& records);

  /// Predicted single-layer latency.
  double predict(const std::string& gpu_name, int bits, Phase phase,
                 int batch, int seq_or_ctx) const;

  /// Worst mean relative training error across all fitted keys.
  double worst_mean_rel_error() const { return worst_rel_error_; }

  /// Average of the per-key mean relative errors (the quantity Fig. 7
  /// bounds by ~6%).
  double mean_rel_error() const {
    return fit_count_ > 0 ? rel_error_sum_ / static_cast<double>(fit_count_)
                          : 0.0;
  }

  const ModelSpec& model() const { return model_; }

  static std::vector<double> features(Phase phase, int batch, int seq_or_ctx);

 private:
  struct Key {
    std::string gpu;
    int bits;
    int phase;
    bool operator<(const Key& o) const {
      if (gpu != o.gpu) return gpu < o.gpu;
      if (bits != o.bits) return bits < o.bits;
      return phase < o.phase;
    }
  };
  ModelSpec model_;
  std::map<Key, std::vector<double>> beta_;
  double worst_rel_error_ = 0.0;
  double rel_error_sum_ = 0.0;
  int fit_count_ = 0;
};

}  // namespace llmpq
