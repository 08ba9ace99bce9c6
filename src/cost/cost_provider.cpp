#include "cost/cost_provider.hpp"

#include <mutex>
#include <set>

#include "common/error.hpp"
#include "cost/ground_truth.hpp"
#include "quant/scheme.hpp"

namespace llmpq {

CostProvider::CostProvider(const ModelSpec& model, const ClusterSpec& cluster,
                           CostMode mode, const ProfilerOptions& options)
    : model_(model), cluster_(cluster), mode_(mode), latency_model_(model) {
  if (mode_ == CostMode::kFitted) {
    // Profile each distinct GPU type once.
    std::set<std::string> seen;
    std::vector<ProfileRecord> all;
    for (const auto& slot : cluster_.devices) {
      if (!seen.insert(slot.gpu_name).second) continue;
      const auto records = profile_device(model_, slot.gpu(), options);
      all.insert(all.end(), records.begin(), records.end());
      build_cost_s_ += profiling_cost_s(model_, slot.gpu(), options);
    }
    latency_model_.fit(all);
  }
}

namespace {

/// Packs a layer_time query into one cache key. Fields comfortably cover
/// the planner's ranges (devices < 2^8, 4 bit candidates, 2 phases, 3
/// formats, micro-batch < 2^16, context < 2^32); out-of-range queries
/// return 0 and bypass the cache. seq_or_ctx occupies bits 0-31, the
/// format tag bits 34-35, and bit 36 marks a valid key.
std::uint64_t pack_layer_query(int dev, int bit_idx, Phase phase,
                               int micro_batch, int seq_or_ctx,
                               QuantFormat format) {
  if (dev < 0 || dev >= 256 || bit_idx < 0 || micro_batch < 0 ||
      micro_batch >= (1 << 16) || seq_or_ctx < 0)
    return 0;
  return (static_cast<std::uint64_t>(dev) << 56) |
         (static_cast<std::uint64_t>(bit_idx) << 54) |
         (static_cast<std::uint64_t>(phase == Phase::kDecode ? 1 : 0) << 53) |
         (static_cast<std::uint64_t>(micro_batch) << 37) |
         (static_cast<std::uint64_t>(format) << 34) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(seq_or_ctx)) |
          (1ull << 36));
}

}  // namespace

double CostProvider::layer_time(int dev, int bits, Phase phase,
                                int micro_batch, int seq_or_ctx) const {
  const std::uint64_t key = pack_layer_query(dev, bit_index(bits), phase,
                                             micro_batch, seq_or_ctx, format_);
  if (key == 0)
    return layer_time_uncached(dev, bits, phase, micro_batch, seq_or_ctx);
  {
    std::shared_lock lock(cache_mu_);
    const auto it = layer_time_cache_.find(key);
    if (it != layer_time_cache_.end()) return it->second;
  }
  const double t =
      layer_time_uncached(dev, bits, phase, micro_batch, seq_or_ctx);
  {
    std::unique_lock lock(cache_mu_);
    layer_time_cache_.emplace(key, t);
  }
  return t;
}

double CostProvider::layer_time_uncached(int dev, int bits, Phase phase,
                                         int micro_batch,
                                         int seq_or_ctx) const {
  check_arg(dev >= 0 && dev < cluster_.num_devices(),
            "CostProvider::layer_time: bad device");
  const auto& slot = cluster_.devices[static_cast<std::size_t>(dev)];
  if (mode_ == CostMode::kFitted) {
    // The fitted regression was trained on per-channel kernels; scale its
    // answer by the phase's dominant format cost — compute (measured
    // kernel factor) in prefill, weight-byte traffic in decode.
    const double base = latency_model_.predict(slot.gpu_name, bits, phase,
                                               micro_batch, seq_or_ctx);
    if (format_ == QuantFormat::kPerChannel || bits >= 16) return base;
    return phase == Phase::kPrefill
               ? base / format_kernel_factor(bits, format_)
               : base * format_memory_factor(bits, format_);
  }
  const PhaseShape shape = phase == Phase::kPrefill
                               ? prefill_shape(micro_batch, seq_or_ctx)
                               : decode_shape(micro_batch, seq_or_ctx);
  return layer_time_ground_truth(slot.gpu(), model_, shape, bits,
                                 QuantScheme::kGptq, format_);
}

double CostProvider::embedding_time(int dev, int micro_batch,
                                    int tokens_per_seq) const {
  const auto& slot = cluster_.devices[static_cast<std::size_t>(dev)];
  return embedding_time_ground_truth(
      slot.gpu(), model_,
      static_cast<std::int64_t>(micro_batch) * tokens_per_seq);
}

double CostProvider::comm_time(int from_dev, int to_dev, Phase phase,
                               int micro_batch) const {
  if (from_dev == to_dev) return 0.0;
  const PhaseShape shape =
      phase == Phase::kPrefill
          ? prefill_shape(micro_batch, workload_.prompt_len)
          : decode_shape(micro_batch, workload_.max_seq_len());
  return cluster_.link(from_dev, to_dev)
      .transfer_time(activation_bytes(model_, shape));
}

}  // namespace llmpq
