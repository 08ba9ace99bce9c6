#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/metrics.hpp"
#include "runtime/kv_cache.hpp"
#include "runtime/kv_cache_manager.hpp"
#include "runtime/tensor.hpp"
#include "runtime/weights.hpp"

namespace llmpq {

using TokenId = std::int32_t;

/// One sequence's share of a ragged batch: `len` new token rows for cache
/// sequence `seq`. A ragged pass concatenates spans sequence-major with no
/// padding at all, so every row is a real token — per-sequence math is
/// bit-identical to running that sequence unbatched (row-wise norms,
/// row-independent GEMMs, per-sequence attention).
struct SeqSpan {
  int seq = 0;          ///< cache sequence id
  std::size_t len = 0;  ///< token rows this pass contributes for `seq`
};

/// Observer for the inputs of a decoder layer's linear operators (op index:
/// 0 = qkv, 1 = out, 2 = fc1, 3 = fc2). Used by the calibration runner to
/// gather real activation statistics; a null observer costs nothing.
class ActivationObserver {
 public:
  virtual ~ActivationObserver() = default;
  virtual void on_linear_input(int layer, int op,
                               std::span<const float> x) = 0;
};

/// Runs one decoder layer over a batch slice. `x` holds `seqs * seq_len`
/// token rows (sequence-major). For each sequence s (global index
/// `batch_start + s`), the new K/V entries are appended to `cache`, and
/// attention spans everything cached so far (causal by construction).
/// A non-null `metrics` receives the layer's qgemm/attention time split
/// (the per-stage instrumentation behind PipelineEngine::stats()); a null
/// pointer costs nothing.
///
/// Attention runs in two phases: a serial one (RoPE, K/V append, one
/// gather of each sequence's K/V row pointers) and attend_rows
/// (runtime/attention.hpp), whose rows x heads tasks fan out over
/// ThreadPool::shared() above kAttentionParallelMacs. Each (row, head)'s
/// bits depend only on its query, its cached K/V rows and the SIMD level,
/// so a prefill row equals the decode step at its position — at any batch,
/// thread count or cache backend.
void decoder_layer_forward(const ModelSpec& spec, const LayerWeights& w,
                           Tensor2D& x, KvCache& cache,
                           std::size_t batch_start, std::size_t seqs,
                           std::size_t seq_len,
                           ActivationObserver* observer = nullptr,
                           int layer_index = -1,
                           StageMetrics* metrics = nullptr);

/// Ragged-batch layer forward over a paged cache: `x` holds the spans'
/// rows concatenated sequence-major (sum of span lens), each span appends
/// its K/V to its own sequence and attends only over that sequence's
/// filled positions — there is no padding to mask, which is what makes
/// mixed-length batches exact (the fidelity bug the step-level session API
/// fixes). Every span's positions must be reserve()d beforehand.
void decoder_layer_forward(const ModelSpec& spec, const LayerWeights& w,
                           Tensor2D& x, KvCacheManager& cache,
                           std::span<const SeqSpan> spans,
                           ActivationObserver* observer = nullptr,
                           int layer_index = -1,
                           StageMetrics* metrics = nullptr);

/// Token + positional embedding for a batch slice. `tokens` is
/// sequence-major [seqs x seq_len]; `pos_offset` is the position of the
/// first token of this pass within each sequence.
Tensor2D embed(const ModelWeights& mw, const std::vector<TokenId>& tokens,
               std::size_t seqs, std::size_t seq_len, std::size_t pos_offset);

/// Ragged embedding: `tokens` concatenates the spans' tokens
/// sequence-major; `pos_offsets[i]` is the position of span i's first
/// token within its sequence (its cache fill level).
Tensor2D embed(const ModelWeights& mw, const std::vector<TokenId>& tokens,
               std::span<const SeqSpan> spans,
               std::span<const std::size_t> pos_offsets);

/// Final layer norm + tied LM head + greedy sampling, returning one token
/// per sequence (from each sequence's last position row).
std::vector<TokenId> project_and_sample(const ModelWeights& mw,
                                        const Tensor2D& hidden,
                                        std::size_t seqs,
                                        std::size_t seq_len);

/// Ragged sampling: one token per span, from each span's last row.
std::vector<TokenId> project_and_sample(const ModelWeights& mw,
                                        const Tensor2D& hidden,
                                        std::span<const SeqSpan> spans);

/// Inverse-frequency table of rotary position embeddings for head
/// dimension `dh`: entry i = 10000^(-2i/dh), i < dh/2. Computed once per
/// thread and reused across every (token, head) rotation — the seed
/// recomputed the pow per rotated pair. Entries are bit-identical to the
/// inline expression (same float pow), so rotations are unchanged.
std::vector<float> rope_inv_freqs(std::size_t dh);

/// In-place rotary position embedding on one head-sized vector at absolute
/// position `pos`: rotate feature pairs (i, i + dh/2) by
/// pos * inv_freq[i], with `inv_freq` from rope_inv_freqs(dh).
void apply_rope(float* v, std::size_t dh, std::size_t pos,
                const float* inv_freq);

/// Single-threaded reference generation: prefill the prompts then decode
/// `gen_tokens - 1` further tokens greedily. Returns [batch x gen_tokens]
/// generated tokens (the first generated token comes from prefill).
/// This is the ground truth the pipelined engine must reproduce exactly.
std::vector<std::vector<TokenId>> reference_generate(
    const ModelWeights& mw, const std::vector<std::vector<TokenId>>& prompts,
    int gen_tokens);

}  // namespace llmpq
