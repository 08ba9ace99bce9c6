#pragma once

#include <cstddef>
#include <span>

#include "quant/qgemm_kernels.hpp"

namespace llmpq {

/// Causal softmax attention for one (query row, head):
///
///   out[d] = sum_p softmax_p(q . K_p / sqrt(dh)) * V_p[d],  p < span,
///
/// where K_p = k_rows[p] + off and V_p = v_rows[p] + off (the head's slice
/// of a cached hidden-sized row), q and out point at the head's dh-float
/// slices, and `scores` is caller scratch of at least `span` floats.
///
/// Contract, shared by every dispatch level: the output bits depend only
/// on q, the K/V rows [0, span), dh and the level — not on the batch, the
/// row's place in it, the calling thread, or whether the call serves a
/// prefill or a decode. A prefill row therefore gets exactly the bits of
/// the single-token decode call at the same position, which is what keeps
/// preempt-then-re-prefill and reference_generate bit-exact.
///
/// The scalar level is the bit-defining reference (a serial dot per key,
/// the library softmax, a serial value accumulation). The AVX2 kernel,
/// which also serves the AVX-512 level, uses an FMA dot over dh, a vector
/// exp polynomial and an FMA value accumulation, with masked tails for any
/// dh; it differs from scalar only by reassociation and by the exp
/// polynomial's rounding (kAttentionExpMaxRelError), tested within
/// kAttentionTolerance.
using AttentionHeadFn = void (*)(const float* q, const float* const* k_rows,
                                 const float* const* v_rows, std::size_t off,
                                 std::size_t span, std::size_t dh,
                                 float* scores, float* out);

/// Relative error bound of the vector kernel's exp against std::exp over
/// [-87.33, 0] (the softmax's domain after the max is subtracted; below it
/// the vector exp returns 0, an absolute error under 1.2e-38).
inline constexpr float kAttentionExpMaxRelError = 2.5e-7f;

/// Documented agreement of the vector kernel with scalar: for every output
/// element, |out_vec - out_scalar| <= kAttentionTolerance * max_p |V_p[d]|
/// for unit-scale q and K (tests sweep dh and span).
inline constexpr float kAttentionTolerance = 1e-5f;

/// Kernel entry point for `level` (clamped to available).
AttentionHeadFn attention_head_kernel(SimdLevel level);

/// The reference kernel (always present).
void attention_head_scalar(const float* q, const float* const* k_rows,
                           const float* const* v_rows, std::size_t off,
                           std::size_t span, std::size_t dh, float* scores,
                           float* out);

/// One query row of an attention call: `q` and `out` are hidden-sized rows
/// (heads * dh floats), `k_rows`/`v_rows` the row pointers of the
/// sequence's cached positions, of which the row attends to [0, span).
struct AttentionRow {
  const float* q = nullptr;
  const float* const* k_rows = nullptr;
  const float* const* v_rows = nullptr;
  std::size_t span = 0;
  float* out = nullptr;
};

/// Below this many multiply-accumulates (2 * span * dh per (row, head),
/// summed over the call) attend_rows runs inline: the pool's fork/join
/// would cost more than it saves. See DESIGN.md "Attention kernel".
inline constexpr std::size_t kAttentionParallelMacs = 48 * 1024;

/// Multiply-accumulates of one attend_rows call.
std::size_t attention_macs(std::span<const AttentionRow> rows,
                           std::size_t heads, std::size_t dh);

/// Runs the active level's kernel for every (row, head) of `rows`. At or
/// above kAttentionParallelMacs, on a pool of more than one thread and
/// outside a pool worker, the rows x heads tasks fan out over
/// ThreadPool::shared(); otherwise they run inline. Either way each task
/// writes only its own head slice of its row's `out`, and its bits follow
/// the per-(row, head) contract above. Touches no cache structure: the
/// K/V row pointers must be gathered beforehand.
void attend_rows(std::span<const AttentionRow> rows, std::size_t heads,
                 std::size_t dh);

}  // namespace llmpq
