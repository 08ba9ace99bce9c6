#include "runtime/attention.hpp"

#include <cmath>
#include <vector>

#include "common/thread_pool.hpp"
#include "runtime/tensor.hpp"

namespace llmpq {

#if defined(LLMPQ_HAVE_AVX2)
// Defined in attention_avx2.cpp, the TU built with the AVX2 flags.
void attention_head_avx2(const float* q, const float* const* k_rows,
                         const float* const* v_rows, std::size_t off,
                         std::size_t span, std::size_t dh, float* scores,
                         float* out);
#endif

namespace {

/// This thread's score scratch, grown to `span` on demand: no heap
/// allocation per task once a thread has seen its longest context.
float* scores_scratch(std::size_t span) {
  thread_local std::vector<float> scores;
  if (scores.size() < span) scores.resize(span);
  return scores.data();
}

SimdLevel clamp_to_available(SimdLevel level) {
  while (level != SimdLevel::kScalar && !simd_level_available(level))
    level = static_cast<SimdLevel>(static_cast<int>(level) - 1);
  return level;
}

}  // namespace

void attention_head_scalar(const float* q, const float* const* k_rows,
                           const float* const* v_rows, std::size_t off,
                           std::size_t span, std::size_t dh, float* scores,
                           float* out) {
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));
  for (std::size_t p = 0; p < span; ++p) {
    const float* k = k_rows[p] + off;
    float dot = 0.0f;
    for (std::size_t d = 0; d < dh; ++d) dot += q[d] * k[d];
    scores[p] = dot * inv_sqrt_dh;
  }
  softmax(std::span<float>(scores, span));
  for (std::size_t d = 0; d < dh; ++d) out[d] = 0.0f;
  for (std::size_t p = 0; p < span; ++p) {
    const float* v = v_rows[p] + off;
    const float w = scores[p];
    for (std::size_t d = 0; d < dh; ++d) out[d] += w * v[d];
  }
}

AttentionHeadFn attention_head_kernel(SimdLevel level) {
  switch (clamp_to_available(level)) {
#if defined(LLMPQ_HAVE_AVX2)
    // The AVX-512 level runs the AVX2 kernel: a 512-bit one measured no
    // faster (DESIGN.md "Attention kernel").
    case SimdLevel::kAvx512:
    case SimdLevel::kAvx2:
      return &attention_head_avx2;
#endif
    default:
      return &attention_head_scalar;
  }
}

std::size_t attention_macs(std::span<const AttentionRow> rows,
                           std::size_t heads, std::size_t dh) {
  std::size_t spans = 0;
  for (const AttentionRow& r : rows) spans += r.span;
  return 2 * spans * heads * dh;
}

void attend_rows(std::span<const AttentionRow> rows, std::size_t heads,
                 std::size_t dh) {
  const AttentionHeadFn kernel = attention_head_kernel(active_simd_level());
  // Task i is (row i / heads, head i % heads): disjoint head slices of the
  // output rows, so the fan-out needs no synchronization inside a task.
  auto task = [&](std::size_t i) {
    const AttentionRow& r = rows[i / heads];
    const std::size_t off = (i % heads) * dh;
    kernel(r.q + off, r.k_rows, r.v_rows, off, r.span, dh,
           scores_scratch(r.span), r.out + off);
  };
  const std::size_t tasks = rows.size() * heads;
  ThreadPool& pool = ThreadPool::shared();
  if (pool.size() <= 1 || ThreadPool::inside_worker() ||
      attention_macs(rows, heads, dh) < kAttentionParallelMacs) {
    for (std::size_t i = 0; i < tasks; ++i) task(i);
    return;
  }
  pool.parallel_for(tasks, task);
}

}  // namespace llmpq
