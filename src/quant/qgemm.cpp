#include "quant/qgemm.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/thread_pool.hpp"
#include "quant/qgemm_kernels.hpp"

namespace llmpq {

namespace {

/// Below this many multiply-accumulates a call runs inline: the pool's
/// fork/join would cost more than it saves. Derived from the fixed
/// fork/join cost C (bench_runtime_engine's empty 16-block parallel_for:
/// p50 1.7 us on a 4-core AVX-512 VM), the fastest fused kernel's time per
/// MAC t (~0.09 ns at decode shapes, bench_ext_qgemm_kernels) and P = 5
/// participants (4 workers + the caller): fanning out pays once
/// W * t * (1 - 1/P) > C, i.e. W > ~24k MACs. Rounded up to 32k, where
/// a direct inline-vs-pooled sweep of m = 1 projections crosses over.
constexpr std::size_t kParallelWorkThreshold = 32 * 1024;

void check_qgemm_args(std::span<const float> x, std::size_t m,
                      std::size_t cols, const QuantizedMatrix& w,
                      std::span<const float> bias, std::span<float> y) {
  check_arg(w.cols() == cols, "qgemm: inner dimension mismatch");
  check_arg(x.size() == m * cols, "qgemm: x size mismatch");
  check_arg(y.size() == m * w.rows(), "qgemm: y size mismatch");
  check_arg(bias.empty() || bias.size() == w.rows(),
            "qgemm: bias size mismatch");
}

/// This thread's dequantized-row scratch, grown to `cols` on demand: no
/// heap allocation per call once a thread has seen its widest matrix.
float* scratch_row(std::size_t cols) {
  thread_local std::vector<float> scratch;
  if (scratch.size() < cols) scratch.resize(cols);
  return scratch.data();
}

}  // namespace

void qgemm_serial(std::span<const float> x, std::size_t m, std::size_t cols,
                  const QuantizedMatrix& w, std::span<const float> bias,
                  std::span<float> y) {
  check_qgemm_args(x, m, cols, w, bias, y);
  std::vector<float> scratch(cols);
  qgemm_rows_scalar(x.data(), m, cols, w, bias.empty() ? nullptr : bias.data(),
                    y.data(), 0, w.rows(), scratch.data());
}

void qgemm(std::span<const float> x, std::size_t m, std::size_t cols,
           const QuantizedMatrix& w, std::span<const float> bias,
           std::span<float> y) {
  // Chaos-test checkpoint: a throw here exercises the stage workers'
  // poisoned-message protocol from inside a kernel; a delay rule makes
  // this stage a straggler. One relaxed load when no plan is armed.
  FAULT_POINT("stage.qgemm");
  check_qgemm_args(x, m, cols, w, bias, y);
  const std::size_t rows = w.rows();
  // Runtime dispatch: the same row-range contract at every level, so the
  // threading decomposition is independent of the kernel picked.
  const QgemmRowsFn kernel = qgemm_rows_kernel(active_simd_level());
  const float* bias_ptr = bias.empty() ? nullptr : bias.data();
  ThreadPool& pool = ThreadPool::shared();
  if (pool.size() <= 1 || ThreadPool::inside_worker() ||
      m * cols * rows < kParallelWorkThreshold) {
    kernel(x.data(), m, cols, w, bias_ptr, y.data(), 0, rows,
           scratch_row(cols));
    return;
  }
  // Output-channel blocks: disjoint writes, no synchronization inside the
  // kernel. Oversplit relative to the pool so stages sharing it interleave.
  const std::size_t blocks = std::min(rows, pool.size() * 4);
  const std::size_t per = (rows + blocks - 1) / blocks;
  pool.parallel_for(blocks, [&](std::size_t blk) {
    const std::size_t r0 = blk * per;
    const std::size_t r1 = std::min(rows, r0 + per);
    if (r0 < r1)
      kernel(x.data(), m, cols, w, bias_ptr, y.data(), r0, r1,
             scratch_row(cols));
  });
}

void gemm_f32(std::span<const float> x, std::size_t m, std::size_t cols,
              std::span<const float> w, std::size_t rows,
              std::span<const float> bias, std::span<float> y) {
  check_arg(w.size() == rows * cols, "gemm_f32: w size mismatch");
  check_arg(x.size() == m * cols, "gemm_f32: x size mismatch");
  check_arg(y.size() == m * rows, "gemm_f32: y size mismatch");
  check_arg(bias.empty() || bias.size() == rows,
            "gemm_f32: bias size mismatch");
  for (std::size_t i = 0; i < m; ++i) {
    const float* xi = x.data() + i * cols;
    float* yi = y.data() + i * rows;
    for (std::size_t r = 0; r < rows; ++r)
      yi[r] = bias.empty() ? 0.0f : bias[r];
    for (std::size_t r = 0; r < rows; ++r) {
      const float* wr = w.data() + r * cols;
      float acc = yi[r];
      for (std::size_t c = 0; c < cols; ++c) acc += xi[c] * wr[c];
      yi[r] = acc;
    }
  }
}

}  // namespace llmpq
