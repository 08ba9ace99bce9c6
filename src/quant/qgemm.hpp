#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "quant/quantize.hpp"

namespace llmpq {

/// y[m x rows] = x[m x cols] * W^T where W is [rows x cols]. Weights are
/// stored output-channel-major (each W row produces one output feature),
/// matching the per-row quantization scales. `bias` (size rows) is optional.
///
/// This is the CPU "weight-only kernel": each output channel is dequantized
/// once per call and accumulated in fp32. The row microkernel is picked at
/// runtime (scalar / AVX2 / AVX-512 — see quant/qgemm_kernels.hpp); at the
/// vector levels, decode-sized calls (m <= 4) over 16-bit and per-channel
/// 4/8-bit matrices take the fused register kernel, which needs no scratch
/// row. Work is partitioned over output-channel blocks across the shared
/// ThreadPool when the problem is large enough to amortize the fork/join
/// (>= 32k MACs; smaller problems, calls from inside a pool worker and
/// single-thread pools run one kernel call inline). Every output element
/// is produced by exactly one task with one fixed operation sequence, so
/// results are bit-for-bit identical regardless of thread count, m, or
/// fused vs unfused path at a fixed dispatch level; across levels the
/// dequantization is bit-identical and only the dot-product accumulation
/// order differs (documented tolerance).
void qgemm(std::span<const float> x, std::size_t m, std::size_t cols,
           const QuantizedMatrix& w, std::span<const float> bias,
           std::span<float> y);

/// Single-threaded scalar reference kernel (the seed implementation,
/// always dispatch-independent); the bit-defining baseline for tests and
/// `bench_micro_quant`.
void qgemm_serial(std::span<const float> x, std::size_t m, std::size_t cols,
                  const QuantizedMatrix& w, std::span<const float> bias,
                  std::span<float> y);

/// Plain fp32 GEMM with the same layout (used as the ground truth in tests).
void gemm_f32(std::span<const float> x, std::size_t m, std::size_t cols,
              std::span<const float> w, std::size_t rows,
              std::span<const float> bias, std::span<float> y);

}  // namespace llmpq
