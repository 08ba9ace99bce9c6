#pragma once

#include <cstddef>
#include <string>

#include "quant/quantize.hpp"

namespace llmpq {

/// Dispatch levels of the dequantize-then-GEMM row microkernels, ordered
/// by capability. The scalar kernel is the bit-defining reference: the
/// vector kernels must reproduce its *dequantization* bit-for-bit (the
/// per-element `code * scale (+ min)` is evaluated with the same two
/// IEEE roundings — no FMA contraction there) and may only differ in the
/// dot-product accumulation order (vector lanes + FMA), which tests cover
/// with a documented tolerance.
enum class SimdLevel { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

const char* simd_level_name(SimdLevel level);
/// Inverse of simd_level_name ("scalar" | "avx2" | "avx512"); throws
/// InvalidArgumentError on anything else.
SimdLevel simd_level_from_name(const std::string& name);

/// True when `level`'s kernel is both compiled in (-mavx2 / -mavx512*)
/// and supported by this CPU. kScalar is always available.
bool simd_level_available(SimdLevel level);

/// Highest available level on this machine.
SimdLevel detected_simd_level();

/// The level qgemm() dispatches to. Resolution order: set_simd_level()
/// override if any, else the LLMPQ_SIMD env var (scalar|avx2|avx512,
/// clamped to what is available), else detected_simd_level().
SimdLevel active_simd_level();

/// Forces the dispatch level (clamped to available); used by tests and
/// benches to pin a kernel. Not thread-safe against concurrent qgemm
/// calls — set it before spawning work.
void set_simd_level(SimdLevel level);

/// RAII pin for tests: forces `level` for the scope, restores on exit.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : prev_(active_simd_level()) {
    set_simd_level(level);
  }
  ~ScopedSimdLevel() { set_simd_level(prev_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel prev_;
};

/// Row-range microkernel contract shared by every dispatch level:
/// computes output channels [r0, r1) of y[m x rows] = x[m x cols] * W^T
/// (+ bias), with `scratch` (size cols) available for the dequantized
/// row. 16-bit matrices are read in place via the fp-row cache.
///
/// At the vector levels, a call with m <= kQgemmFusedMaxM over a 16-bit or
/// a per-channel 4/8-bit matrix takes the fused path (qgemm_fused_applies):
/// codes are decoded into registers and each x vector is shared across a
/// tile of output rows, with no scratch row. Every output element keeps
/// the unfused kernel's exact operation sequence, so its bits depend on
/// neither m, [r0, r1) nor the path taken.
using QgemmRowsFn = void (*)(const float* x, std::size_t m, std::size_t cols,
                             const QuantizedMatrix& w, const float* bias,
                             float* y, std::size_t r0, std::size_t r1,
                             float* scratch);

/// Largest m the fused path serves (the decode micro-batch).
inline constexpr std::size_t kQgemmFusedMaxM = 4;

/// True when the vector levels run (w, m) through the fused path. Group
/// formats and 3-bit codes always dequantize through the scratch row.
inline bool qgemm_fused_applies(const QuantizedMatrix& w, std::size_t m) {
  return m >= 1 && m <= kQgemmFusedMaxM &&
         (w.bits() == 16 || (w.format() == QuantFormat::kPerChannel &&
                             (w.bits() == 4 || w.bits() == 8)));
}

/// Kernel entry point for `level` (clamped to available).
QgemmRowsFn qgemm_rows_kernel(SimdLevel level);

/// `level`'s dequantize-to-scratch kernel with the fused path disabled:
/// the bit reference the fused path is tested against, and the bench's
/// fused-vs-unfused baseline. The scalar level has only this kernel.
QgemmRowsFn qgemm_rows_unfused_kernel(SimdLevel level);

/// y[m x rows] = x[m x cols] * W^T for a plain row-major fp32 W (no
/// bias): the 16-bit fused path without a QuantizedMatrix, used for the
/// tied-embedding logits. The scalar level is the plain
/// `acc = 0; acc += x * w` loop.
using F32RowsFn = void (*)(const float* x, std::size_t m, std::size_t cols,
                           const float* w, std::size_t rows, float* y);

/// fp32 row kernel for `level` (clamped to available).
F32RowsFn f32_rows_kernel(SimdLevel level);

/// The reference kernel (always present).
void qgemm_rows_scalar(const float* x, std::size_t m, std::size_t cols,
                       const QuantizedMatrix& w, const float* bias, float* y,
                       std::size_t r0, std::size_t r1, float* scratch);

#if defined(LLMPQ_HAVE_AVX2)
void qgemm_rows_avx2(const float* x, std::size_t m, std::size_t cols,
                     const QuantizedMatrix& w, const float* bias, float* y,
                     std::size_t r0, std::size_t r1, float* scratch);
void qgemm_rows_avx2_unfused(const float* x, std::size_t m, std::size_t cols,
                             const QuantizedMatrix& w, const float* bias,
                             float* y, std::size_t r0, std::size_t r1,
                             float* scratch);
void f32_rows_avx2(const float* x, std::size_t m, std::size_t cols,
                   const float* w, std::size_t rows, float* y);
#endif
#if defined(LLMPQ_HAVE_AVX512)
void qgemm_rows_avx512(const float* x, std::size_t m, std::size_t cols,
                       const QuantizedMatrix& w, const float* bias, float* y,
                       std::size_t r0, std::size_t r1, float* scratch);
void qgemm_rows_avx512_unfused(const float* x, std::size_t m,
                               std::size_t cols, const QuantizedMatrix& w,
                               const float* bias, float* y, std::size_t r0,
                               std::size_t r1, float* scratch);
void f32_rows_avx512(const float* x, std::size_t m, std::size_t cols,
                     const float* w, std::size_t rows, float* y);
#endif

}  // namespace llmpq
