// AVX-512 dequant-GEMM microkernel TU: the unfused kernel shares the
// AVX2 kernel's 256-bit decode and adds a 512-bit FMA dot product; the
// fused small-m kernel decodes 16 codes per register. Built only when the
// compiler accepts -mavx512f; the dispatcher requires avx512f+bw+vl at
// runtime.

#define LLMPQ_SIMD_IMPL_AVX512 1
#include "quant/qgemm_simd_impl.hpp"

namespace llmpq {

void qgemm_rows_avx512(const float* x, std::size_t m, std::size_t cols,
                       const QuantizedMatrix& w, const float* bias, float* y,
                       std::size_t r0, std::size_t r1, float* scratch) {
  qgemm_rows_impl(x, m, cols, w, bias, y, r0, r1, scratch);
}

void qgemm_rows_avx512_unfused(const float* x, std::size_t m, std::size_t cols,
                               const QuantizedMatrix& w, const float* bias,
                               float* y, std::size_t r0, std::size_t r1,
                               float* scratch) {
  qgemm_rows_unfused_impl(x, m, cols, w, bias, y, r0, r1, scratch);
}

void f32_rows_avx512(const float* x, std::size_t m, std::size_t cols,
                     const float* w, std::size_t rows, float* y) {
  f32_rows_impl(x, m, cols, w, rows, y);
}

}  // namespace llmpq
