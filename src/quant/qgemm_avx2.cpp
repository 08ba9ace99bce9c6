// AVX2 + FMA dequant-GEMM microkernel TU. Built only when the compiler
// accepts -mavx2 (see CMakeLists); the dispatcher never selects it on a
// CPU without AVX2/FMA.

#define LLMPQ_SIMD_IMPL_AVX512 0
#include "quant/qgemm_simd_impl.hpp"

namespace llmpq {

void qgemm_rows_avx2(const float* x, std::size_t m, std::size_t cols,
                     const QuantizedMatrix& w, const float* bias, float* y,
                     std::size_t r0, std::size_t r1, float* scratch) {
  qgemm_rows_impl(x, m, cols, w, bias, y, r0, r1, scratch);
}

void qgemm_rows_avx2_unfused(const float* x, std::size_t m, std::size_t cols,
                             const QuantizedMatrix& w, const float* bias,
                             float* y, std::size_t r0, std::size_t r1,
                             float* scratch) {
  qgemm_rows_unfused_impl(x, m, cols, w, bias, y, r0, r1, scratch);
}

void f32_rows_avx2(const float* x, std::size_t m, std::size_t cols,
                   const float* w, std::size_t rows, float* y) {
  f32_rows_impl(x, m, cols, w, rows, y);
}

}  // namespace llmpq
