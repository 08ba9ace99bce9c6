#include "quant/qgemm_kernels.hpp"

#include <atomic>
#include <cstdlib>

#include "common/error.hpp"

namespace llmpq {

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "?";
}

SimdLevel simd_level_from_name(const std::string& name) {
  for (SimdLevel l :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512})
    if (name == simd_level_name(l)) return l;
  throw InvalidArgumentError("unknown SIMD level: " + name +
                             " (expected scalar|avx2|avx512)");
}

namespace {

bool cpu_supports(SimdLevel level) {
#if defined(__x86_64__) || defined(__i386__)
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case SimdLevel::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl");
  }
  return false;
#else
  return level == SimdLevel::kScalar;
#endif
}

bool compiled_in(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
#if defined(LLMPQ_HAVE_AVX2)
      return true;
#else
      return false;
#endif
    case SimdLevel::kAvx512:
#if defined(LLMPQ_HAVE_AVX512)
      return true;
#else
      return false;
#endif
  }
  return false;
}

SimdLevel clamp_to_available(SimdLevel level) {
  while (level != SimdLevel::kScalar && !simd_level_available(level))
    level = static_cast<SimdLevel>(static_cast<int>(level) - 1);
  return level;
}

/// -1 = unresolved; resolved lazily on first use so tests can set
/// LLMPQ_SIMD before the first qgemm of the process.
std::atomic<int> g_active{-1};

SimdLevel resolve_initial_level() {
  if (const char* env = std::getenv("LLMPQ_SIMD")) {
    return clamp_to_available(simd_level_from_name(env));
  }
  return detected_simd_level();
}

}  // namespace

bool simd_level_available(SimdLevel level) {
  return compiled_in(level) && cpu_supports(level);
}

SimdLevel detected_simd_level() {
  if (simd_level_available(SimdLevel::kAvx512)) return SimdLevel::kAvx512;
  if (simd_level_available(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
  return SimdLevel::kScalar;
}

SimdLevel active_simd_level() {
  int v = g_active.load(std::memory_order_acquire);
  if (v < 0) {
    v = static_cast<int>(resolve_initial_level());
    g_active.store(v, std::memory_order_release);
  }
  return static_cast<SimdLevel>(v);
}

void set_simd_level(SimdLevel level) {
  g_active.store(static_cast<int>(clamp_to_available(level)),
                 std::memory_order_release);
}

QgemmRowsFn qgemm_rows_kernel(SimdLevel level) {
  switch (clamp_to_available(level)) {
#if defined(LLMPQ_HAVE_AVX512)
    case SimdLevel::kAvx512:
      return &qgemm_rows_avx512;
#endif
#if defined(LLMPQ_HAVE_AVX2)
    case SimdLevel::kAvx2:
      return &qgemm_rows_avx2;
#endif
    default:
      return &qgemm_rows_scalar;
  }
}

QgemmRowsFn qgemm_rows_unfused_kernel(SimdLevel level) {
  switch (clamp_to_available(level)) {
#if defined(LLMPQ_HAVE_AVX512)
    case SimdLevel::kAvx512:
      return &qgemm_rows_avx512_unfused;
#endif
#if defined(LLMPQ_HAVE_AVX2)
    case SimdLevel::kAvx2:
      return &qgemm_rows_avx2_unfused;
#endif
    default:
      return &qgemm_rows_scalar;
  }
}

namespace {

void f32_rows_scalar(const float* x, std::size_t m, std::size_t cols,
                     const float* w, std::size_t rows, float* y) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* xi = x + i * cols;
    for (std::size_t r = 0; r < rows; ++r) {
      const float* wr = w + r * cols;
      float acc = 0.0f;
      for (std::size_t c = 0; c < cols; ++c) acc += xi[c] * wr[c];
      y[i * rows + r] = acc;
    }
  }
}

}  // namespace

F32RowsFn f32_rows_kernel(SimdLevel level) {
  switch (clamp_to_available(level)) {
#if defined(LLMPQ_HAVE_AVX512)
    case SimdLevel::kAvx512:
      return &f32_rows_avx512;
#endif
#if defined(LLMPQ_HAVE_AVX2)
    case SimdLevel::kAvx2:
      return &f32_rows_avx2;
#endif
    default:
      return &f32_rows_scalar;
  }
}

void qgemm_rows_scalar(const float* x, std::size_t m, std::size_t cols,
                       const QuantizedMatrix& w, const float* bias, float* y,
                       std::size_t r0, std::size_t r1, float* scratch) {
  const std::size_t rows = w.rows();
  for (std::size_t r = r0; r < r1; ++r) {
    const float* wrow = w.fp_row(r);
    if (wrow == nullptr) {
      w.dequantize_row(r, scratch);
      wrow = scratch;
    }
    const float b = bias == nullptr ? 0.0f : bias[r];
    for (std::size_t i = 0; i < m; ++i) {
      const float* xi = x + i * cols;
      float acc = b;
      for (std::size_t c = 0; c < cols; ++c) acc += xi[c] * wrow[c];
      y[i * rows + r] = acc;
    }
  }
}

}  // namespace llmpq
