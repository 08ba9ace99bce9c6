// Shared implementation of the vector dequant-GEMM row microkernels.
// Included (not compiled standalone) by qgemm_avx2.cpp and
// qgemm_avx512.cpp, each built with its own -m... flags; everything here
// has internal linkage so the two TUs cannot collide. The including TU
// defines LLMPQ_SIMD_IMPL_AVX512 (0 or 1) to pick the vector width. The
// unfused kernel's dequantize-to-scratch step is 256-bit in both; the
// fused small-m kernel decodes at the full width.
//
// Contract (see qgemm_kernels.hpp): dequantization is elementwise
// bit-identical to QuantizedMatrix::dequantize_row — same convert,
// multiply and add in the same IEEE order, no FMA contraction (these TUs
// are built with -ffp-contract=off so the compiler cannot fuse the
// `code * scale + min` pair either). Only the dot product reassociates
// (vector lanes + explicit FMA).

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "quant/qgemm_kernels.hpp"
#include "quant/rounding.hpp"

namespace llmpq {
namespace {

// Little-endian bit-order unpack, identical to quantize.cpp's
// unpack_value. The +1 spill word per packed row makes reading
// row_words[word + 1] safe for the last element.
inline std::uint32_t unpack_code(const std::uint32_t* row_words,
                                 std::size_t idx, int bits) {
  const std::size_t bit_pos = idx * static_cast<std::size_t>(bits);
  const std::size_t word = bit_pos / 32;
  const std::size_t offset = bit_pos % 32;
  const std::uint32_t mask = (1u << bits) - 1u;
  std::uint32_t v = row_words[word] >> offset;
  if (offset + static_cast<std::size_t>(bits) > 32)
    v |= row_words[word + 1] << (32 - offset);
  return v & mask;
}

// Decodes 8 consecutive codes starting at element c0 (c0 % 8 == 0) into
// one epi32 vector. 8-bit codes are whole bytes and 4-bit codes are the 8
// nibbles of one word, so both decode branch-free; 3-bit codes straddle
// word boundaries and go through the scalar unpack.
inline __m256i decode8(const std::uint32_t* row_words, std::size_t c0,
                       int bits) {
  if (bits == 8) {
    const std::uint8_t* bytes =
        reinterpret_cast<const std::uint8_t*>(row_words);
    const __m128i b =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(bytes + c0));
    return _mm256_cvtepu8_epi32(b);
  }
  if (bits == 4) {
    const __m256i shifts = _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28);
    const __m256i word = _mm256_set1_epi32(
        static_cast<int>(row_words[c0 / 8]));
    return _mm256_and_si256(_mm256_srlv_epi32(word, shifts),
                            _mm256_set1_epi32(0xF));
  }
  alignas(32) std::int32_t tmp[8];
  for (int i = 0; i < 8; ++i)
    tmp[i] = static_cast<std::int32_t>(
        unpack_code(row_words, c0 + static_cast<std::size_t>(i), bits));
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(tmp));
}

// Dequantizes row r of a packed (bits < 16) matrix into `out`,
// bit-identical to QuantizedMatrix::dequantize_row.
inline void dequant_row_vec(const QuantizedMatrix& w, std::size_t r,
                            float* out) {
  const int bits = w.bits();
  const std::size_t cols = w.cols();
  const std::uint32_t* rw = w.packed_row(r);
  if (w.format() == QuantFormat::kPerChannel) {
    const std::int32_t qmax = qmax_for_bits(bits);
    const float scale = w.scales()[r];
    const __m256 vs = _mm256_set1_ps(scale);
    const __m256i vqmax = _mm256_set1_epi32(qmax);
    std::size_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      const __m256i q = _mm256_sub_epi32(decode8(rw, c, bits), vqmax);
      _mm256_storeu_ps(out + c,
                       _mm256_mul_ps(_mm256_cvtepi32_ps(q), vs));
    }
    for (; c < cols; ++c) {
      const std::int32_t qi =
          static_cast<std::int32_t>(unpack_code(rw, c, bits)) - qmax;
      out[c] = static_cast<float>(qi) * scale;
    }
    return;
  }
  // Group-wise: group boundaries (32/64) are multiples of 8, so within a
  // full group the vector loop stays 8-aligned; only the final, possibly
  // partial group has a scalar tail.
  const std::size_t gs = w.group_size();
  const float* gscale = w.group_scales(r);
  const float* gmin = w.group_mins(r);
  std::size_t c = 0, g = 0;
  while (c < cols) {
    const std::size_t gend = std::min(cols, c + gs);
    const __m256 vs = _mm256_set1_ps(gscale[g]);
    const __m256 vm = _mm256_set1_ps(gmin[g]);
    for (; c + 8 <= gend; c += 8) {
      const __m256 codes = _mm256_cvtepi32_ps(decode8(rw, c, bits));
      _mm256_storeu_ps(out + c,
                       _mm256_add_ps(_mm256_mul_ps(codes, vs), vm));
    }
    for (; c < gend; ++c)
      out[c] = static_cast<float>(unpack_code(rw, c, bits)) * gscale[g] +
               gmin[g];
    ++g;
  }
}

#if LLMPQ_SIMD_IMPL_AVX512

inline float dot_vec(const float* a, const float* b, std::size_t n) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t c = 0;
  for (; c + 32 <= n; c += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + c), _mm512_loadu_ps(b + c),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + c + 16),
                           _mm512_loadu_ps(b + c + 16), acc1);
  }
  for (; c + 16 <= n; c += 16)
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + c), _mm512_loadu_ps(b + c),
                           acc0);
  // Spilled horizontal sum instead of _mm512_reduce_add_ps: GCC's reduce
  // implementation trips -Wmaybe-uninitialized via _mm256_undefined_pd.
  alignas(64) float lanes[16];
  _mm512_store_ps(lanes, _mm512_add_ps(acc0, acc1));
  float total = 0.0f;
  for (int i = 0; i < 16; ++i) total += lanes[i];
  for (; c < n; ++c) total += a[c] * b[c];
  return total;
}

#else  // AVX2

inline float hsum256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_movehdup_ps(lo));
  return _mm_cvtss_f32(lo);
}

inline float dot_vec(const float* a, const float* b, std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t c = 0;
  for (; c + 16 <= n; c += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + c), _mm256_loadu_ps(b + c),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + c + 8),
                           _mm256_loadu_ps(b + c + 8), acc1);
  }
  for (; c + 8 <= n; c += 8)
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + c), _mm256_loadu_ps(b + c),
                           acc0);
  float total = hsum256(_mm256_add_ps(acc0, acc1));
  for (; c < n; ++c) total += a[c] * b[c];
  return total;
}

#endif  // LLMPQ_SIMD_IMPL_AVX512

// Dequantize-to-scratch kernel: every format and bit width, any m.
inline void qgemm_rows_unfused_impl(const float* x, std::size_t m,
                                    std::size_t cols,
                                    const QuantizedMatrix& w,
                                    const float* bias, float* y,
                                    std::size_t r0, std::size_t r1,
                                    float* scratch) {
  const std::size_t rows = w.rows();
  for (std::size_t r = r0; r < r1; ++r) {
    const float* wrow = w.fp_row(r);
    if (wrow == nullptr) {
      dequant_row_vec(w, r, scratch);
      wrow = scratch;
    }
    const float b = bias == nullptr ? 0.0f : bias[r];
    for (std::size_t i = 0; i < m; ++i)
      y[i * rows + r] = b + dot_vec(x + i * cols, wrow, cols);
  }
}

// ---- Fused small-m kernels.
//
// A tile of R weight rows times M activation rows: each weight vector is
// decoded once into registers and multiplied into all M rows of x, and
// each x vector is loaded once for all R weight rows. No scratch row.
//
// Bit contract: every output element runs dot_vec's exact sequence — the
// same two accumulators over the same column blocks, the same lane sum,
// the same scalar tail — on weights dequantized with the same IEEE
// operations as dequant_row_vec. An element's bits therefore depend on
// neither M, the tile, nor [r0, r1), and match the unfused kernel.

// The tile loops have compile-time trip counts; unrolled, the
// accumulators and decoded weights stay in registers instead of stack
// arrays.
#define LLMPQ_UNROLL _Pragma("GCC unroll 16")

// A plain row-major fp32 matrix, read through the 16-bit path.
struct F32Rows {
  const float* data;
  std::size_t n_rows;
  std::size_t n_cols;
  std::size_t rows() const { return n_rows; }
  const float* fp_row(std::size_t r) const { return data + r * n_cols; }
};

// Weight-row sources: load(c) yields the dequantized weights [c, c + kW)
// (c a multiple of kW), at(c) one dequantized weight.

struct FpRow {
  const float* p = nullptr;
  template <typename Mat>
  void init(const Mat& w, std::size_t r) {
    p = w.fp_row(r);
  }
  float at(std::size_t c) const { return p[c]; }
};

struct PerChannelRow {
  const std::uint32_t* words = nullptr;
  float scale = 0.0f;
  std::int32_t qmax = 0;
  int bits = 0;
  void init(const QuantizedMatrix& w, std::size_t r) {
    words = w.packed_row(r);
    scale = w.scales()[r];
    bits = w.bits();
    qmax = qmax_for_bits(bits);
  }
  float at(std::size_t c) const {
    const std::int32_t qi =
        static_cast<std::int32_t>(unpack_code(words, c, bits)) - qmax;
    return static_cast<float>(qi) * scale;
  }
};

#if LLMPQ_SIMD_IMPL_AVX512

using Vec = __m512;
constexpr std::size_t kW = 16;
inline Vec vzero() { return _mm512_setzero_ps(); }
inline Vec vload(const float* p) { return _mm512_loadu_ps(p); }
inline Vec vfmadd(Vec a, Vec b, Vec c) { return _mm512_fmadd_ps(a, b, c); }

// dot_vec's reduction for K accumulator pairs, the K serial lane sums
// interleaved so they overlap instead of running back to back.
template <int K>
inline void reduce_pairs(const Vec* a0, const Vec* a1, float* out) {
  alignas(64) float lanes[K][16];
  LLMPQ_UNROLL
  for (int k = 0; k < K; ++k)
    _mm512_store_ps(lanes[k], _mm512_add_ps(a0[k], a1[k]));
  LLMPQ_UNROLL
  for (int k = 0; k < K; ++k) out[k] = 0.0f;
  LLMPQ_UNROLL
  for (int l = 0; l < 16; ++l) {
    LLMPQ_UNROLL
    for (int k = 0; k < K; ++k) out[k] += lanes[k][l];
  }
}

// All-lanes mask for the maskz_ forms below: GCC 12's unmasked
// cvtepi32_ps, cvtepu8_epi32, permutexvar and srlv pass an
// _mm512_undefined_* operand that trips -Wmaybe-uninitialized; with a
// full mask the same instruction is emitted.
constexpr __mmask16 kAll = 0xFFFF;

struct FpSrc : FpRow {
  Vec load(std::size_t c) const { return _mm512_loadu_ps(p + c); }
};

// 4-bit: the 16 possible dequantized values of the row sit in one
// register (code k -> float(k - qmax) * scale, the same convert and
// multiply as dequant_row_vec), so decoding is a word spread, a variable
// shift and a table permute (vpermps reads only an index's low 4 bits).
struct PerChannel4Src : PerChannelRow {
  Vec lut;
  void init(const QuantizedMatrix& w, std::size_t r) {
    PerChannelRow::init(w, r);
    const __m512i k = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                        11, 12, 13, 14, 15);
    lut = _mm512_mul_ps(
        _mm512_maskz_cvtepi32_ps(
            kAll, _mm512_sub_epi32(k, _mm512_set1_epi32(qmax))),
        _mm512_set1_ps(scale));
  }
  Vec load(std::size_t c) const {
    const __m512i spread_idx =
        _mm512_setr_epi32(0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1);
    const __m512i shifts = _mm512_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28, 0,
                                             4, 8, 12, 16, 20, 24, 28);
    const __m512i two_words = _mm512_zextsi128_si512(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(words + c / 8)));
    const __m512i codes = _mm512_maskz_srlv_epi32(
        kAll, _mm512_maskz_permutexvar_epi32(kAll, spread_idx, two_words),
        shifts);
    return _mm512_maskz_permutexvar_ps(kAll, codes, lut);
  }
};

struct PerChannel8Src : PerChannelRow {
  Vec load(std::size_t c) const {
    const std::uint8_t* bytes = reinterpret_cast<const std::uint8_t*>(words);
    const __m512i q = _mm512_sub_epi32(
        _mm512_maskz_cvtepu8_epi32(
            kAll,
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + c))),
        _mm512_set1_epi32(qmax));
    return _mm512_mul_ps(_mm512_maskz_cvtepi32_ps(kAll, q),
                         _mm512_set1_ps(scale));
  }
};

#else  // AVX2

using Vec = __m256;
constexpr std::size_t kW = 8;
inline Vec vzero() { return _mm256_setzero_ps(); }
inline Vec vload(const float* p) { return _mm256_loadu_ps(p); }
inline Vec vfmadd(Vec a, Vec b, Vec c) { return _mm256_fmadd_ps(a, b, c); }

template <int K>
inline void reduce_pairs(const Vec* a0, const Vec* a1, float* out) {
  LLMPQ_UNROLL
  for (int k = 0; k < K; ++k) out[k] = hsum256(_mm256_add_ps(a0[k], a1[k]));
}

struct FpSrc : FpRow {
  Vec load(std::size_t c) const { return _mm256_loadu_ps(p + c); }
};

template <int Bits>
struct PerChannelSrc : PerChannelRow {
  Vec load(std::size_t c) const {
    const __m256i q =
        _mm256_sub_epi32(decode8(words, c, Bits), _mm256_set1_epi32(qmax));
    return _mm256_mul_ps(_mm256_cvtepi32_ps(q), _mm256_set1_ps(scale));
  }
};
using PerChannel4Src = PerChannelSrc<4>;
using PerChannel8Src = PerChannelSrc<8>;

#endif  // LLMPQ_SIMD_IMPL_AVX512

// Output rows [r, r + R) of an M-row x.
template <int M, int R, typename Src, typename Mat>
inline void fused_tile(const float* x, std::size_t cols, std::size_t rows,
                       const Mat& w, const float* bias, float* y,
                       std::size_t r) {
  Src src[R];
  LLMPQ_UNROLL
  for (int j = 0; j < R; ++j) src[j].init(w, r + static_cast<std::size_t>(j));
  Vec acc0[M * R], acc1[M * R];
  LLMPQ_UNROLL
  for (int k = 0; k < M * R; ++k) acc0[k] = acc1[k] = vzero();
  std::size_t c = 0;
  for (; c + 2 * kW <= cols; c += 2 * kW) {
    Vec x0[M], x1[M];
    LLMPQ_UNROLL
    for (int i = 0; i < M; ++i) {
      x0[i] = vload(x + i * cols + c);
      x1[i] = vload(x + i * cols + c + kW);
    }
    LLMPQ_UNROLL
    for (int j = 0; j < R; ++j) {
      const Vec w0 = src[j].load(c);
      const Vec w1 = src[j].load(c + kW);
      LLMPQ_UNROLL
      for (int i = 0; i < M; ++i) {
        acc0[i * R + j] = vfmadd(x0[i], w0, acc0[i * R + j]);
        acc1[i * R + j] = vfmadd(x1[i], w1, acc1[i * R + j]);
      }
    }
  }
  for (; c + kW <= cols; c += kW) {
    LLMPQ_UNROLL
    for (int j = 0; j < R; ++j) {
      const Vec w0 = src[j].load(c);
      LLMPQ_UNROLL
      for (int i = 0; i < M; ++i)
        acc0[i * R + j] =
            vfmadd(vload(x + i * cols + c), w0, acc0[i * R + j]);
    }
  }
  float total[M * R];
  reduce_pairs<M * R>(acc0, acc1, total);
  for (; c < cols; ++c) {
    LLMPQ_UNROLL
    for (int j = 0; j < R; ++j) {
      const float wv = src[j].at(c);
      LLMPQ_UNROLL
      for (int i = 0; i < M; ++i) total[i * R + j] += x[i * cols + c] * wv;
    }
  }
  LLMPQ_UNROLL
  for (int j = 0; j < R; ++j) {
    const std::size_t rj = r + static_cast<std::size_t>(j);
    const float b = bias == nullptr ? 0.0f : bias[rj];
    LLMPQ_UNROLL
    for (int i = 0; i < M; ++i) y[i * rows + rj] = b + total[i * R + j];
  }
}

// Weight rows per tile for M activation rows: enough independent
// accumulator chains to hide FMA latency.
template <int M>
constexpr int kTileRows = M == 1 ? 4 : 2;

template <int M, typename Src, typename Mat>
inline void fused_rows(const float* x, std::size_t cols, const Mat& w,
                       const float* bias, float* y, std::size_t r0,
                       std::size_t r1) {
  constexpr int R = kTileRows<M>;
  const std::size_t rows = w.rows();
  std::size_t r = r0;
  for (; r + R <= r1; r += R)
    fused_tile<M, R, Src>(x, cols, rows, w, bias, y, r);
  for (; r < r1; ++r) fused_tile<M, 1, Src>(x, cols, rows, w, bias, y, r);
}

// m in [1, kQgemmFusedMaxM].
template <typename Src, typename Mat>
inline void fused_rows_m(const float* x, std::size_t m, std::size_t cols,
                         const Mat& w, const float* bias, float* y,
                         std::size_t r0, std::size_t r1) {
  switch (m) {
    case 1:
      return fused_rows<1, Src>(x, cols, w, bias, y, r0, r1);
    case 2:
      return fused_rows<2, Src>(x, cols, w, bias, y, r0, r1);
    case 3:
      return fused_rows<3, Src>(x, cols, w, bias, y, r0, r1);
    default:
      return fused_rows<4, Src>(x, cols, w, bias, y, r0, r1);
  }
}

inline void qgemm_rows_impl(const float* x, std::size_t m, std::size_t cols,
                            const QuantizedMatrix& w, const float* bias,
                            float* y, std::size_t r0, std::size_t r1,
                            float* scratch) {
  if (!qgemm_fused_applies(w, m)) {
    qgemm_rows_unfused_impl(x, m, cols, w, bias, y, r0, r1, scratch);
    return;
  }
  switch (w.bits()) {
    case 16:
      return fused_rows_m<FpSrc>(x, m, cols, w, bias, y, r0, r1);
    case 8:
      return fused_rows_m<PerChannel8Src>(x, m, cols, w, bias, y, r0, r1);
    default:
      return fused_rows_m<PerChannel4Src>(x, m, cols, w, bias, y, r0, r1);
  }
}

// Plain fp32 W: the fused 16-bit path in blocks of kQgemmFusedMaxM rows
// of x (a row's bits do not depend on the block it lands in).
inline void f32_rows_impl(const float* x, std::size_t m, std::size_t cols,
                          const float* w, std::size_t rows, float* y) {
  const F32Rows mat{w, rows, cols};
  for (std::size_t i0 = 0; i0 < m; i0 += kQgemmFusedMaxM) {
    const std::size_t mb = std::min(kQgemmFusedMaxM, m - i0);
    fused_rows_m<FpSrc>(x + i0 * cols, mb, cols, mat, nullptr,
                        y + i0 * rows, 0, rows);
  }
}

#undef LLMPQ_UNROLL

}  // namespace
}  // namespace llmpq
