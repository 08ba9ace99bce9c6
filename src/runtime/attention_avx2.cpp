// AVX2 + FMA attention kernel TU, built with -mavx2 -mfma
// -ffp-contract=off (see CMakeLists) only when the compiler accepts them;
// the dispatcher never selects it on a CPU without AVX2/FMA. It also
// serves the AVX-512 level: a 512-bit version measured no faster at the
// decode shapes perfbench serves (see DESIGN.md "Attention kernel").
//
// Contract (see attention.hpp): every operation sequence below is a
// function of dh and span only — never of pointer alignment, the batch or
// the thread — so a (row, head)'s bits depend only on its inputs.

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "runtime/attention.hpp"

namespace llmpq {
namespace {

constexpr std::size_t kW = 8;
constexpr int kMaxBlock = 4;

inline __m256i tail_mask(std::size_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}
inline __m256 vload_tail(const float* p, __m256i m) {
  return _mm256_maskload_ps(p, m);
}
inline __m256 vload_tail_or(const float* p, __m256i m, __m256 fill) {
  return _mm256_blendv_ps(fill, _mm256_maskload_ps(p, m),
                          _mm256_castsi256_ps(m));
}
inline void vstore_tail(float* p, __m256 v, __m256i m) {
  _mm256_maskstore_ps(p, m, v);
}
inline __m256 vkeep(__m256 v, __m256i m) {
  return _mm256_and_ps(v, _mm256_castsi256_ps(m));
}

inline __m256 scale_pow2(__m256 y, __m256 n) {
  const __m256i bits = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(bits));
}
inline __m256 round_nearest(__m256 v) {
  return _mm256_round_ps(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
}
inline __m256 keep_if_ge(__m256 v, __m256 a, __m256 b) {
  return _mm256_and_ps(v, _mm256_cmp_ps(a, b, _CMP_GE_OQ));
}

inline float hsum256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  lo = _mm_add_ps(lo, _mm256_extractf128_ps(v, 1));
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_movehdup_ps(lo));
  return _mm_cvtss_f32(lo);
}

inline float hmax256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  lo = _mm_max_ps(lo, _mm256_extractf128_ps(v, 1));
  lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_max_ss(lo, _mm_movehdup_ps(lo));
  return _mm_cvtss_f32(lo);
}

/// exp(x) for x <= 0 (the softmax's domain): Cephes' expf. Round x*log2(e)
/// to n, reduce r = x - n*ln2 in two FMA steps, a degree-5 polynomial for
/// e^r on [-ln2/2, ln2/2], then scale by 2^n. Below ln(FLT_MIN) the result
/// is 0 (std::exp returns a denormal there, under 1.2e-38).
inline __m256 exp_vec(__m256 x) {
  const __m256 lo = _mm256_set1_ps(-87.33654f);  // ln(FLT_MIN)
  const __m256 xc =
      _mm256_min_ps(_mm256_max_ps(x, lo), _mm256_set1_ps(88.0f));
  const __m256 n = round_nearest(
      _mm256_mul_ps(xc, _mm256_set1_ps(1.44269504088896341f)));
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693359375f), xc);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.12194440e-4f), r);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, _mm256_mul_ps(r, r),
                      _mm256_add_ps(r, _mm256_set1_ps(1.0f)));
  return keep_if_ge(scale_pow2(y, n), x, lo);
}

#define LLMPQ_ATTN_UNROLL _Pragma("GCC unroll 16")

/// Keys scored per group: their dot products share each q load, run as
/// independent FMA chains and reduce together.
constexpr std::size_t kKeys = 8;

/// The 8 lane-sums of acc[0..8) as one vector. Each key's sum is a fixed
/// tree over its own lanes (two hadds, one cross-half add), so it
/// does not depend on the other keys in the group.
inline __m256 reduce8(const __m256* acc) {
  const __m256 h01 = _mm256_hadd_ps(acc[0], acc[1]);
  const __m256 h23 = _mm256_hadd_ps(acc[2], acc[3]);
  const __m256 h45 = _mm256_hadd_ps(acc[4], acc[5]);
  const __m256 h67 = _mm256_hadd_ps(acc[6], acc[7]);
  const __m256 lo = _mm256_hadd_ps(h01, h23);
  const __m256 hi = _mm256_hadd_ps(h45, h67);
  return _mm256_add_ps(_mm256_permute2f128_ps(lo, hi, 0x20),
                       _mm256_permute2f128_ps(lo, hi, 0x31));
}

/// scores[p] = (q . K_p) * scale for p in [p0, min(p0 + 8, span)). Past
/// the end the group repeats key span - 1 and drops those results, so
/// every key is scored by the same sequence.
inline void score_group(const float* q, const float* const* k_rows,
                        std::size_t off, std::size_t p0, std::size_t span,
                        std::size_t dh, float scale, float* scores) {
  const float* k[kKeys];
  LLMPQ_ATTN_UNROLL
  for (std::size_t j = 0; j < kKeys; ++j)
    k[j] = k_rows[std::min(p0 + j, span - 1)] + off;
  __m256 acc[kKeys];
  LLMPQ_ATTN_UNROLL
  for (std::size_t j = 0; j < kKeys; ++j) acc[j] = _mm256_set1_ps(0.0f);
  std::size_t c = 0;
  for (; c + kW <= dh; c += kW) {
    const __m256 qv = _mm256_loadu_ps(q + c);
    LLMPQ_ATTN_UNROLL
    for (std::size_t j = 0; j < kKeys; ++j)
      acc[j] = _mm256_fmadd_ps(qv, _mm256_loadu_ps(k[j] + c), acc[j]);
  }
  if (c < dh) {
    const __m256i m = tail_mask(dh - c);
    const __m256 qv = vload_tail(q + c, m);
    LLMPQ_ATTN_UNROLL
    for (std::size_t j = 0; j < kKeys; ++j)
      acc[j] = _mm256_fmadd_ps(qv, vload_tail(k[j] + c, m), acc[j]);
  }
  const __m256 s = _mm256_mul_ps(reduce8(acc), _mm256_set1_ps(scale));
  const std::size_t valid = std::min(kKeys, span - p0);
  if (valid == kKeys) {
    _mm256_storeu_ps(scores + p0, s);
  } else {
    _mm256_maskstore_ps(scores + p0, tail_mask(valid), s);
  }
}

/// In-place softmax over scores[0, span): vector max (exact in any
/// order), vector exp and lane-parallel sum, then one multiply by the
/// reciprocal, as the scalar softmax does.
inline void softmax_vec(float* s, std::size_t span) {
  const std::size_t full = span - span % kW;
  const __m256i m = tail_mask(span % kW);
  const bool tail = full < span;
  const __m256 neg_inf =
      _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  __m256 mv = neg_inf;
  for (std::size_t p = 0; p < full; p += kW)
    mv = _mm256_max_ps(mv, _mm256_loadu_ps(s + p));
  if (tail) mv = _mm256_max_ps(mv, vload_tail_or(s + full, m, neg_inf));
  const __m256 mx = _mm256_set1_ps(hmax256(mv));
  __m256 sv = _mm256_set1_ps(0.0f);
  for (std::size_t p = 0; p < full; p += kW) {
    const __m256 e = exp_vec(_mm256_sub_ps(_mm256_loadu_ps(s + p), mx));
    _mm256_storeu_ps(s + p, e);
    sv = _mm256_add_ps(sv, e);
  }
  if (tail) {
    const __m256 e =
        vkeep(exp_vec(_mm256_sub_ps(vload_tail(s + full, m), mx)), m);
    vstore_tail(s + full, e, m);
    sv = _mm256_add_ps(sv, e);
  }
  const __m256 inv = _mm256_set1_ps(1.0f / hsum256(sv));
  for (std::size_t p = 0; p < full; p += kW)
    _mm256_storeu_ps(s + p, _mm256_mul_ps(_mm256_loadu_ps(s + p), inv));
  if (tail)
    vstore_tail(s + full, _mm256_mul_ps(vload_tail(s + full, m), inv), m);
}

/// out[c, c + NV*kW (+ tail)) = sum_p w[p] * V_p[c...], the p order
/// ascending, NV full vectors plus an optional masked one in registers.
template <int NV, bool kTail>
inline void accumulate_block(const float* const* v_rows, std::size_t off,
                             std::size_t span, const float* w, __m256i m,
                             float* out) {
  constexpr int kN = NV + (kTail ? 1 : 0);
  __m256 acc[kN];
  LLMPQ_ATTN_UNROLL
  for (int j = 0; j < kN; ++j) acc[j] = _mm256_set1_ps(0.0f);
  for (std::size_t p = 0; p < span; ++p) {
    const float* v = v_rows[p] + off;
    const __m256 wp = _mm256_set1_ps(w[p]);
    LLMPQ_ATTN_UNROLL
    for (int j = 0; j < NV; ++j)
      acc[j] = _mm256_fmadd_ps(wp, _mm256_loadu_ps(v + j * kW), acc[j]);
    if constexpr (kTail)
      acc[NV] = _mm256_fmadd_ps(wp, vload_tail(v + NV * kW, m), acc[NV]);
  }
  LLMPQ_ATTN_UNROLL
  for (int j = 0; j < NV; ++j) _mm256_storeu_ps(out + j * kW, acc[j]);
  if constexpr (kTail) vstore_tail(out + NV * kW, acc[NV], m);
}

/// The final partial block: nv (< NV + 1) full vectors, plus a masked one
/// when the block has a tail.
template <int NV>
inline void accumulate_rest(std::size_t nv, bool tail,
                            const float* const* v_rows, std::size_t off,
                            std::size_t span, const float* w, __m256i m,
                            float* out) {
  if constexpr (NV == 0) {
    if (tail) accumulate_block<0, true>(v_rows, off, span, w, m, out);
  } else if (nv == NV) {
    if (tail)
      accumulate_block<NV, true>(v_rows, off, span, w, m, out);
    else
      accumulate_block<NV, false>(v_rows, off, span, w, m, out);
  } else {
    accumulate_rest<NV - 1>(nv, tail, v_rows, off, span, w, m, out);
  }
}

}  // namespace

void attention_head_avx2(const float* q, const float* const* k_rows,
                         const float* const* v_rows, std::size_t off,
                         std::size_t span, std::size_t dh, float* scores,
                         float* out) {
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  for (std::size_t p0 = 0; p0 < span; p0 += kKeys)
    score_group(q, k_rows, off, p0, span, dh, scale, scores);
  softmax_vec(scores, span);
  constexpr std::size_t kBlock = kMaxBlock * kW;
  std::size_t c = 0;
  for (; c + kBlock <= dh; c += kBlock)
    accumulate_block<kMaxBlock, false>(v_rows, off + c, span, scores,
                                       __m256i{}, out + c);
  if (c < dh) {
    const std::size_t rest = dh - c;
    accumulate_rest<kMaxBlock - 1>(rest / kW, rest % kW != 0, v_rows,
                                   off + c, span, scores,
                                   tail_mask(rest % kW), out + c);
  }
}

// The softmax's exp over x[0, n). Declared only in the attention test,
// which holds the polynomial to kAttentionExpMaxRelError; not part of
// attention.hpp.
void attention_exp_avx2(const float* x, std::size_t n, float* y) {
  std::size_t i = 0;
  for (; i + kW <= n; i += kW)
    _mm256_storeu_ps(y + i, exp_vec(_mm256_loadu_ps(x + i)));
  if (i < n) {
    const __m256i m = tail_mask(n - i);
    vstore_tail(y + i, exp_vec(vload_tail(x + i, m)), m);
  }
}

}  // namespace llmpq
