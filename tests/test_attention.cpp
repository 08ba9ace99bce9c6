// Attention kernel: the scalar level is the pre-kernel loop bit for bit,
// the vector levels stay within their documented tolerance of it, and a
// (row, head)'s bits depend only on its inputs — so a prefill row equals
// the single-token decode call at its position at every level, whether
// the call fans out over the pool or runs inline.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "runtime/attention.hpp"
#include "runtime/kv_cache_manager.hpp"
#include "runtime/tensor.hpp"
#include "runtime/transformer.hpp"

namespace llmpq {

#if defined(LLMPQ_HAVE_AVX2)
// The vector kernel's softmax exp (attention_avx2.cpp). Declared here, not
// in attention.hpp: only the exp bound test below calls it directly.
void attention_exp_avx2(const float* x, std::size_t n, float* y);
#endif

namespace {

std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel l :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512})
    if (simd_level_available(l)) levels.push_back(l);
  return levels;
}

std::vector<float> normal_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// `ctx` cached rows of `hidden` floats each, as K/V row pointers.
struct Context {
  std::vector<float> k, v;
  std::vector<const float*> k_rows, v_rows;
  Context(std::size_t ctx, std::size_t hidden, std::uint64_t seed)
      : k(normal_values(ctx * hidden, seed)),
        v(normal_values(ctx * hidden, seed + 1)) {
    for (std::size_t p = 0; p < ctx; ++p) {
      k_rows.push_back(k.data() + p * hidden);
      v_rows.push_back(v.data() + p * hidden);
    }
  }
};

/// The attention loop of the layer body before the kernel existed, kept
/// verbatim (one query row over every head).
void pre_kernel_attention(const float* q,
                          const std::vector<const float*>& k_rows,
                          const std::vector<const float*>& v_rows,
                          std::size_t span, std::size_t heads, std::size_t dh,
                          float* ctx_out) {
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));
  std::vector<float> scores(span);
  for (std::size_t head = 0; head < heads; ++head) {
    const std::size_t off = head * dh;
    for (std::size_t p = 0; p < span; ++p) {
      const float* k = k_rows[p] + off;
      float dot = 0.0f;
      for (std::size_t d = 0; d < dh; ++d) dot += q[off + d] * k[d];
      scores[p] = dot * inv_sqrt_dh;
    }
    softmax(std::span<float>(scores.data(), span));
    for (std::size_t p = 0; p < span; ++p) {
      const float* v = v_rows[p] + off;
      const float sp_w = scores[p];
      for (std::size_t d = 0; d < dh; ++d) ctx_out[off + d] += sp_w * v[d];
    }
  }
}

TEST(AttentionKernel, ScalarMatchesPreKernelLoopBitForBit) {
  const std::size_t heads = 3;
  for (std::size_t dh : {8u, 12u, 32u, 64u}) {
    const std::size_t h = heads * dh;
    const Context c(300, h, 5);
    const auto q = normal_values(h, 7);
    for (std::size_t span : {1u, 17u, 300u}) {
      std::vector<float> want(h, 0.0f), got(h, -1.0f), scores(span);
      pre_kernel_attention(q.data(), c.k_rows, c.v_rows, span, heads, dh,
                           want.data());
      for (std::size_t head = 0; head < heads; ++head)
        attention_head_scalar(q.data() + head * dh, c.k_rows.data(),
                              c.v_rows.data(), head * dh, span, dh,
                              scores.data(), got.data() + head * dh);
      EXPECT_EQ(std::memcmp(want.data(), got.data(), h * sizeof(float)), 0)
          << "dh=" << dh << " span=" << span;
    }
  }
}

TEST(AttentionKernel, VectorLevelsWithinToleranceOfScalar) {
  for (SimdLevel level : available_levels()) {
    if (level == SimdLevel::kScalar) continue;
    const AttentionHeadFn kernel = attention_head_kernel(level);
    for (std::size_t dh : {8u, 12u, 32u, 64u, 128u}) {
      const std::size_t heads = 2, h = heads * dh;
      const Context c(300, h, 11);
      const auto q = normal_values(h, 13);
      for (std::size_t span : {1u, 15u, 16u, 17u, 300u}) {
        std::vector<float> want(dh), got(dh), scores(span);
        for (std::size_t head = 0; head < heads; ++head) {
          const std::size_t off = head * dh;
          attention_head_scalar(q.data() + off, c.k_rows.data(),
                                c.v_rows.data(), off, span, dh, scores.data(),
                                want.data());
          kernel(q.data() + off, c.k_rows.data(), c.v_rows.data(), off, span,
                 dh, scores.data(), got.data());
          for (std::size_t d = 0; d < dh; ++d) {
            float vmax = 0.0f;
            for (std::size_t p = 0; p < span; ++p)
              vmax = std::max(vmax, std::fabs(c.v_rows[p][off + d]));
            EXPECT_NEAR(got[d], want[d], kAttentionTolerance * vmax)
                << simd_level_name(level) << " dh=" << dh << " span=" << span
                << " head=" << head << " d=" << d;
          }
        }
      }
    }
  }
}

#if defined(LLMPQ_HAVE_AVX2)
TEST(AttentionKernel, VectorExpWithinDocumentedBound) {
  if (!simd_level_available(SimdLevel::kAvx2)) GTEST_SKIP() << "no AVX2";
  // Dense sweep of the softmax's domain, plus its end points.
  std::vector<float> x;
  for (int i = 0; i <= 400000; ++i)
    x.push_back(-87.33f * static_cast<float>(i) / 400000.0f);
  x.push_back(-0.0f);
  x.push_back(-1e-30f);
  std::vector<float> y(x.size());
  attention_exp_avx2(x.data(), x.size(), y.data());
  float worst = 0.0f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float want = std::exp(x[i]);
    worst = std::max(worst, std::fabs(y[i] - want) / want);
  }
  EXPECT_LE(worst, kAttentionExpMaxRelError);
  const std::vector<float> below = {-87.5f, -100.0f, -1e30f};
  std::vector<float> yb(below.size());
  attention_exp_avx2(below.data(), below.size(), yb.data());
  for (float v : yb) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, FLT_MIN);
  }
}
#endif

/// A prefill of `n` rows at positions [prefix, prefix + n) in one call,
/// against `n` single-row decode calls; every row must match bit for bit.
void expect_prefill_matches_decode(std::size_t heads, std::size_t dh,
                                   std::size_t prefix, std::size_t n) {
  const std::size_t h = heads * dh, ctx = prefix + n;
  const Context c(ctx, h, 17);
  const auto q = normal_values(n * h, 19);
  std::vector<float> prefill(n * h), decode(n * h);
  std::vector<AttentionRow> rows(n);
  for (std::size_t t = 0; t < n; ++t)
    rows[t] = AttentionRow{q.data() + t * h, c.k_rows.data(), c.v_rows.data(),
                           prefix + t + 1, prefill.data() + t * h};
  // One call on each side of the fan-out threshold.
  ASSERT_GE(attention_macs(rows, heads, dh), kAttentionParallelMacs);
  ASSERT_LT(attention_macs(std::span(rows).last(1), heads, dh),
            kAttentionParallelMacs);
  for (SimdLevel level : available_levels()) {
    ScopedSimdLevel pin(level);
    attend_rows(rows, heads, dh);
    for (std::size_t t = 0; t < n; ++t) {
      AttentionRow one = rows[t];
      one.out = decode.data() + t * h;
      attend_rows(std::span(&one, 1), heads, dh);
    }
    EXPECT_EQ(std::memcmp(prefill.data(), decode.data(), n * h * sizeof(float)),
              0)
        << simd_level_name(level) << " dh=" << dh;
  }
}

TEST(AttentionKernel, PrefillRowsMatchSingleTokenDecodeCalls) {
  expect_prefill_matches_decode(/*heads=*/4, /*dh=*/16, /*prefix=*/100,
                                /*n=*/40);
  expect_prefill_matches_decode(/*heads=*/3, /*dh=*/12, /*prefix=*/150,
                                /*n=*/40);
}

// The same property through the whole layer over the paged cache: a
// prefill of n tokens leaves every row with the bits of n single-token
// decode passes, at every level (qgemm keeps its rows m-independent too).
TEST(AttentionKernel, LayerPrefillMatchesTokenByTokenDecode) {
  ModelSpec spec;
  spec.name = "attn-layer";
  spec.family = "opt";
  spec.hidden = 64;
  spec.ffn = 256;
  spec.heads = 4;
  spec.layers = 1;
  spec.vocab = 32;
  spec.max_pos = 128;
  const ModelWeights mw = build_random_model(spec, {8}, 23);
  // 32 tokens: the prefill's attention (2 * 528 * 64 MACs) fans out, each
  // decode step's stays inline.
  const std::size_t n = 32, h = 64;
  const auto x0 = normal_values(n * h, 29);
  for (SimdLevel level : available_levels()) {
    ScopedSimdLevel pin(level);
    KvCacheManager a(h), b(h);
    a.begin_seq(0);
    b.begin_seq(0);
    a.reserve(0, n);
    b.reserve(0, n);
    Tensor2D xa(n, h);
    std::copy(x0.begin(), x0.end(), xa.flat().begin());
    const SeqSpan all{0, n};
    ASSERT_GE(2 * (n * (n + 1) / 2) * h, kAttentionParallelMacs);
    decoder_layer_forward(spec, mw.layers[0], xa, a, std::span(&all, 1));
    for (std::size_t t = 0; t < n; ++t) {
      Tensor2D xb(1, h);
      std::copy(x0.begin() + static_cast<std::ptrdiff_t>(t * h),
                x0.begin() + static_cast<std::ptrdiff_t>((t + 1) * h),
                xb.flat().begin());
      const SeqSpan one{0, 1};
      decoder_layer_forward(spec, mw.layers[0], xb, b, std::span(&one, 1));
      EXPECT_EQ(std::memcmp(xa.row(t), xb.row(0), h * sizeof(float)), 0)
          << simd_level_name(level) << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace llmpq
