#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "quant/format.hpp"
#include "quant/qgemm.hpp"
#include "quant/qgemm_kernels.hpp"
#include "quant/quantize.hpp"

namespace llmpq {
namespace {

std::vector<float> random_vec(std::size_t n, Rng& rng, float scale) {
  std::vector<float> v(n);
  for (float& x : v) x = scale * static_cast<float>(rng.normal());
  return v;
}

std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel l :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (simd_level_available(l)) levels.push_back(l);
  }
  return levels;
}

void run_kernel(SimdLevel level, const std::vector<float>& x, std::size_t m,
                std::size_t k, const QuantizedMatrix& w,
                const std::vector<float>& bias, std::vector<float>& y) {
  std::vector<float> scratch(k);
  qgemm_rows_kernel(level)(x.data(), m, k, w,
                           bias.empty() ? nullptr : bias.data(), y.data(), 0,
                           w.rows(), scratch.data());
}

TEST(SimdLevel, NamesRoundTrip) {
  for (SimdLevel l :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    EXPECT_EQ(simd_level_from_name(simd_level_name(l)), l);
  }
  EXPECT_THROW(simd_level_from_name("sse9"), InvalidArgumentError);
}

TEST(SimdLevel, ScalarAlwaysAvailableAndDispatchClamps) {
  EXPECT_TRUE(simd_level_available(SimdLevel::kScalar));
  // Requesting more than the machine has must clamp, never crash.
  ScopedSimdLevel pin(SimdLevel::kAvx512);
  EXPECT_TRUE(simd_level_available(active_simd_level()));
  EXPECT_NE(qgemm_rows_kernel(active_simd_level()), nullptr);
}

TEST(QuantFormat, NamesRoundTrip) {
  for (QuantFormat f : kQuantFormats) {
    EXPECT_EQ(quant_format_from_name(quant_format_name(f)), f);
  }
  EXPECT_THROW(quant_format_from_name("group128"), InvalidArgumentError);
}

// ---- Group pack/unpack round trip: every dequantized element must land
// within half a quantization step of its source, including ragged last
// groups (cols not divisible by the group size).
TEST(GroupQuant, RoundTripWithinHalfStep) {
  for (QuantFormat format : {QuantFormat::kGroup32, QuantFormat::kGroup64}) {
    const std::size_t gs = format_group_size(format);
    for (int bits : {3, 4, 8}) {
      for (std::size_t cols : {std::size_t{1}, std::size_t{31}, std::size_t{32},
                               std::size_t{33}, std::size_t{64},
                               std::size_t{65}, std::size_t{257}}) {
        Rng rng(1000 + bits + 7 * cols);
        const std::size_t rows = 3;
        const auto w = random_vec(rows * cols, rng, 0.2f);
        const QuantizedMatrix q = QuantizedMatrix::quantize(
            w, rows, cols, bits, Rounding::kDeterministic, rng, format);
        EXPECT_EQ(q.format(), format);
        EXPECT_EQ(q.group_size(), gs);
        EXPECT_EQ(q.groups_per_row(), (cols + gs - 1) / gs);
        const auto deq = q.dequantize();
        const float level_max = static_cast<float>((1 << bits) - 1);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t g = 0; g < q.groups_per_row(); ++g) {
            const std::size_t c0 = g * gs;
            const std::size_t c1 = std::min(cols, c0 + gs);
            float lo = w[r * cols + c0], hi = lo;
            for (std::size_t c = c0; c < c1; ++c) {
              lo = std::min(lo, w[r * cols + c]);
              hi = std::max(hi, w[r * cols + c]);
            }
            const float step = hi > lo ? (hi - lo) / level_max : 1.0f;
            for (std::size_t c = c0; c < c1; ++c) {
              EXPECT_LE(std::abs(deq[r * cols + c] - w[r * cols + c]),
                        0.5f * step + 1e-6f)
                  << "bits=" << bits << " cols=" << cols << " r=" << r
                  << " c=" << c;
            }
          }
        }
      }
    }
  }
}

TEST(GroupQuant, PackedBytesMatchesStaticFormula) {
  Rng rng(77);
  for (QuantFormat format : kQuantFormats) {
    for (int bits : {3, 4, 8, 16}) {
      const std::size_t rows = 5, cols = 65;
      const auto w = random_vec(rows * cols, rng, 0.1f);
      const QuantizedMatrix q = QuantizedMatrix::quantize(
          w, rows, cols, bits, Rounding::kDeterministic, rng, format);
      EXPECT_EQ(q.packed_bytes(),
                QuantizedMatrix::packed_bytes_for(rows, cols, bits, format))
          << quant_format_name(format) << " bits=" << bits;
    }
  }
}

// ---- Elementwise dequantization must be bit-identical across dispatch
// levels. A one-hot probe x = e_j makes y[r] = dequant(w[r][j]) with every
// other product an exact zero-add, so outputs must match the scalar
// kernel EXACTLY (EXPECT_EQ) — any FMA contraction or reordered
// dequantization arithmetic in a vector kernel fails this.
TEST(QgemmKernels, OneHotProbesAreBitIdenticalAcrossLevels) {
  const auto levels = available_levels();
  const std::size_t k = 97, n = 16;
  for (QuantFormat format : kQuantFormats) {
    for (int bits : {3, 4, 8, 16}) {
      if (bits == 16 && format != QuantFormat::kPerChannel) continue;
      Rng rng(50 + bits);
      const auto w = random_vec(n * k, rng, 0.3f);
      const QuantizedMatrix q = QuantizedMatrix::quantize(
          w, n, k, bits, Rounding::kDeterministic, rng, format);
      for (std::size_t j : {std::size_t{0}, std::size_t{31}, std::size_t{32},
                            std::size_t{63}, std::size_t{64}, k - 1}) {
        std::vector<float> x(k, 0.0f);
        x[j] = 1.0f;
        std::vector<float> y_ref(n);
        run_kernel(SimdLevel::kScalar, x, 1, k, q, {}, y_ref);
        for (SimdLevel level : levels) {
          std::vector<float> y(n);
          run_kernel(level, x, 1, k, q, {}, y);
          for (std::size_t r = 0; r < n; ++r) {
            EXPECT_EQ(y[r], y_ref[r])
                << simd_level_name(level) << " " << quant_format_name(format)
                << " bits=" << bits << " j=" << j << " r=" << r;
          }
        }
      }
    }
  }
}

// ---- Full dispatch x format x bits sweep with dense inputs. Vector
// kernels may reorder (and FMA-fuse) the dot-product accumulation only,
// so outputs agree with scalar within a small tolerance: for k = 257
// terms of O(0.05) magnitude, 1e-4 absolute is ~3 orders above observed
// reorder error and ~3 orders below signal.
TEST(QgemmKernels, DenseSweepMatchesScalarWithinTolerance) {
  const auto levels = available_levels();
  const std::size_t m = 3, k = 257, n = 64;
  for (QuantFormat format : kQuantFormats) {
    for (int bits : {3, 4, 8, 16}) {
      if (bits == 16 && format != QuantFormat::kPerChannel) continue;
      Rng rng(900 + bits);
      const auto x = random_vec(m * k, rng, 1.0f);
      const auto w = random_vec(n * k, rng, 0.05f);
      const auto bias = random_vec(n, rng, 0.2f);
      const QuantizedMatrix q = QuantizedMatrix::quantize(
          w, n, k, bits, Rounding::kDeterministic, rng, format);
      std::vector<float> y_ref(m * n);
      run_kernel(SimdLevel::kScalar, x, m, k, q, bias, y_ref);
      for (SimdLevel level : levels) {
        std::vector<float> y(m * n);
        run_kernel(level, x, m, k, q, bias, y);
        for (std::size_t i = 0; i < y.size(); ++i) {
          EXPECT_NEAR(y[i], y_ref[i], 1e-4)
              << simd_level_name(level) << " " << quant_format_name(format)
              << " bits=" << bits << " i=" << i;
        }
      }
    }
  }
}

// ---- Ragged group tails through the kernels: cols that leave a 1-wide
// final group must still agree across levels.
TEST(QgemmKernels, RaggedGroupTailAgrees) {
  const auto levels = available_levels();
  for (QuantFormat format : {QuantFormat::kGroup32, QuantFormat::kGroup64}) {
    const std::size_t k = format_group_size(format) + 1, n = 8, m = 2;
    for (int bits : {3, 4, 8}) {
      Rng rng(40 + bits);
      const auto x = random_vec(m * k, rng, 1.0f);
      const auto w = random_vec(n * k, rng, 0.1f);
      const QuantizedMatrix q = QuantizedMatrix::quantize(
          w, n, k, bits, Rounding::kDeterministic, rng, format);
      std::vector<float> y_ref(m * n);
      run_kernel(SimdLevel::kScalar, x, m, k, q, {}, y_ref);
      for (SimdLevel level : levels) {
        std::vector<float> y(m * n);
        run_kernel(level, x, m, k, q, {}, y);
        for (std::size_t i = 0; i < y.size(); ++i) {
          EXPECT_NEAR(y[i], y_ref[i], 1e-4) << simd_level_name(level);
        }
      }
    }
  }
}

// ---- The public qgemm() entry point must honour the pinned level: its
// output equals a direct call of that level's kernel.
TEST(QgemmKernels, PublicEntryDispatchesPinnedLevel) {
  const std::size_t m = 4, k = 128, n = 32;
  Rng rng(7);
  const auto x = random_vec(m * k, rng, 1.0f);
  const auto w = random_vec(n * k, rng, 0.05f);
  const auto bias = random_vec(n, rng, 0.1f);
  const QuantizedMatrix q = QuantizedMatrix::quantize(
      w, n, k, 4, Rounding::kDeterministic, rng, QuantFormat::kGroup32);
  for (SimdLevel level : available_levels()) {
    ScopedSimdLevel pin(level);
    std::vector<float> y_api(m * n), y_direct(m * n);
    qgemm(x, m, k, q, bias, y_api);
    run_kernel(level, x, m, k, q, bias, y_direct);
    for (std::size_t i = 0; i < y_api.size(); ++i) {
      EXPECT_EQ(y_api[i], y_direct[i]) << simd_level_name(level);
    }
  }
}

// ---- The fused small-m path must reproduce the unfused kernel bit for
// bit at every level: any m, cols with every kind of tail (not a multiple
// of the 32-column block), odd row ranges, and rows outside [r0, r1)
// left untouched. Row i of an m-row call must also equal the m = 1 call
// on that row alone — the property that keeps the runtime's small-m
// decode tokens equal to reference_generate's full-group calls.
TEST(QgemmKernels, FusedMatchesUnfusedBitForBit) {
  const std::size_t n = 13;
  const float sentinel = -7.25f;
  for (SimdLevel level : available_levels()) {
    const QgemmRowsFn fused = qgemm_rows_kernel(level);
    const QgemmRowsFn unfused = qgemm_rows_unfused_kernel(level);
    for (int bits : {4, 8, 16}) {
      for (std::size_t k : {std::size_t{40}, std::size_t{264},
                            std::size_t{1000}, std::size_t{23}}) {
        Rng rng(300 + static_cast<std::uint64_t>(bits) + k);
        const auto w = random_vec(n * k, rng, 0.05f);
        const auto bias = random_vec(n, rng, 0.1f);
        const QuantizedMatrix q = QuantizedMatrix::quantize(
            w, n, k, bits, Rounding::kDeterministic, rng);
        std::vector<float> scratch(k);
        for (std::size_t m = 1; m <= 5; ++m) {
          const auto x = random_vec(m * k, rng, 1.0f);
          for (const auto& [r0, r1] :
               {std::pair<std::size_t, std::size_t>{0, n},
                {1, 12}, {3, 4}, {5, 13}, {2, 9}}) {
            std::vector<float> y_f(m * n, sentinel), y_u(m * n, sentinel);
            fused(x.data(), m, k, q, bias.data(), y_f.data(), r0, r1,
                  scratch.data());
            unfused(x.data(), m, k, q, bias.data(), y_u.data(), r0, r1,
                    scratch.data());
            EXPECT_EQ(std::memcmp(y_f.data(), y_u.data(),
                                  y_f.size() * sizeof(float)),
                      0)
                << simd_level_name(level) << " bits=" << bits << " k=" << k
                << " m=" << m << " rows [" << r0 << ", " << r1 << ")";
            for (std::size_t i = 0; i < m; ++i) {
              std::vector<float> y1(n, sentinel);
              fused(x.data() + i * k, 1, k, q, bias.data(), y1.data(), r0,
                    r1, scratch.data());
              EXPECT_EQ(std::memcmp(y1.data(), y_f.data() + i * n,
                                    n * sizeof(float)),
                        0)
                  << simd_level_name(level) << " bits=" << bits
                  << " k=" << k << " m=" << m << " row " << i;
            }
          }
        }
      }
    }
  }
}

TEST(QgemmKernels, FusedPathCoversDecodeFormatsOnly) {
  Rng rng(5);
  const auto w = random_vec(4 * 64, rng, 0.05f);
  for (int bits : {3, 4, 8, 16}) {
    for (QuantFormat format : kQuantFormats) {
      const QuantizedMatrix q = QuantizedMatrix::quantize(
          w, 4, 64, bits, Rounding::kDeterministic, rng, format);
      const bool decode_format =
          bits == 16 || (bits != 3 && format == QuantFormat::kPerChannel);
      EXPECT_EQ(qgemm_fused_applies(q, 1), decode_format)
          << bits << " " << quant_format_name(format);
      EXPECT_EQ(qgemm_fused_applies(q, kQgemmFusedMaxM), decode_format);
      EXPECT_FALSE(qgemm_fused_applies(q, kQgemmFusedMaxM + 1));
    }
  }
}

}  // namespace
}  // namespace llmpq
