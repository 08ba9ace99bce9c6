// Dequant-GEMM microkernel bench: times every available dispatch level
// (scalar / AVX2 / AVX-512) against the scalar reference across the
// bits x format matrix, on a serving-sized decode projection. The
// speedup_vs_scalar numbers are what CI gates (scripts/ci.sh stage_bench
// vs bench/baselines/ext_qgemm_kernels.json) and what calibrated the
// format_kernel_factor table in quant/scheme.cpp — re-run with --json and
// re-bake both when the kernels change.
//
// A second table times single-row decode (m = 1, plus m = 2..4) on a
// [4096 x 4096] projection whose weights exceed a core's L2 at every bit
// width, for 4-, 8- and 16-bit per-channel matrices, through the fused
// register kernel and the dequantize-to-scratch kernel. Its b16/b4 and
// b16/b8 time ratios are gated too: fewer bits must decode faster once
// the weights come from memory, the paper's central trade-off.
//
// A third table times the attention kernel at decode shape: one query row
// over 8 heads, dh in {32, 128}, span in {64, 512} cached positions. Its
// scalar/level time ratios are gated: a regression to scalar speed, or a
// vector edit that breaks vectorization, shows there.
//
// Kernels are driven directly (qgemm_rows_kernel, attention_head_kernel,
// single thread) so the measurement isolates SIMD gain from thread-pool
// scaling.
//
// Flags:
//   --json PATH   write a "llmpq-kernels/v1" artifact
//   --min_ms N    minimum measured wall time per cell (default 50)
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/json_writer.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "quant/format.hpp"
#include "quant/qgemm_kernels.hpp"
#include "quant/quantize.hpp"
#include "runtime/attention.hpp"

namespace {

using namespace llmpq;

std::vector<float> random_values(std::size_t n, std::uint64_t seed,
                                 float scale) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = scale * static_cast<float>(rng.normal());
  return v;
}

// One row of the decode table (per-channel format).
struct DecodeCell {
  int bits;
  SimdLevel dispatch;
  std::size_t m;
  bool fused;
  double ms_per_call;
  double gbps;  // weight bytes streamed per second
};

struct Ratio {
  std::string name;
  SimdLevel dispatch;
  double ratio;
};

// One row of the attention table.
struct AttnCell {
  SimdLevel dispatch;
  std::size_t dh;
  std::size_t span;
  double ms_per_call;  // all 8 heads of one query row
  double speedup_vs_scalar;
};

struct Cell {
  int bits;
  QuantFormat format;
  SimdLevel dispatch;
  double ms_per_call;
  double gflops;
  double speedup_vs_scalar;
};

// Wall time of one call of `fn`: warmed up, then timed over a repetition
// count grown until the batch is long enough to be timer-noise-free.
template <typename Fn>
double time_call_ms(Fn&& fn, double min_ms) {
  fn();
  int reps = 1;
  for (;;) {
    StopwatchNs sw;
    for (int i = 0; i < reps; ++i) fn();
    const double ms = static_cast<double>(sw.elapsed_ns()) / 1e6;
    if (ms >= min_ms || reps >= (1 << 20)) return ms / reps;
    reps = ms <= 0.0 ? reps * 8 : reps * 2;
  }
}

// Wall time of one full [m x k] * W^T[n x k] pass.
double time_ms(QgemmRowsFn fn, const std::vector<float>& x, std::size_t m,
               std::size_t k, const QuantizedMatrix& w, std::vector<float>& y,
               std::vector<float>& scratch, double min_ms) {
  return time_call_ms(
      [&] {
        fn(x.data(), m, k, w, nullptr, y.data(), 0, w.rows(), scratch.data());
      },
      min_ms);
}

// The decode table: every vector level, bits {4, 8, 16}, m 1..4, fused
// and unfused kernels; returns the b16/bN time ratios of the default
// (fused) m = 1 kernel.
std::vector<Ratio> bench_decode(const std::vector<SimdLevel>& levels,
                                double min_ms,
                                std::vector<DecodeCell>& cells) {
  const std::size_t k = 4096, n = 4096;
  std::vector<QuantizedMatrix> mats;
  {
    const auto w = random_values(n * k, 12, 0.05f);
    for (const int bits : {4, 8, 16}) {
      Rng rng(13);
      mats.push_back(QuantizedMatrix::quantize(
          w, n, k, bits, Rounding::kDeterministic, rng));
    }
  }
  const auto x = random_values(4 * k, 11, 1.0f);
  std::vector<float> y(4 * n), scratch(k);

  std::printf("\nsingle-row decode, x[m x %zu] * W^T[%zu x %zu], "
              "per-channel\n\n",
              k, n, k);
  std::printf("%5s %8s %2s %8s %10s %8s\n", "bits", "dispatch", "m", "path",
              "ms/call", "GB/s");
  std::vector<Ratio> ratios;
  for (const SimdLevel level : levels) {
    if (level == SimdLevel::kScalar) continue;
    for (std::size_t b = 0; b < mats.size(); ++b) {
      const QuantizedMatrix& qw = mats[b];
      for (std::size_t m = 1; m <= 4; ++m) {
        for (const bool fused : {true, false}) {
          const QgemmRowsFn fn = fused ? qgemm_rows_kernel(level)
                                       : qgemm_rows_unfused_kernel(level);
          const double ms = time_ms(fn, x, m, k, qw, y, scratch, min_ms);
          DecodeCell c;
          c.bits = qw.bits();
          c.dispatch = level;
          c.m = m;
          c.fused = fused;
          c.ms_per_call = ms;
          c.gbps = static_cast<double>(qw.packed_bytes()) / (ms * 1e6);
          cells.push_back(c);
          std::printf("%5d %8s %2zu %8s %10.3f %8.2f\n", c.bits,
                      simd_level_name(level), m,
                      fused ? "fused" : "unfused", ms, c.gbps);
        }
      }
    }
    // The gated ratios: m = 1 through the default kernel, the three widths
    // timed in turn over several rounds and each taken at its median, so
    // a burst of host noise lands on one round of every width instead of
    // on one width.
    std::vector<double> rounds[3];
    for (int round = 0; round < 5; ++round)
      for (std::size_t b = 0; b < mats.size(); ++b)
        rounds[b].push_back(time_ms(qgemm_rows_kernel(level), x, 1, k,
                                    mats[b], y, scratch, min_ms));
    double m1_ms[3];
    for (std::size_t b = 0; b < mats.size(); ++b)
      m1_ms[b] = percentile(rounds[b], 50.0);
    ratios.push_back({"b16/b4", level, m1_ms[2] / m1_ms[0]});
    ratios.push_back({"b16/b8", level, m1_ms[2] / m1_ms[1]});
    std::printf("  %s m=1: b16/b4 %.2fx  b16/b8 %.2fx\n",
                simd_level_name(level), m1_ms[2] / m1_ms[0],
                m1_ms[2] / m1_ms[1]);
  }
  return ratios;
}

// The attention table: every level with its own kernel, one decode row
// over 8 heads; returns the gated scalar/level time ratios.
std::vector<Ratio> bench_attention(const std::vector<SimdLevel>& levels,
                                   double min_ms,
                                   std::vector<AttnCell>& cells) {
  const std::size_t heads = 8, max_span = 512;
  std::printf("\nattention, one query row x %zu heads\n\n", heads);
  std::printf("%4s %5s %8s %10s %9s\n", "dh", "span", "dispatch", "ms/call",
              "vs scalar");
  std::vector<Ratio> ratios;
  for (const std::size_t dh : {std::size_t{32}, std::size_t{128}}) {
    const std::size_t h = heads * dh;
    const auto k = random_values(max_span * h, 21, 1.0f);
    const auto v = random_values(max_span * h, 22, 1.0f);
    const auto q = random_values(h, 23, 1.0f);
    std::vector<const float*> k_rows(max_span), v_rows(max_span);
    for (std::size_t p = 0; p < max_span; ++p) {
      k_rows[p] = k.data() + p * h;
      v_rows[p] = v.data() + p * h;
    }
    std::vector<float> out(h), scores(max_span);
    for (const std::size_t span : {std::size_t{64}, max_span}) {
      double scalar_ms = 0.0;
      AttentionHeadFn prev = nullptr;
      for (const SimdLevel level : levels) {
        // A level that runs the previous level's kernel (AVX-512 runs the
        // AVX2 one) has nothing of its own to time.
        const AttentionHeadFn fn = attention_head_kernel(level);
        if (fn == prev) continue;
        prev = fn;
        const double ms = time_call_ms(
            [&] {
              for (std::size_t head = 0; head < heads; ++head)
                fn(q.data() + head * dh, k_rows.data(), v_rows.data(),
                   head * dh, span, dh, scores.data(), out.data() + head * dh);
            },
            min_ms);
        if (level == SimdLevel::kScalar) scalar_ms = ms;
        cells.push_back({level, dh, span, ms, scalar_ms / ms});
        std::printf("%4zu %5zu %8s %10.4f %8.2fx\n", dh, span,
                    simd_level_name(level), ms, scalar_ms / ms);
        if (level != SimdLevel::kScalar)
          ratios.push_back({"attn dh=" + std::to_string(dh) + " span=" +
                                std::to_string(span) + " scalar/level",
                            level, scalar_ms / ms});
      }
    }
  }
  return ratios;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const double min_ms = std::stod(args.get_or("min_ms", "50"));

  // OPT-350m-scale decode projection: micro-batch 4, [3h x h] at h = 768.
  const std::size_t m = 4, k = 768, n = 3 * 768;
  const auto x = random_values(m * k, 1, 1.0f);
  const auto w = random_values(n * k, 2, 0.05f);
  std::vector<float> y(m * n), scratch(k);
  const double flop = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                      static_cast<double>(k);

  std::vector<SimdLevel> levels;
  for (SimdLevel l :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512})
    if (simd_level_available(l)) levels.push_back(l);

  std::printf("dequant-GEMM kernels, [%zu x %zu] * W^T[%zu x %zu], "
              "detected %s\n\n",
              m, k, n, k, simd_level_name(detected_simd_level()));
  std::printf("%5s %12s %8s %10s %9s %9s\n", "bits", "format", "dispatch",
              "ms/call", "GFLOP/s", "vs scalar");

  std::vector<Cell> cells;
  for (const QuantFormat format : kQuantFormats) {
    for (const int bits : {3, 4, 8}) {
      Rng rng(3);
      const QuantizedMatrix qw = QuantizedMatrix::quantize(
          w, n, k, bits, Rounding::kDeterministic, rng, format);
      double scalar_ms = 0.0;
      for (const SimdLevel level : levels) {
        const double ms = time_ms(qgemm_rows_kernel(level), x, m, k, qw, y,
                                  scratch, min_ms);
        if (level == SimdLevel::kScalar) scalar_ms = ms;
        Cell c;
        c.bits = bits;
        c.format = format;
        c.dispatch = level;
        c.ms_per_call = ms;
        c.gflops = flop / (ms * 1e6);
        c.speedup_vs_scalar = scalar_ms / ms;
        cells.push_back(c);
        std::printf("%5d %12s %8s %10.3f %9.2f %8.2fx\n", bits,
                    quant_format_name(format), simd_level_name(level), ms,
                    c.gflops, c.speedup_vs_scalar);
      }
    }
  }

  std::vector<DecodeCell> decode_cells;
  std::vector<Ratio> ratios = bench_decode(levels, min_ms, decode_cells);
  std::vector<AttnCell> attn_cells;
  for (Ratio& r : bench_attention(levels, min_ms, attn_cells))
    ratios.push_back(std::move(r));

  if (const auto json_path = args.get("json")) {
    std::ofstream os(*json_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", json_path->c_str());
      return 1;
    }
    JsonWriter jw(os, 1);
    jw.begin_object();
    jw.kv("schema", "llmpq-kernels/v1");
    jw.kv("bench", "ext_qgemm_kernels");
    jw.kv("m", static_cast<std::int64_t>(m));
    jw.kv("n", static_cast<std::int64_t>(n));
    jw.kv("k", static_cast<std::int64_t>(k));
    jw.key("rows");
    jw.begin_array();
    for (const Cell& c : cells) {
      jw.begin_object();
      jw.kv("bits", c.bits);
      jw.kv("format", quant_format_name(c.format));
      jw.kv("dispatch", simd_level_name(c.dispatch));
      jw.kv("ms_per_call", c.ms_per_call);
      jw.kv("gflops", c.gflops);
      jw.kv("speedup_vs_scalar", c.speedup_vs_scalar);
      jw.end_object();
    }
    jw.end_array();
    jw.key("decode_rows");
    jw.begin_array();
    for (const DecodeCell& c : decode_cells) {
      jw.begin_object();
      jw.kv("bits", c.bits);
      jw.kv("dispatch", simd_level_name(c.dispatch));
      jw.kv("m", static_cast<std::int64_t>(c.m));
      jw.kv("path", c.fused ? "fused" : "unfused");
      jw.kv("ms_per_call", c.ms_per_call);
      jw.kv("gbps", c.gbps);
      jw.end_object();
    }
    jw.end_array();
    jw.key("attention_rows");
    jw.begin_array();
    for (const AttnCell& c : attn_cells) {
      jw.begin_object();
      jw.kv("dispatch", simd_level_name(c.dispatch));
      jw.kv("dh", static_cast<std::int64_t>(c.dh));
      jw.kv("span", static_cast<std::int64_t>(c.span));
      jw.kv("ms_per_call", c.ms_per_call);
      jw.kv("speedup_vs_scalar", c.speedup_vs_scalar);
      jw.end_object();
    }
    jw.end_array();
    jw.key("ratios");
    jw.begin_array();
    for (const Ratio& r : ratios) {
      jw.begin_object();
      jw.kv("name", r.name);
      jw.kv("dispatch", simd_level_name(r.dispatch));
      jw.kv("ratio", r.ratio);
      jw.end_object();
    }
    jw.end_array();
    jw.end_object();
    os << "\n";
    std::printf("\nwrote %s\n", json_path->c_str());
  }
  return 0;
}
