// Runtime engine micro-bench: drives the persistent pipeline engine with
// repeated generate() calls (the serving pattern: one long-lived engine,
// many requests) and prints the per-stage metrics the engine now exposes —
// busy/idle split, qgemm/attention breakdown, inbox high-water marks and
// per-phase tokens/s. Also times the threaded qgemm kernel against the
// single-threaded seed kernel on a serving-sized layer so the speedup on a
// multi-core host is visible in isolation, and one ThreadPool::parallel_for
// round trip of decode size (16 blocks, ~20 us of work in total) — the
// fork/join a threaded decode projection pays on top of its kernel work.
//
// Flags:
//   --json PATH    write the measurements as "llmpq-metrics/v1" JSON
//   --trace PATH   record the engine's stage/qgemm/attention spans as
//                  Chrome trace JSON (chrome://tracing / ui.perfetto.dev)
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/args.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "quant/qgemm.hpp"
#include "runtime/engine.hpp"

namespace {

using namespace llmpq;

std::vector<float> random_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = 0.05f * static_cast<float>(rng.normal());
  return v;
}

void bench_qgemm_kernel(MetricsRegistry& metrics) {
  // One OPT-350m-scale projection: [3h x h] at h = 1024, decode batch 8.
  const std::size_t m = 8, k = 1024, n = 3 * 1024;
  const auto x = random_values(m * k, 1);
  const auto w = random_values(n * k, 2);
  std::vector<float> y(m * n);
  std::printf("qgemm kernel, [%zu x %zu] * W^T[%zu x %zu], pool size %zu\n",
              m, k, n, k, ThreadPool::shared().size());
  for (const int bits : {3, 4, 8, 16}) {
    Rng rng(3);
    const QuantizedMatrix qw =
        QuantizedMatrix::quantize(w, n, k, bits, Rounding::kDeterministic, rng);
    const int reps = 20;
    StopwatchNs serial;
    for (int i = 0; i < reps; ++i) qgemm_serial(x, m, k, qw, {}, y);
    const double serial_ms =
        static_cast<double>(serial.elapsed_ns()) / 1e6 / reps;
    StopwatchNs threaded;
    for (int i = 0; i < reps; ++i) qgemm(x, m, k, qw, {}, y);
    const double threaded_ms =
        static_cast<double>(threaded.elapsed_ns()) / 1e6 / reps;
    std::printf("  %2d-bit: serial %7.2f ms  threaded %7.2f ms  (%.2fx)\n",
                bits, serial_ms, threaded_ms, serial_ms / threaded_ms);
    const std::string prefix = "qgemm." + std::to_string(bits) + "bit.";
    metrics.set_value(prefix + "serial_ms", serial_ms);
    metrics.set_value(prefix + "threaded_ms", threaded_ms);
  }
}

// A dependent multiply-add chain the compiler cannot shorten: `iters`
// steps of busy work for one parallel_for block.
std::uint64_t busy_work(std::uint64_t iters, std::uint64_t v) {
  for (std::uint64_t i = 0; i < iters; ++i)
    v = v * 6364136223846793005ULL + 1442695040888963407ULL;
  return v;
}

void bench_parallel_for(MetricsRegistry& metrics) {
  constexpr std::size_t kBlocks = 16;
  constexpr double kWorkUs = 20.0;
  std::atomic<std::uint64_t> sink{0};
  // Calibrate the per-block step count so the 16 blocks take ~20 us run
  // back to back on one thread.
  std::uint64_t iters = 1000;
  double serial_us = 0.0;
  for (int round = 0; round < 3; ++round) {
    std::vector<double> samples;
    for (int rep = 0; rep < 200; ++rep) {
      StopwatchNs sw;
      for (std::size_t b = 0; b < kBlocks; ++b)
        sink.fetch_add(busy_work(iters, b), std::memory_order_relaxed);
      samples.push_back(static_cast<double>(sw.elapsed_ns()) / 1e3);
    }
    serial_us = percentile(samples, 50.0);
    iters = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(iters) * kWorkUs /
                                      std::max(serial_us, 1e-3)));
  }
  ThreadPool& pool = ThreadPool::shared();
  // p50 / p90 of 2000 back-to-back calls with `block_iters` steps a block.
  const auto round_trip = [&](std::uint64_t block_iters) {
    std::vector<double> samples;
    for (int rep = 0; rep < 2000; ++rep) {
      StopwatchNs sw;
      pool.parallel_for(kBlocks, [&](std::size_t b) {
        sink.fetch_add(busy_work(block_iters, b), std::memory_order_relaxed);
      });
      samples.push_back(static_cast<double>(sw.elapsed_ns()) / 1e3);
    }
    return std::make_pair(percentile(samples, 50.0), percentile(samples, 90.0));
  };
  const auto [p50, p90] = round_trip(iters);
  // Empty blocks: the fixed fork/join cost that qgemm's
  // kParallelWorkThreshold is derived from.
  const auto [empty_p50, empty_p90] = round_trip(0);
  std::printf("\nparallel_for round trip, %zu blocks, pool size %zu:\n"
              "  %.1f us of work serially: p50 %.1f us  p90 %.1f us\n"
              "  empty blocks:            p50 %.1f us  p90 %.1f us\n",
              kBlocks, pool.size(), serial_us, p50, p90, empty_p50,
              empty_p90);
  metrics.set_value("pool.parallel_for_work_us", serial_us);
  metrics.set_value("pool.parallel_for_us_p50", p50);
  metrics.set_value("pool.parallel_for_us_p90", p90);
  metrics.set_value("pool.parallel_for_empty_us_p50", empty_p50);
}

void bench_engine(MetricsRegistry& metrics) {
  ModelSpec spec;
  spec.name = "bench-engine";
  spec.family = "opt";
  spec.hidden = 128;
  spec.ffn = 512;
  spec.heads = 8;
  spec.layers = 8;
  spec.vocab = 256;
  spec.max_pos = 128;
  std::vector<int> bits = {8, 8, 4, 4, 16, 16, 8, 8};
  const ModelWeights mw = build_random_model(spec, bits, 42);

  Rng rng(7);
  std::vector<std::vector<TokenId>> prompts(8);
  for (auto& p : prompts)
    for (int t = 0; t < 16; ++t)
      p.push_back(static_cast<TokenId>(rng.uniform_int(0, spec.vocab - 1)));

  PipelineEngine engine(mw, {{0, 3}, {3, 6}, {6, 8}}, /*prefill_mb=*/2,
                        /*decode_mb=*/4);
  const int requests = 4, gen_tokens = 32;
  StopwatchNs total;
  for (int r = 0; r < requests; ++r)
    (void)engine.generate(prompts, gen_tokens);
  const double total_s = static_cast<double>(total.elapsed_ns()) / 1e9;
  const double tok =
      static_cast<double>(requests) * static_cast<double>(prompts.size()) *
      gen_tokens;
  std::printf(
      "\npersistent engine: %d generate() calls, %zu prompts x %d tokens "
      "each -> %.1f generated tok/s end to end\n\n",
      requests, prompts.size(), gen_tokens, tok / total_s);
  std::printf("%s", format_engine_stats(engine.stats()).c_str());
  metrics.set_value("engine.generated_tok_per_s", tok / total_s);
  metrics.set_engine("pipeline", engine.stats());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace llmpq;
  const ArgParser args(argc, argv);
  for (const std::string& key : args.keys()) {
    if (key != "json" && key != "trace") {
      std::fprintf(stderr, "unknown option --%s (known: --json, --trace)\n",
                   key.c_str());
      return 2;
    }
  }
  const auto trace_path = args.get("trace");
  if (trace_path) TraceSession::instance().start();

  MetricsRegistry metrics;
  bench_qgemm_kernel(metrics);
  bench_parallel_for(metrics);
  bench_engine(metrics);

  int rc = 0;
  if (const auto json_path = args.get("json")) {
    if (metrics.write_json_file(*json_path))
      std::printf("\nwrote %s\n", json_path->c_str());
    else
      rc = 1;
  }
  if (trace_path) {
    TraceSession::instance().stop();
    if (TraceSession::instance().write_chrome_trace_file(*trace_path))
      std::printf("wrote %s\n", trace_path->c_str());
    else
      rc = 1;
  }
  return rc;
}
