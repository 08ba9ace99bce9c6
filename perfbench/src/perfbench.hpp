#pragma once

// Shared declarations of the serving bench program. The program builds
// the model and engine through the library's public API, runs one workload
// untraced (the end-to-end numbers), optionally replays it traced (the
// per-layer numbers), times the planner, and writes everything it measured
// as one raw JSON document. perfbench/derive.py turns that document into
// metrics; nothing here aggregates beyond what a single call measured.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "runtime/engine.hpp"
#include "runtime/weights.hpp"
#include "serve/online_engine.hpp"

namespace perfbench {

using llmpq::TokenId;

/// One request of a workload trace. `due_s` is when the generator must
/// submit it, relative to the start of the timed run.
struct Request {
  double due_s = 0.0;
  std::vector<TokenId> prompt;
  int gen = 0;
};

struct WorkloadSpec {
  std::string name;
  bool open_loop = true;  ///< false: closed burst, every request due at 0
  /// Requests per second of run time: the open-loop arrival rate, or the
  /// closed burst's size per second it should take to serve.
  double rate = 0.0;
  int requests = 0;  ///< rate x seconds
  int prompt_lo = 0, prompt_hi = 0;
  int gen_lo = 0, gen_hi = 0;
  int kv_pages = 0;  ///< scheduler KV ledger cap (0 = unbounded)
};

/// The named workload; throws InvalidArgumentError for an unknown name.
/// `seconds` sets the request count (rate x seconds).
WorkloadSpec workload_spec(const std::string& name, int seconds);

/// Seeded request trace. Open-loop arrivals are paced: request i is due at
/// a jittered point of its own 1/rate slot. Prompt and output lengths are
/// stratified uniform draws within each block of ten requests. Every seed
/// thus offers the same mix of work at the same pace, in a different
/// arrangement, which keeps tail percentiles comparable across seeds.
std::vector<Request> make_trace(const WorkloadSpec& w, int vocab,
                                std::uint64_t seed);

/// The served model and the pipeline/serving configuration every workload
/// shares.
llmpq::ModelSpec model_spec();
std::vector<int> layer_bits();
std::vector<std::pair<int, int>> stage_layers();
constexpr int kPrefillMicroBatch = 2;
constexpr int kDecodeMicroBatch = 4;
llmpq::OnlineEngineOptions serve_options(const WorkloadSpec& w);

/// In-memory span log exported as Chrome trace-event JSON. Spans carry
/// numeric args; an arg whose name ends in `_us` is the time of a child
/// measurement inside the span, which fold_trace.py subtracts to get the
/// span's self time.
class SpanLog {
 public:
  using Args = std::vector<std::pair<std::string, double>>;

  /// Microseconds since the log was created.
  double now_us() const { return clock_.elapsed_s() * 1e6; }
  void add(std::string name, double ts_us, double dur_us, Args args = {});
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double ts_us = 0.0;
    double dur_us = 0.0;
    Args args;
  };
  llmpq::StopwatchNs clock_;
  std::vector<Span> spans_;
};

/// Wall time of `fn()` in microseconds, recorded as span `name`.
template <typename Fn>
double timed_span(SpanLog* log, const char* name, Fn&& fn,
                  SpanLog::Args args = {}) {
  llmpq::StopwatchNs sw;
  const double ts = log != nullptr ? log->now_us() : 0.0;
  fn();
  const double dur = sw.elapsed_s() * 1e6;
  if (log != nullptr) log->add(name, ts, dur, std::move(args));
  return dur;
}

/// What the serving run measured, before any derivation.
struct RequestRecord {
  bool reported = false;    ///< the serving report finished this request
  double lateness_s = 0.0;  ///< generator: submit time - due time
  llmpq::RequestStats stats;
};

struct ServeRun {
  std::vector<RequestRecord> requests;  ///< by request id
  std::vector<llmpq::DispatchDecision> decisions;
  std::vector<std::vector<TokenId>> generated;  ///< by request id
  int submitted = 0;
  int preemptions = 0;
  llmpq::EngineStats stats_delta;
  std::size_t kv_reserved_bytes = 0;
  long peak_rss_kb = 0;
};

/// Untraced run: open-loop workloads go through the live OnlineEngine
/// with one generator thread calling submit() on schedule; the closed
/// burst replays through serve_trace so its decision log is a function of
/// the seed alone.
ServeRun serve_untraced(llmpq::PipelineEngine& engine, const WorkloadSpec& w,
                        const std::vector<Request>& trace);

/// Traced replay of `trace` through ServeScheduler and the session API on
/// a virtual clock, with kernel probes at the passes it samples.
struct ReplayRun {
  std::vector<std::vector<TokenId>> generated;  ///< by request id
  int completed = 0;
  std::int64_t output_tokens = 0;
  double first_due_s = 0.0;
  double last_finish_s = 0.0;
};
ReplayRun replay_traced(llmpq::PipelineEngine& engine,
                        const llmpq::ModelWeights& weights,
                        const WorkloadSpec& w,
                        const std::vector<Request>& trace, SpanLog& log);

/// Planner timing over paper clusters 1..11 with seeded workloads.
struct PlanRun {
  std::vector<double> plan_s;      ///< one entry per repetition
  std::vector<double> plan_tok_s;  ///< chosen plan's estimate, per cluster
};
PlanRun plan_untraced(std::uint64_t seed, int reps);
void plan_traced(std::uint64_t seed, SpanLog& log);

}  // namespace perfbench
