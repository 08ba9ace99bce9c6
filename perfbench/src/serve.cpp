#include <sys/resource.h>

#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "perfbench.hpp"

namespace perfbench {

using namespace llmpq;

namespace {

EngineStats stats_delta(const EngineStats& a, const EngineStats& b) {
  EngineStats d = b;
  for (std::size_t p = 0; p < d.stages.size() && p < a.stages.size(); ++p) {
    d.stages[p].busy_s -= a.stages[p].busy_s;
    d.stages[p].idle_s -= a.stages[p].idle_s;
    d.stages[p].qgemm_s -= a.stages[p].qgemm_s;
    d.stages[p].attn_s -= a.stages[p].attn_s;
    d.stages[p].microbatches -= a.stages[p].microbatches;
  }
  d.prefill.tokens -= a.prefill.tokens;
  d.prefill.seconds -= a.prefill.seconds;
  d.decode.tokens -= a.decode.tokens;
  d.decode.seconds -= a.decode.seconds;
  d.generate_calls -= a.generate_calls;
  return d;
}

}  // namespace

ServeRun serve_untraced(PipelineEngine& engine, const WorkloadSpec& w,
                        const std::vector<Request>& trace) {
  using Clock = std::chrono::steady_clock;
  const OnlineEngineOptions opts = serve_options(w);
  std::vector<double> lateness(trace.size(), 0.0);
  const EngineStats before = engine.stats();
  OnlineReport rep;
  if (w.open_loop) {
    OnlineEngine online(engine, opts);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(trace[i].due_s));
      std::this_thread::sleep_until(due);
      lateness[i] = std::chrono::duration<double>(Clock::now() - due).count();
      const int id = online.submit(trace[i].prompt, trace[i].gen);
      check_arg(id == static_cast<int>(i), "perfbench: submit id mismatch");
    }
    online.close();
    rep = online.wait();
  } else {
    std::vector<OnlineTraceRequest> replay(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      replay[i].arrival_s = trace[i].due_s;
      replay[i].prompt = trace[i].prompt;
      replay[i].gen_tokens = trace[i].gen;
    }
    rep = serve_trace(engine, replay, opts);
  }
  ServeRun run;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  run.peak_rss_kb = ru.ru_maxrss;
  run.stats_delta = stats_delta(before, engine.stats());
  run.kv_reserved_bytes = engine.kv_footprint_bytes();
  run.submitted = static_cast<int>(trace.size());
  run.preemptions = rep.preemptions;
  run.requests.resize(trace.size());
  for (const RequestStats& rs : rep.requests) {
    RequestRecord& r = run.requests.at(static_cast<std::size_t>(rs.id));
    r.reported = true;
    r.lateness_s = lateness[static_cast<std::size_t>(rs.id)];
    r.stats = rs;
  }
  run.decisions = std::move(rep.decisions);
  run.generated = std::move(rep.generated);
  return run;
}

}  // namespace perfbench
