// Serving bench program: one workload, one seed, one run.
//
//   perfbench --workload chat|batch --seed N --seconds S --trace 0|1
//             --raw OUT.json [--trace-out TRACE.json]
//
// Writes what it measured to OUT.json ("perfbench-raw/v1"); with --trace 1
// it also replays the workload traced and writes the spans to TRACE.json.
// perfbench/run.py builds this program, runs it and derives the metrics.
// Exit codes: 0 ran (correctness is reported in the raw document), 2 bad
// usage, 1 any other failure.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <thread>

#include "common/args.hpp"
#include "common/error.hpp"
#include "common/json_writer.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "quant/qgemm_kernels.hpp"
#include "runtime/transformer.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using namespace llmpq;

constexpr std::uint64_t kModelSeed = 20240302;
constexpr int kSetups = 5;
constexpr int kPlanReps = 6;

struct Served {
  std::unique_ptr<ModelWeights> weights;
  std::unique_ptr<PipelineEngine> engine;  ///< declared after what it uses
};

struct SetupTimes {
  std::vector<double> weights_s, engine_s, warmup_s;
  double kv_reserve_s = 0.0;
};

/// Runs `count` sessions of `context` tokens through the engine: each is
/// prefilled on its own (activations stay at serving size), then all take
/// a few decode rounds together and end.
void run_sessions(PipelineEngine& engine, int count, int context) {
  constexpr int kDecodeRounds = 8;
  Rng rng(5);
  std::vector<int> sids;
  for (int i = 0; i < count; ++i) {
    std::vector<TokenId> prompt(static_cast<std::size_t>(context - kDecodeRounds));
    for (TokenId& t : prompt)
      t = static_cast<TokenId>(rng.uniform_int(0, model_spec().vocab - 1));
    sids.push_back(engine.begin_session(std::move(prompt)));
    (void)engine.prefill({sids.back()});
  }
  for (int step = 0; step < kDecodeRounds; ++step) (void)engine.decode_step(sids);
  for (int sid : sids) engine.end_session(sid);
}

/// Builds the weights and the engine and warms the engine up with a short
/// pass over max_batch sessions, as a server would before taking traffic.
Served set_up(const WorkloadSpec& w, SetupTimes& times, SpanLog* log) {
  Served s;
  times.weights_s.push_back(1e-6 * timed_span(log, "setup.weights", [&] {
    s.weights = std::make_unique<ModelWeights>(
        build_random_model(model_spec(), layer_bits(), kModelSeed));
  }));
  times.engine_s.push_back(1e-6 * timed_span(log, "setup.engine", [&] {
    s.engine = std::make_unique<PipelineEngine>(
        *s.weights, stage_layers(), kPrefillMicroBatch, kDecodeMicroBatch);
  }));
  times.warmup_s.push_back(1e-6 * timed_span(log, "setup.warmup", [&] {
    run_sessions(*s.engine, serve_options(w).scheduler.max_batch, 40);
  }));
  return s;
}

/// Grows the engine's paged KV pools to what the workload can hold at once
/// (max_batch sequences of its longest context, or the scheduler's page
/// cap): the reservation the planner's memory model charges for the peak.
/// Done once, on the engine that serves, so the timed run allocates no
/// pages and its peak memory does not depend on how requests overlapped.
double reserve_kv(PipelineEngine& engine, const WorkloadSpec& w, SpanLog* log) {
  const SchedulerOptions opt = serve_options(w).scheduler;
  const int context =
      w.kv_pages > 0 ? w.kv_pages * opt.kv_page_size / opt.max_batch
                     : std::min(w.prompt_hi + w.gen_hi,
                                static_cast<int>(model_spec().max_pos));
  return 1e-6 * timed_span(log, "setup.kv_reserve",
                           [&] { run_sessions(engine, opt.max_batch, context); });
}

/// Unbatched-greedy reference tokens per request. Requests with equal
/// prompt lengths share one reference_generate call (rows are computed
/// independently, so batching equal-length prompts changes no token);
/// the calls run in parallel on the shared pool.
std::vector<std::vector<TokenId>> reference_outputs(
    const ModelWeights& mw, const std::vector<Request>& trace) {
  std::map<std::size_t, std::vector<std::size_t>> by_len;
  for (std::size_t i = 0; i < trace.size(); ++i)
    by_len[trace[i].prompt.size()].push_back(i);
  std::vector<std::vector<std::size_t>> groups;
  for (auto& [len, ids] : by_len) groups.push_back(std::move(ids));
  std::vector<std::vector<TokenId>> out(trace.size());
  ThreadPool::shared().parallel_for(groups.size(), [&](std::size_t g) {
    std::vector<std::vector<TokenId>> prompts;
    int gen = 1;
    for (std::size_t i : groups[g]) {
      prompts.push_back(trace[i].prompt);
      gen = std::max(gen, trace[i].gen);
    }
    const auto ref = reference_generate(mw, prompts, gen);
    for (std::size_t j = 0; j < groups[g].size(); ++j) {
      const std::size_t i = groups[g][j];
      out[i].assign(ref[j].begin(), ref[j].begin() + trace[i].gen);
    }
  });
  return out;
}

void write_doubles(JsonWriter& w, std::string_view key,
                   const std::vector<double>& v) {
  w.key(key);
  w.begin_array();
  for (double x : v) w.value(x);
  w.end_array();
}

void write_ints(JsonWriter& w, std::string_view key, const std::vector<int>& v) {
  w.key(key);
  w.begin_array();
  for (int x : v) w.value(x);
  w.end_array();
}

void write_serve(JsonWriter& w, const ServeRun& run,
                 const std::vector<std::vector<TokenId>>& ref) {
  w.begin_object();
  w.kv("submitted", run.submitted);
  w.kv("preemptions", run.preemptions);
  w.kv("kv_reserved_bytes", static_cast<std::uint64_t>(run.kv_reserved_bytes));
  const ModelSpec spec = model_spec();
  w.kv("kv_page_bytes", static_cast<std::uint64_t>(
                            2 * serve_options({}).scheduler.kv_page_size *
                            spec.hidden * sizeof(float) * spec.layers));
  w.kv("kv_page_size", serve_options({}).scheduler.kv_page_size);
  w.kv("peak_rss_kb", static_cast<std::int64_t>(run.peak_rss_kb));
  w.key("requests");
  w.begin_array();
  for (std::size_t i = 0; i < run.requests.size(); ++i) {
    const RequestRecord& r = run.requests[i];
    if (!r.reported) continue;
    const RequestStats& s = r.stats;
    w.begin_object();
    w.kv("id", s.id);
    w.kv("outcome", request_outcome_name(s.outcome));
    w.kv("match", i < run.generated.size() && run.generated[i] == ref[i]);
    w.kv("lateness_s", r.lateness_s);
    w.kv("arrival_s", s.arrival_s);
    w.kv("finish_s", s.finish_s);
    w.kv("queue_delay_s", s.queue_delay_s);
    w.kv("prefill_s", s.prefill_s);
    w.kv("resume_wait_s", s.resume_wait_s);
    w.kv("prompt_len", s.prompt_len);
    w.kv("gen_tokens", s.gen_tokens);
    w.end_object();
  }
  w.end_array();
  w.key("decisions");
  w.begin_array();
  for (const DispatchDecision& d : run.decisions) {
    w.begin_object();
    w.kv("phase", d.phase == ServePhase::kPrefillPass ? "prefill" : "decode");
    write_ints(w, "ids", d.request_ids);
    write_ints(w, "contexts", d.contexts);
    w.kv("joins", d.num_join);
    write_ints(w, "preempted", d.preempted);
    w.end_object();
  }
  w.end_array();
  w.key("stages");
  w.begin_array();
  for (const StageStats& st : run.stats_delta.stages) {
    w.begin_object();
    w.kv("busy_s", st.busy_s);
    w.kv("idle_s", st.idle_s);
    w.end_object();
  }
  w.end_array();
  for (const auto& [name, ph] :
       {std::pair{"prefill", run.stats_delta.prefill},
        std::pair{"decode", run.stats_delta.decode}}) {
    w.key(name);
    w.begin_object();
    w.kv("tokens", ph.tokens);
    w.kv("seconds", ph.seconds);
    w.end_object();
  }
  w.end_object();
}

int count_mismatches(const std::vector<std::vector<TokenId>>& got,
                     const std::vector<std::vector<TokenId>>& ref) {
  int bad = 0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    bad += i >= got.size() || got[i] != ref[i];
  return bad;
}

int run(const ArgParser& args) {
  for (const std::string& key : args.keys())
    check_arg(key == "workload" || key == "seed" || key == "seconds" ||
                  key == "trace" || key == "raw" || key == "trace-out",
              "unknown option --" + key);
  const std::string name = args.get_or("workload", "");
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  const int seconds = static_cast<int>(args.get_long("seconds", 10));
  const bool traced = args.get_long("trace", 0) != 0;
  const std::string raw_path = args.get_or("raw", "");
  const std::string trace_path = args.get_or("trace-out", "");
  check_arg(!raw_path.empty(), "--raw is required");
  check_arg(!traced || !trace_path.empty(), "--trace 1 needs --trace-out");
  set_log_level(LogLevel::kWarn);

  const WorkloadSpec spec = workload_spec(name, seconds);
  const std::vector<Request> trace =
      make_trace(spec, static_cast<int>(model_spec().vocab), seed);

  SpanLog log;
  SpanLog* span_log = traced ? &log : nullptr;
  SetupTimes setup;
  Served served;
  for (int i = 0; i < kSetups; ++i) {
    // Release the engine before the weights it points into (assignment
    // would replace the members in declaration order, weights first).
    served.engine.reset();
    served.weights.reset();
    served = set_up(spec, setup, span_log);
  }
  setup.kv_reserve_s = reserve_kv(*served.engine, spec, span_log);

  const ServeRun serve = serve_untraced(*served.engine, spec, trace);
  const std::vector<std::vector<TokenId>> ref =
      reference_outputs(*served.weights, trace);
  const PlanRun plan = plan_untraced(seed, kPlanReps);

  std::ofstream os(raw_path);
  check_arg(static_cast<bool>(os), "cannot write " + raw_path);
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "perfbench-raw/v1");
  w.kv("workload", name);
  w.kv("seed", seed);
  w.kv("seconds", seconds);
  w.key("stamp");
  w.begin_object();
  w.kv("nproc", std::thread::hardware_concurrency());
  w.kv("pool_threads", static_cast<std::uint64_t>(ThreadPool::shared().size()));
  w.kv("simd", simd_level_name(active_simd_level()));
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.kv("seed", seed);
  w.end_object();
  w.key("setup");
  w.begin_object();
  write_doubles(w, "weights_s", setup.weights_s);
  write_doubles(w, "engine_s", setup.engine_s);
  write_doubles(w, "warmup_s", setup.warmup_s);
  w.kv("kv_reserve_s", setup.kv_reserve_s);
  w.end_object();
  w.key("serve");
  write_serve(w, serve, ref);
  w.key("plan");
  w.begin_object();
  write_doubles(w, "plan_s", plan.plan_s);
  write_doubles(w, "plan_tok_s", plan.plan_tok_s);
  w.end_object();
  if (traced) {
    const ReplayRun replay =
        replay_traced(*served.engine, *served.weights, spec, trace, log);
    plan_traced(seed, log);
    check_arg(log.write(trace_path), "cannot write " + trace_path);
    w.key("traced");
    w.begin_object();
    w.kv("completed", replay.completed);
    w.kv("output_tokens", replay.output_tokens);
    w.kv("first_due_s", replay.first_due_s);
    w.kv("last_finish_s", replay.last_finish_s);
    w.kv("mismatches", count_mismatches(replay.generated, ref));
    w.end_object();
  }
  w.end_object();
  os << "\n";
  return os ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(llmpq::ArgParser(argc, argv));
  } catch (const llmpq::InvalidArgumentError& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
