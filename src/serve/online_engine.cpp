#include "serve/online_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <limits>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/trace.hpp"
#include "serve/serve_driver.hpp"

namespace llmpq {

namespace {

/// Engine input for one scheduler decision, snapshotted from the request
/// tables: each row's context and how many output tokens it contributes to
/// its request. Built while the request tables are stable — the live
/// engine holds its lock, so concurrent submit() calls cannot touch the
/// deques mid-read.
struct DecisionInputs {
  std::vector<std::vector<TokenId>> rows;  ///< row-aligned with the decision
  std::vector<std::size_t> take;  ///< per-row output tokens to keep
};

/// Serving-layer per-stage fault sites ("serve.stage.<p>"): evaluated
/// exactly once per dispatch per engine stage, mirroring the check the
/// online simulator runs per decision per plan stage — one fault plan
/// drives the same straggler signal through both control loops. The
/// runtime sleeps for real here and reports the injected delay so the
/// health monitor can attribute it to the stage; throw/alloc rules fail
/// the dispatch like any other serving fault.
std::vector<double> check_serve_stage_sites(int num_stages) {
  std::vector<double> delays(static_cast<std::size_t>(num_stages), 0.0);
  if (!FaultInjector::armed()) return delays;
  for (int p = 0; p < num_stages; ++p) {
    const std::string site = "serve.stage." + std::to_string(p);
    const FaultAction action = FaultInjector::check(site.c_str());
    switch (action.kind) {
      case FaultKind::kNone:
      case FaultKind::kDrop:
        break;
      case FaultKind::kDelay:
      case FaultKind::kSlow:
        std::this_thread::sleep_for(
            std::chrono::duration<double>(action.delay_s));
        delays[static_cast<std::size_t>(p)] += action.delay_s;
        break;
      case FaultKind::kThrow:
        throw InjectedFault(site, action.rule ? action.rule->message : "");
      case FaultKind::kAllocFail:
        throw std::bad_alloc();
    }
  }
  return delays;
}

/// Maps request ids to persistent engine sessions for the iteration-level
/// session path. Prefill decisions begin sessions; every decode round
/// advances them by one token with the KV cache intact. Retries are
/// idempotent: the decision's per-request `contexts` say exactly how far
/// each session should be, so a row whose session already advanced past a
/// half-failed round reuses its sampled token instead of advancing twice,
/// and a row whose session is gone (a restart or a migration dropped it)
/// is rebuilt from its full context — prefilling that context yields
/// exactly the round's greedy token.
class SessionExecutor {
 public:
  /// Per-class engine routing (OnlineEngineOptions::class_engine): rows
  /// whose decision class is > 0 execute on the router's variant; class 0
  /// (and a nullptr from the router) stays on the base engine. Variants
  /// must be address-stable for the executor's lifetime.
  explicit SessionExecutor(std::function<PipelineEngine*(int)> router)
      : router_(std::move(router)) {}
  ~SessionExecutor() { release_all(); }
  SessionExecutor(const SessionExecutor&) = delete;
  SessionExecutor& operator=(const SessionExecutor&) = delete;

  /// Points the executor at (a possibly new) base engine. A swap releases
  /// every session — KV held on the previous base is useless to the
  /// replacement, and class-variant sessions are dropped with it so every
  /// request resumes from its authoritative context on the next decision.
  void bind(PipelineEngine* engine) {
    if (engine_ == engine) return;
    release_all();
    engine_ = engine;
  }

  /// Ends sessions of requests that reached a terminal outcome since the
  /// last call (completed, timed out, failed), returning their KV pages.
  /// `finished` is the scheduler's append-only completion log.
  void reconcile(const std::vector<RequestStats>& finished) {
    for (; finished_seen_ < finished.size(); ++finished_seen_) {
      auto it = sessions_.find(finished[finished_seen_].id);
      if (it == sessions_.end()) continue;
      if (it->second.eng->has_session(it->second.sid))
        it->second.eng->end_session(it->second.sid);
      sessions_.erase(it);
    }
  }

  void release_all() {
    for (const auto& [rid, s] : sessions_)
      if (s.eng->has_session(s.sid)) s.eng->end_session(s.sid);
    sessions_.clear();
  }

  /// Executes one decision, returning one token per row. Per engine at
  /// most two ragged calls: one prefill over rows that need their context
  /// materialized, one decode_step over rows advancing by a token (one
  /// engine total unless class routing is armed).
  std::vector<TokenId> run(const DispatchDecision& d,
                           const DecisionInputs& in,
                           const GenerateOptions& gopts) {
    // Capacity-planner evictions first: release the victims' KV pages
    // (their tokens stay on the session, so resumption is a re-prefill of
    // the full history). Idempotent across retries — a session already
    // preempted has nothing committed and preempt_session is a no-op; a
    // victim whose release never executed (the fault landed first) simply
    // decode-steps on resume, which is equally exact.
    for (int rid : d.preempted) {
      auto it = sessions_.find(rid);
      if (it != sessions_.end() && it->second.eng->has_session(it->second.sid))
        it->second.eng->preempt_session(it->second.sid);
    }
    const std::size_t n = d.request_ids.size();
    std::vector<TokenId> out(n, 0);
    // Rows group by (engine, call kind); groups keep first-seen order so
    // the call sequence is deterministic.
    struct Group {
      PipelineEngine* eng;
      std::vector<int> sids;
      std::vector<std::size_t> rows;
    };
    std::vector<Group> prefills, steps;
    const auto enlist = [](std::vector<Group>& groups, PipelineEngine* eng,
                           int sid, std::size_t row) {
      for (Group& g : groups) {
        if (g.eng != eng) continue;
        g.sids.push_back(sid);
        g.rows.push_back(row);
        return;
      }
      groups.push_back(Group{eng, {sid}, {row}});
    };
    for (std::size_t i = 0; i < n; ++i) {
      const int rid = d.request_ids[i];
      const auto ctx = static_cast<std::size_t>(d.contexts[i]);
      PipelineEngine* eng =
          engine_for(i < d.classes.size() ? d.classes[i] : 0);
      auto it = sessions_.find(rid);
      if (it != sessions_.end() &&
          (!it->second.eng->has_session(it->second.sid) ||
           it->second.eng != eng)) {
        // Lost to a restart, or the row's class routes elsewhere now (a
        // migration rebound the base): drop and rebuild below.
        if (it->second.eng->has_session(it->second.sid))
          it->second.eng->end_session(it->second.sid);
        sessions_.erase(it);
        it = sessions_.end();
      }
      if (it == sessions_.end()) {
        const int sid = eng->begin_session(in.rows[i]);
        sessions_.emplace(rid, Sess{eng, sid});
        enlist(prefills, eng, sid, i);
        continue;
      }
      const int sid = it->second.sid;
      const std::size_t len = eng->session_length(sid);
      if (len == ctx + 1) {
        // This round already advanced the session (a later group of the
        // same decision failed, and the scheduler is retrying the round):
        // its token was sampled last time — reuse it.
        out[i] = eng->session_back(sid);
      } else if (len == ctx && eng->session_committed(sid) == 0) {
        enlist(prefills, eng, sid, i);  // begun, never prefilled (retry)
      } else if (len == ctx) {
        enlist(steps, eng, sid, i);
      } else {
        // Inconsistent with the scheduler's view (should not happen):
        // rebuild from the authoritative request tables.
        eng->end_session(sid);
        const int fresh = eng->begin_session(in.rows[i]);
        sessions_[rid] = Sess{eng, fresh};
        enlist(prefills, eng, fresh, i);
      }
    }
    for (const Group& g : prefills) {
      const std::vector<TokenId> toks = g.eng->prefill(g.sids, gopts);
      for (std::size_t j = 0; j < toks.size(); ++j) out[g.rows[j]] = toks[j];
    }
    for (const Group& g : steps) {
      const std::vector<TokenId> toks = g.eng->decode_step(g.sids, gopts);
      for (std::size_t j = 0; j < toks.size(); ++j) out[g.rows[j]] = toks[j];
    }
    return out;
  }

 private:
  struct Sess {
    PipelineEngine* eng;  ///< engine holding the session's KV
    int sid;
  };

  PipelineEngine* engine_for(int cls) const {
    if (cls > 0 && router_)
      if (PipelineEngine* e = router_(cls)) return e;
    return engine_;
  }

  PipelineEngine* engine_ = nullptr;
  std::function<PipelineEngine*(int)> router_;
  std::unordered_map<int, Sess> sessions_;  ///< request id -> session
  std::size_t finished_seen_ = 0;           ///< reconcile() cursor
};

/// Static batching over ephemeral sessions: one ragged prefill for the
/// whole batch, then one decode round per outstanding token with only the
/// rows that still owe output participating. Each row gets its own exact
/// (unpadded) continuation and stops at its own generation length — no
/// padded-shape decode work at all.
std::vector<std::vector<TokenId>> run_static_session(
    PipelineEngine& engine, const DecisionInputs& in,
    const GenerateOptions& gopts) {
  const std::size_t n = in.rows.size();
  std::vector<std::vector<TokenId>> out(n);
  std::vector<int> sids;
  sids.reserve(n);
  try {
    for (const auto& r : in.rows) sids.push_back(engine.begin_session(r));
    std::size_t max_take = 0;
    for (std::size_t t : in.take) max_take = std::max(max_take, t);
    if (max_take > 0) {
      const std::vector<TokenId> first = engine.prefill(sids, gopts);
      for (std::size_t i = 0; i < n; ++i) out[i].push_back(first[i]);
      for (std::size_t round = 2; round <= max_take; ++round) {
        std::vector<int> live;
        std::vector<std::size_t> live_rows;
        for (std::size_t i = 0; i < n; ++i) {
          if (in.take[i] < round) continue;
          live.push_back(sids[i]);
          live_rows.push_back(i);
        }
        const std::vector<TokenId> toks = engine.decode_step(live, gopts);
        for (std::size_t j = 0; j < toks.size(); ++j)
          out[live_rows[j]].push_back(toks[j]);
      }
    }
  } catch (...) {
    // The dispatch failed as a unit (the scheduler will retry it whole);
    // the sessions are this call's own, so tear them down — on a broken
    // engine end_session defers the page frees to restart().
    for (int sid : sids)
      if (engine.has_session(sid)) engine.end_session(sid);
    throw;
  }
  for (int sid : sids) engine.end_session(sid);
  return out;
}

std::string describe_exception(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

/// The real-engine executor shared by the live loop and trace replay:
/// prepare() snapshots the request tables under the lock, execute() runs
/// the SessionExecutor (iteration-level) or ephemeral static sessions with
/// the lock released, recover() restarts a broken engine, and replan() —
/// the only engine swap — migrates onto the hook's validated replacement.
/// Sessions are released when the executor dies, so no exit path strands
/// them on the caller's engine.
class EngineExecutor final : public ServeExecutor {
 public:
  using Prompts = std::deque<std::pair<std::vector<TokenId>, int>>;
  using Generated = std::deque<std::vector<TokenId>>;

  EngineExecutor(PipelineEngine& engine, const OnlineEngineOptions& options,
                 const Prompts& prompts, Generated& generated)
      : options_(options),
        prompts_(prompts),
        generated_(generated),
        engine_(&engine),
        sessions_(options.class_engine) {
    gopts_.deadline_s = options.dispatch_deadline_s;
    sessions_.bind(&engine);
  }

  /// The driver these options ask for: health sampling feeds both the
  /// replan hook and the metrics snapshots, so either one arms it.
  static ServeDriver driver(ServeScheduler& scheduler,
                            const OnlineEngineOptions& options) {
    const bool metrics = !options.metrics_out.empty();
    std::optional<HealthMonitorOptions> health;
    if (options.replan || metrics) health = options.health;
    return ServeDriver(scheduler, health, static_cast<bool>(options.replan),
                       metrics ? options.metrics_interval_s
                               : std::numeric_limits<double>::infinity());
  }

  void prepare(const DispatchDecision& d) override {
    // Every row's engine input is its context so far — just the prompt
    // until it has output; a session needs more only to rebuild a lost
    // session. A static batch keeps its whole generation, every other
    // dispatch at most one token per row.
    const bool whole =
        options_.scheduler.policy == SchedulerPolicy::kStaticBatching;
    inputs_.rows.clear();
    inputs_.take.clear();
    for (int id : d.request_ids) {
      const std::size_t i = static_cast<std::size_t>(id);
      const auto& [prompt, gen] = prompts_[i];
      const std::vector<TokenId>& done = generated_[i];
      std::vector<TokenId> seq = prompt;
      seq.insert(seq.end(), done.begin(), done.end());
      inputs_.rows.push_back(std::move(seq));
      const int want = gen - static_cast<int>(done.size());
      inputs_.take.push_back(static_cast<std::size_t>(
          std::max(0, whole ? want : std::min(want, 1))));
    }
  }

  DispatchResult execute(const DispatchDecision& d, double start) override {
    DispatchResult r;
    StopwatchNs attempt;
    try {
      TRACE_SPAN1("serve",
                  d.phase == ServePhase::kPrefillPass ? "execute-prefill"
                                                      : "execute-decode",
                  "batch", d.request_ids.size());
      // Chaos site for serving-layer faults (a throw here fails the
      // dispatch without involving the pipeline at all).
      FAULT_POINT("serve.dispatch");
      StopwatchNs wall;
      // Per-stage straggler sites first (inside the dispatch wall clock),
      // then a stats snapshot so the health sample can attribute this
      // dispatch's cost: measured per-stage busy delta plus the
      // serving-level injected delay per stage.
      r.stage_busy_s = check_serve_stage_sites(engine_->num_stages());
      const EngineStats before = engine_->stats();
      if (options_.scheduler.policy == SchedulerPolicy::kIterationLevel) {
        out_.clear();
        for (TokenId t : sessions_.run(d, inputs_, gopts_)) out_.push_back({t});
      } else {
        out_ = run_static_session(*engine_, inputs_, gopts_);
      }
      const double total_s = wall.elapsed_s();
      const EngineStats after = engine_->stats();
      for (std::size_t p = 0; p < r.stage_busy_s.size(); ++p)
        if (p < before.stages.size() && p < after.stages.size())
          r.stage_busy_s[p] +=
              std::max(0.0, after.stages[p].busy_s - before.stages[p].busy_s);
      r.end_s = start + total_s;
      r.dispatch_s = total_s;
      if (d.phase == ServePhase::kPrefillPass || d.num_join > 0)
        r.prefill_end_s =
            start +
            std::max(0.0, after.prefill.seconds - before.prefill.seconds);
      return r;
    } catch (const std::bad_alloc&) {
      mem_fault_ = true;
      error_ = std::current_exception();
    } catch (...) {
      mem_fault_ = false;
      error_ = std::current_exception();
    }
    // A failed call's wall time still advances a virtual clock, so retried
    // dispatches do not appear free.
    r.ok = false;
    r.end_s = start + attempt.elapsed_s();
    return r;
  }

  void commit(const DispatchDecision& d) override {
    for (std::size_t i = 0; i < d.request_ids.size(); ++i) {
      const std::size_t id = static_cast<std::size_t>(d.request_ids[i]);
      const std::size_t take = std::min(out_[i].size(), inputs_.take[i]);
      generated_[id].insert(
          generated_[id].end(), out_[i].begin(),
          out_[i].begin() + static_cast<std::ptrdiff_t>(take));
    }
  }

  /// Counts memory faults (the health sample turns repeated ones into a
  /// kMemoryPressure verdict for replan()) and restarts a broken engine
  /// within the restart budget. An exhausted budget rethrows the dispatch
  /// error.
  void recover() override {
    if (mem_fault_) {
      ++total_mem_faults_;
      TRACE_INSTANT("serve", "mem-fault");
    }
    if (!engine_->healthy()) {
      if (engine_restarts_ >= options_.max_engine_restarts)
        std::rethrow_exception(error_);
      engine_->restart();
      ++engine_restarts_;
      TRACE_INSTANT("serve", "engine-restart");
    }
  }

  void settle(const ServeScheduler& scheduler) override {
    sessions_.reconcile(scheduler.finished());
  }

  int mem_faults() const override { return total_mem_faults_; }

  /// A validated migration swaps the engine live. Don't trust the hook: a
  /// replacement serving a different model would silently corrupt every
  /// in-flight request, so a mismatch is terminal. The rebind releases
  /// every KV page on the old engine; the next decision rebuilds each
  /// request from its authoritative context via re-prefill, which under
  /// greedy sampling resumes it exactly.
  void replan(const HealthVerdict& verdict, ReplanEvent& ev) override {
    const ReplanOutcome out = options_.replan(verdict);
    ev.delta = out.delta;
    ev.applied = out.delta.kind != PlanDeltaKind::kNone &&
                 out.engine != nullptr && out.engine != engine_;
    if (!ev.applied) return;
    const std::string mismatch =
        validate_replacement_engine(*engine_, *out.engine);
    if (!mismatch.empty())
      throw Error(
          "OnlineEngineOptions::replan returned an incompatible engine: " +
          mismatch);
    TRACE_INSTANT("serve", "migrate");
    engine_ = out.engine;
    sessions_.bind(out.engine);
  }

  /// llmpq-metrics/v1 dump of the control loop's view: health snapshot
  /// (baseline, EWMAs, per-stage busy, counters), the request latency
  /// summary so far (completed requests, arrival -> last token), and the
  /// live engine's cumulative stats.
  void export_metrics(const ServeDriver& driver) override {
    if (options_.metrics_out.empty()) return;
    const HealthMonitor::Snapshot snap = driver.monitor()->snapshot();
    MetricsRegistry reg;
    std::vector<double> latencies;
    for (const RequestStats& r : driver.scheduler().finished()) {
      if (r.outcome != RequestOutcome::kCompleted) continue;
      latencies.push_back(r.finish_s - r.arrival_s);
    }
    reg.set_latency("serve.request_latency",
                    summarize_latency(std::move(latencies)));
    const OutcomeCounts oc = driver.scheduler().outcomes();
    reg.set_value("serve.requests.completed", oc.completed);
    reg.set_value("serve.requests.timed_out", oc.timed_out);
    reg.set_value("serve.requests.rejected", oc.rejected);
    reg.set_value("serve.requests.failed", oc.failed);
    reg.set_value("serve.health.samples", snap.samples);
    reg.set_value("serve.health.verdicts", snap.verdicts);
    reg.set_value("serve.health.baseline_s", snap.baseline_s);
    reg.set_value("serve.health.dispatch_ewma_s", snap.dispatch_ewma_s);
    reg.set_value("serve.health.queue_depth", snap.queue_depth);
    reg.set_value("serve.health.preemptions", snap.preemptions);
    reg.set_value("serve.health.mem_faults", snap.mem_faults);
    reg.set_value("serve.health.migrations", driver.migrations());
    reg.set_value("serve.health.replans",
                  static_cast<double>(driver.replans().size()));
    for (std::size_t p = 0; p < snap.stage_busy_ewma_s.size(); ++p)
      reg.set_value("serve.health.stage" + std::to_string(p) + ".busy_ewma_s",
                    snap.stage_busy_ewma_s[p]);
    reg.set_engine("serve.engine", engine_->stats());
    (void)reg.write_json_file(options_.metrics_out);
  }

  /// End of the run: frees every session, then writes the final snapshot.
  void drain(const ServeDriver& driver) {
    sessions_.release_all();
    export_metrics(driver);
  }

  /// The run's own counters; finish_report() adds the scheduler's records.
  OnlineReport totals(const ServeDriver& driver, double makespan_s) const {
    OnlineReport rep;
    rep.makespan_s = makespan_s;
    rep.engine_restarts = engine_restarts_;
    rep.mem_faults = total_mem_faults_;
    rep.replans = driver.replans();
    rep.migrations = driver.migrations();
    return rep;
  }

 private:
  const OnlineEngineOptions& options_;
  const Prompts& prompts_;
  Generated& generated_;
  PipelineEngine* engine_;  ///< base engine; only replan() swaps it
  GenerateOptions gopts_;
  SessionExecutor sessions_;
  DecisionInputs inputs_;                  ///< the decision in flight
  std::vector<std::vector<TokenId>> out_;  ///< its output, row-aligned
  bool mem_fault_ = false;                 ///< the last failure's kind
  std::exception_ptr error_;               ///< and the failure itself
  int engine_restarts_ = 0;
  int total_mem_faults_ = 0;
};

/// Completes a run's totals() with the scheduler's records, the
/// generated tokens and the served-request summaries.
OnlineReport finish_report(OnlineReport rep, const ServeScheduler& scheduler,
                           const std::deque<std::vector<TokenId>>& generated) {
  rep.requests = scheduler.finished();
  rep.decisions = scheduler.decision_log();
  // Throughput and the latency summaries cover served requests only —
  // folding rejected/timed-out requests in would make a lossy run look
  // faster, not slower.
  std::int64_t tokens_out = 0;
  std::vector<double> latencies, queue_delays, prefills;
  for (const RequestStats& r : rep.requests) {
    if (r.outcome != RequestOutcome::kCompleted) continue;
    ++rep.completed;
    tokens_out += r.gen_tokens;
    latencies.push_back(r.finish_s - r.arrival_s);
    queue_delays.push_back(r.queue_delay_s);
    prefills.push_back(r.prefill_s);
  }
  rep.preemptions = scheduler.preemptions();
  rep.forced_joins = scheduler.forced_joins();
  rep.tenants = scheduler.tenant_summaries();
  const OutcomeCounts oc = scheduler.outcomes();
  rep.timed_out = oc.timed_out;
  rep.rejected = oc.rejected;
  rep.failed = oc.failed;
  rep.retries = oc.retries;
  rep.throughput_tokens_per_s =
      rep.makespan_s > 0.0
          ? static_cast<double>(tokens_out) / rep.makespan_s
          : 0.0;
  rep.latency = summarize_latency(std::move(latencies));
  rep.queue_delay = summarize_latency(std::move(queue_delays));
  rep.prefill = summarize_latency(std::move(prefills));
  rep.generated.assign(generated.begin(), generated.end());
  return rep;
}

}  // namespace

std::string validate_replacement_engine(const PipelineEngine& current,
                                        const PipelineEngine& next) {
  if (next.spec().vocab != current.spec().vocab)
    return "vocab mismatch (" + std::to_string(next.spec().vocab) + " vs " +
           std::to_string(current.spec().vocab) +
           ") — the replacement serves a different token space";
  if (next.spec().layers != current.spec().layers)
    return "layer count mismatch (" + std::to_string(next.spec().layers) +
           " vs " + std::to_string(current.spec().layers) +
           ") — the replacement's plan covers a different model";
  if (!next.healthy())
    return "replacement engine is broken (restart() it before handing it "
           "to the serving loop)";
  return {};
}

OnlineEngine::OnlineEngine(PipelineEngine& engine,
                           const OnlineEngineOptions& options)
    : engine_(engine), options_(options), scheduler_(options.scheduler) {
  // The scheduler's clock (clock_) reads zero right now, so now_s() is the
  // offset that aligns its lifecycle events with the wall-clock spans.
  scheduler_.enable_trace(trace_pids::kServe, TraceSession::now_s());
  // Start the admission thread last so a constructor failure above never
  // leaves it running (same RAII discipline as the pipeline engine).
  server_ = std::thread([this] { serve_loop(); });
}

OnlineEngine::~OnlineEngine() {
  close();
  if (server_.joinable()) server_.join();
}

int OnlineEngine::submit(std::vector<TokenId> prompt, int gen_tokens,
                         int tenant_id, int req_class) {
  TRACE_INSTANT("serve", "submit");
  // Boundary guard: an empty prompt has no last token to sample from and
  // nothing to prefill; reject it here with a precise message instead of
  // letting it surface later as a mid-dispatch engine error.
  check_arg(!prompt.empty(),
            "OnlineEngine::submit: zero-length prompts are not allowed");
  std::unique_lock<std::mutex> lk(mu_);
  // Fail fast once the serving loop has died: queueing more work would
  // just strand it (nobody will ever dispatch), and the caller would only
  // learn about the failure at wait().
  if (error_)
    throw Error("OnlineEngine::submit: serving loop failed: " + error_what_);
  const int id = static_cast<int>(prompts_.size());
  ServeRequest r;
  r.id = id;
  r.arrival_s = clock_.elapsed_s();
  r.prompt_len = static_cast<int>(prompt.size());
  r.gen_tokens = gen_tokens;
  r.tenant_id = tenant_id;
  r.req_class = req_class;
  scheduler_.submit(r);  // validates shape, tenant and stream state
  prompts_.emplace_back(std::move(prompt), gen_tokens);
  generated_.emplace_back();
  lk.unlock();
  cv_.notify_all();
  return id;
}

void OnlineEngine::close() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    scheduler_.close();
  }
  cv_.notify_all();
}

OnlineReport OnlineEngine::wait() {
  std::unique_lock<std::mutex> lk(mu_);
  check_arg(scheduler_.closed(), "OnlineEngine::wait(): close() first");
  cv_.wait(lk, [&] { return done_; });
  // Join exactly once, flagged under the lock: two threads calling wait()
  // concurrently must not both reach std::thread::join() (UB on the
  // second), and repeated waits after a failure must keep rethrowing the
  // same error instead of tripping over a dead thread.
  if (!joined_) {
    joined_ = true;
    lk.unlock();
    server_.join();
    lk.lock();
  }
  if (error_) std::rethrow_exception(error_);
  return finish_report(totals_, scheduler_, generated_);
}

void OnlineEngine::serve_loop() {
  if (TraceSession::enabled()) TraceSession::set_thread_name("serve-loop");
  std::unique_lock<std::mutex> lk(mu_);
  EngineExecutor exec(engine_, options_, prompts_, generated_);
  ServeDriver driver = EngineExecutor::driver(scheduler_, options_);
  WallClock clock(clock_, lk, cv_);
  try {
    driver.run(clock, exec);
  } catch (...) {
    // The terminal failure submit() and wait() surface.
    if (!lk.owns_lock()) lk.lock();
    error_ = std::current_exception();
    error_what_ = describe_exception(error_);
  }
  exec.drain(driver);
  totals_ = exec.totals(driver, driver.last_finish_s());
  done_ = true;
  lk.unlock();
  cv_.notify_all();
}

OnlineReport serve_trace(PipelineEngine& engine,
                         const std::vector<OnlineTraceRequest>& trace,
                         const OnlineEngineOptions& options) {
  ServeScheduler scheduler(options.scheduler);
  // Trace-replay timestamps are virtual (the trace's own clock), so no
  // offset: the serving tracks start at t=0 alongside the session.
  scheduler.enable_trace(trace_pids::kServe, 0.0);
  std::deque<std::pair<std::vector<TokenId>, int>> prompts;
  std::deque<std::vector<TokenId>> generated;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const OnlineTraceRequest& t = trace[i];
    check_arg(!t.prompt.empty(),
              "serve_trace: zero-length prompts are not allowed");
    ServeRequest r;
    r.id = static_cast<int>(i);
    r.arrival_s = t.arrival_s;
    r.prompt_len = static_cast<int>(t.prompt.size());
    r.gen_tokens = t.gen_tokens;
    r.tenant_id = t.tenant_id;
    r.req_class = t.req_class;
    scheduler.submit(r);
    prompts.emplace_back(t.prompt, t.gen_tokens);
    generated.emplace_back();
  }
  scheduler.close();

  // Virtual clock: arrivals advance it per the trace; each decision
  // advances it by the measured wall time of the real engine call.
  EngineExecutor exec(engine, options, prompts, generated);
  ServeDriver driver = EngineExecutor::driver(scheduler, options);
  VirtualClock clock;
  driver.run(clock, exec);
  exec.drain(driver);
  return finish_report(exec.totals(driver, clock.now()), scheduler,
                       generated);
}

}  // namespace llmpq
