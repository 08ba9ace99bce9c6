#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "runtime/engine.hpp"
#include "serve/health.hpp"
#include "serve/replanner.hpp"
#include "serve/scheduler.hpp"

namespace llmpq {

/// Online serving over the real threaded `PipelineEngine`. Both entry
/// points — the live `OnlineEngine` and `serve_trace` — run the one serving
/// driver (serve/serve_driver.hpp) with the same engine executor, and the
/// online *simulator* runs that driver too with a roofline executor: the
/// policy code (admission, batching, stale timer, queue-delay accounting)
/// and the control loop are written once, so the sim-vs-runtime parity
/// tests assert identical admission order, batch composition and re-plan
/// events on identical traces.
///
/// Execution mapping (the policy picks the shape of a dispatch; every
/// dispatch runs over engine sessions, so mixed-length batches carry no pad
/// tokens and each request reproduces its unbatched greedy continuation
/// bit-for-bit):
///   * iteration-level (DecodeExec::kSession or kContinuous) — prefill
///     decisions and continuous joins begin persistent engine sessions and
///     run one ragged prefill; every decode round advances the active set
///     by exactly one token via `PipelineEngine::decode_step`, reusing all
///     cached KV.
///   * static batching — one dispatch runs over ephemeral sessions: a
///     ragged batch prefill, then one decode round per outstanding token
///     with each request leaving at its own generation length (no
///     padded-shape work).
///
/// Live mode: construct, submit() from any thread (arrival time = wall
/// clock), close(), then wait() for the report. A dedicated admission
/// thread runs the driver on the wall clock under the engine's lock;
/// submissions wake it through a condition variable, and a kWait action
/// sleeps until the stale deadline — the scheduler's fixed timer is what
/// bounds a lone request's wait at `arrival + max_wait_s`. The lock is
/// released only while a dispatch executes.
///
/// Trace mode (`serve_trace`): replays a timestamped trace on a virtual
/// clock — arrivals advance it per the trace, executions advance it by the
/// measured wall time of the real engine call. Deterministic in decision
/// order for burst traces, which is what the parity test uses.

struct OnlineEngineOptions {
  SchedulerOptions scheduler;

  // ---- Fault-tolerance policy. Defaults change nothing: no dispatch
  // deadline, and the recovery paths only run after a dispatch fails.

  /// Wall-clock budget for each engine dispatch. On expiry the engine
  /// aborts the call (PipelineAbortError), the serving loop restarts it,
  /// and the scheduler retries/fails the affected requests. This is what
  /// bounds the damage of a dropped mailbox message or a wedged stage.
  double dispatch_deadline_s = std::numeric_limits<double>::infinity();
  /// Engine restarts allowed before the loop gives up and surfaces the
  /// last failure through wait().
  int max_engine_restarts = 8;

  // ---- Online control loop (DESIGN.md "Online control loop & elastic
  // migration"). Off unless `replan` is set; `health` then tunes the
  // monitor that feeds it one sample per dispatch.

  /// Health-monitor knobs (baseline warmup, straggler ratio, hysteresis,
  /// cooldown). Defaults are the parity-tested configuration.
  HealthMonitorOptions health;
  /// Re-plan hook, consulted on every non-healthy verdict: returns the
  /// PlanDelta it decided on and, when it applied the delta, a
  /// replacement engine the loop migrates onto live (sessions are
  /// released and rebuilt by re-prefill on the new engine — bit-exact
  /// under greedy sampling for bit-preserving deltas). This is the only
  /// engine swap: repeated memory faults surface as a kMemoryPressure
  /// verdict, which the Replanner answers by lowering one layer's bits.
  /// The replacement is validated before the swap (same vocab and layer
  /// count, healthy) — see validate_replacement_engine; a mismatch is a
  /// terminal serving error, not a silent swap. The caller retains
  /// engine ownership; MigrationController::hook is the canonical
  /// implementation.
  std::function<ReplanOutcome(const HealthVerdict&)> replan;

  /// When non-empty, the serving loop periodically (every
  /// `metrics_interval_s` of its clock) overwrites this path with an
  /// llmpq-metrics/v1 JSON snapshot of the health monitor + engine stats
  /// plus the request-latency summary so far; a final snapshot is written
  /// when the loop drains.
  std::string metrics_out;
  double metrics_interval_s = 1.0;

  /// Per-class engine routing (multi-tenant request classes): rows whose
  /// DispatchDecision::classes entry is > 0 execute on
  /// `class_engine(cls)` instead of the base engine — the adaptive-
  /// quantization story applied per request class, e.g. a uniform
  /// lower-bit build of the same model (build_random_model from the same
  /// seed). Variants are caller-owned and must keep stable addresses
  /// until the run ends. Returning nullptr falls back to the base engine.
  /// Routing never changes *which* rows are batched (scheduling stays
  /// class-blind beyond the stamp), so sim-vs-runtime decision parity is
  /// unaffected; only execution placement moves.
  std::function<PipelineEngine*(int cls)> class_engine;
};

/// Compatibility check for a replacement engine before the serving loop
/// swaps it in on a re-plan: same vocabulary, same total layer count, and
/// healthy. Returns an empty string when compatible, else a
/// human-readable mismatch description.
std::string validate_replacement_engine(const PipelineEngine& current,
                                        const PipelineEngine& next);

struct OnlineTraceRequest {
  double arrival_s = 0.0;
  std::vector<TokenId> prompt;
  int gen_tokens = 0;
  int tenant_id = 0;  ///< ServeRequest::tenant_id (multi-tenant runs)
  int req_class = 0;  ///< ServeRequest::req_class (class_engine routing)
};

struct OnlineReport {
  int completed = 0;  ///< requests served normally (outcome kCompleted)
  double makespan_s = 0.0;
  double throughput_tokens_per_s = 0.0;  ///< useful (unpadded) tokens
  LatencySummary latency;      ///< arrival -> last token (completed only)
  LatencySummary queue_delay;  ///< arrival -> admission (no prefill inside)
  LatencySummary prefill;      ///< prefill pass time per request
  std::vector<RequestStats> requests;       ///< completion order
  std::vector<DispatchDecision> decisions;  ///< dispatch order (parity key)
  std::vector<std::vector<TokenId>> generated;  ///< indexed by request id

  // ---- Re-plan decision log. Joins `decisions` in the sim-vs-runtime
  // parity contract: on identical traces with identical fault plans and
  // control-loop options, both back-ends must produce the same events in
  // the same order. Compared fields (ReplanEvent::same_decision): at_seq
  // (the DispatchDecision::seq the verdict tripped on), status,
  // bottleneck_stage, applied, and the structural PlanDelta fields (kind,
  // layer, from/to stage, new_bits, micro-batches). Severities and
  // objective scores are clock-dependent and deliberately excluded.
  std::vector<ReplanEvent> replans;
  int migrations = 0;  ///< applied deltas (engine swaps on the runtime)

  // ---- Fault accounting (all zero on a fault-free run).
  int timed_out = 0;        ///< requests past deadline_s
  int rejected = 0;         ///< bounced by the admission bound
  int failed = 0;           ///< exhausted max_retries
  int retries = 0;          ///< total dispatch retries consumed
  int engine_restarts = 0;  ///< PipelineEngine::restart() invocations
  int mem_faults = 0;       ///< std::bad_alloc dispatches observed
  int preemptions = 0;      ///< capacity-planner evictions (kContinuous)
  int forced_joins = 0;     ///< starvation-bound admissions (kContinuous)

  /// Per-tenant outcome/latency/SLO summaries (one synthetic row when no
  /// tenants are configured). Same shape as OnlineSimResult::tenants.
  std::vector<TenantSummary> tenants;
};

class OnlineEngine {
 public:
  OnlineEngine(PipelineEngine& engine, const OnlineEngineOptions& options);
  ~OnlineEngine();

  OnlineEngine(const OnlineEngine&) = delete;
  OnlineEngine& operator=(const OnlineEngine&) = delete;

  /// Enqueues a request (arrival = now on the engine's wall clock) and
  /// wakes the admission thread. Returns the request id. Thread-safe.
  /// Fails fast once the serving loop has died: after the loop stores its
  /// terminal error, every submit() throws immediately (naming the
  /// original failure) instead of silently queueing work no one will run.
  /// `tenant_id`/`req_class` feed multi-tenant fair sharing and per-class
  /// engine routing; the defaults are the single-tenant legacy behavior.
  int submit(std::vector<TokenId> prompt, int gen_tokens, int tenant_id = 0,
             int req_class = 0);

  /// Declares the request stream finished; the admission thread exits once
  /// everything queued has been served.
  void close();

  /// Blocks until the admission thread drains (requires close() first) and
  /// returns the serving report. Idempotent: safe to call repeatedly and
  /// from multiple threads (the thread join happens exactly once); a
  /// failed run rethrows the same error each time.
  OnlineReport wait();

 private:
  void serve_loop();

  PipelineEngine& engine_;  ///< base engine; the loop tracks swaps itself
  OnlineEngineOptions options_;

  std::mutex mu_;
  std::condition_variable cv_;
  ServeScheduler scheduler_;
  std::deque<std::pair<std::vector<TokenId>, int>> prompts_;  ///< by id
  std::deque<std::vector<TokenId>> generated_;                ///< by id
  StopwatchNs clock_;
  bool done_ = false;
  bool joined_ = false;       ///< server_ join happened (wait idempotence)
  std::exception_ptr error_;  ///< loop failure, rethrown by wait()
  std::string error_what_;    ///< its message, for submit() fail-fast
  OnlineReport totals_;       ///< the loop's own counters, once it drains
  std::thread server_;  ///< started last, joined in wait()/destructor
};

/// Replays `trace` against `engine` on a virtual clock (see above).
OnlineReport serve_trace(PipelineEngine& engine,
                         const std::vector<OnlineTraceRequest>& trace,
                         const OnlineEngineOptions& options = {});

}  // namespace llmpq
