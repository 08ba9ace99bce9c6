#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/trace.hpp"
#include "serve/tenant.hpp"

namespace llmpq {

/// Shared serving scheduler (paper Sec. 2.3 / Sec. 7, and the ORCA/vLLM
/// style systems the discussion defers to): *pure decision logic* for
/// batching arriving requests. The serving driver (`serve/serve_driver.hpp`)
/// runs it for every back-end — a virtual clock with analytic roofline
/// pass times (`sim/online_sim.cpp`), or a wall or virtual clock with the
/// real threaded `PipelineEngine` (`serve/online_engine.cpp`).
///
/// The scheduler consumes arrival events plus a caller-supplied clock and
/// emits dispatch decisions (which requests, which phase, padded shapes).
/// It never sleeps, never measures time, and touches no hardware, which is
/// what makes it unit-testable and back-end independent. Two historical
/// timing bugs live here *fixed once* for both back-ends:
///
///   1. Stale timer: with a non-empty, non-full queue the old simulator
///      waited for the *next arrival*, so a tail request could wait
///      unboundedly. The scheduler now emits a wait deadline of
///      `min(next_arrival, oldest.arrival + max_wait_s)` and dispatches at
///      the stale deadline.
///   2. Queue delay: the old iteration-level path recorded
///      `t_after_prefill - arrival`, silently folding prefill compute into
///      queueing. The scheduler records `admit_time - arrival` and tracks
///      prefill time as a separate per-request stat.

struct ServeRequest {
  int id = 0;           ///< caller-assigned, stable across back-ends
  double arrival_s = 0.0;
  int prompt_len = 0;
  int gen_tokens = 0;
  /// Tenant the request belongs to (multi-tenant fair sharing; see
  /// SchedulerOptions::tenants). With no tenants configured the field is
  /// carried through to RequestStats but never affects decisions.
  int tenant_id = 0;
  /// Request class (RAMP-style): stamped into DispatchDecision::classes
  /// so the runtime can route classes to degraded-bit engine variants.
  /// Never affects *which* requests are batched, only where they execute.
  int req_class = 0;
};

enum class SchedulerPolicy {
  kStaticBatching,  ///< pad a batch, run it to the longest generation
  kIterationLevel,  ///< ORCA: requests join/leave at token granularity
};

/// How a back-end executes the decode rounds the scheduler dispatches.
/// Both modes run over engine sessions and are exact for mixed-length
/// batches; they differ in which decisions the scheduler makes. kContinuous
/// routes decisions through the capacity planner (joins ride along with
/// decode rounds, memory pressure preempts), so its log differs from
/// kSession's — but it is still deterministic and back-end independent,
/// which is what lets the parity test pin sim against runtime for both.
enum class DecodeExec {
  /// Step-level engine sessions: KV persists across decisions and each
  /// decode round feeds exactly one new token per request (ragged, no
  /// padding).
  kSession,
  /// Continuous (in-flight) batching over engine sessions: between decode
  /// steps the capacity planner admits waiting requests into the running
  /// batch (their prefill joins the same iteration), retires finished
  /// sequences immediately, and preempts the newest sequences to pending
  /// when the analytic KV page ledger overflows. Requires
  /// SchedulerPolicy::kIterationLevel.
  kContinuous,
};

struct SchedulerOptions {
  SchedulerPolicy policy = SchedulerPolicy::kIterationLevel;
  /// Max concurrent sequences (bounded by the plan's preallocated KV).
  int max_batch = 32;
  /// Static batching: dispatch when this many requests are queued or the
  /// oldest has waited `max_wait_s`.
  int batch_size = 16;
  double max_wait_s = 5.0;
  /// Decode execution strategy for the back-end (see DecodeExec). Lives in
  /// the shared options so sim and runtime stay configured identically.
  /// kContinuous switches the decision path to the capacity planner
  /// (identical in sim and runtime, so parity still holds).
  DecodeExec exec = DecodeExec::kSession;

  // ---- Continuous-batching budgets (kContinuous only; ignored by the
  // other modes). Zeros disable a dimension — see CapacityOptions.

  /// Per-iteration token budget: each decode row costs 1, a joining
  /// request costs its full context. 0 = unbounded.
  int token_budget = 0;
  /// Analytic KV ledger granularity — tokens per page, mirroring the
  /// engine's KvCacheManagerOptions::page_size.
  int kv_page_size = 16;
  /// Analytic KV ledger cap in pages per layer manager; overflow preempts
  /// the newest running sequences to pending. 0 = unbounded (never
  /// preempts). The ledger is the enforcer — the engine's real pools stay
  /// unbounded, so sim and runtime decide identically without consulting
  /// memory.
  int kv_pages = 0;

  // ---- Fault-tolerance policy (all defaults leave behavior unchanged:
  // with no deadline, no admission bound and no fail() calls the decision
  // log is identical to the pre-fault-tolerance scheduler, which the
  // sim-vs-runtime parity test relies on).

  /// Per-request service deadline measured from arrival. A request still
  /// queued (or still generating, iteration-level) past
  /// `arrival + deadline_s` finishes as kTimedOut. +inf disables.
  double deadline_s = std::numeric_limits<double>::infinity();
  /// Bounded admission queue: a fresh arrival that finds this many
  /// requests already waiting is rejected on arrival (kRejected
  /// backpressure). 0 = unbounded. Retries re-enter without re-admission.
  int admission_capacity = 0;
  /// Retry policy for requests of failed dispatches (see fail()): each
  /// request is re-dispatched at most `max_retries` times, with
  /// exponential backoff min(retry_backoff_s * 2^(attempt-1),
  /// retry_backoff_max_s) between attempts; past the cap it finishes as
  /// kFailed.
  int max_retries = 2;
  double retry_backoff_s = 0.05;
  double retry_backoff_max_s = 2.0;

  // ---- Multi-tenant fair sharing (empty = single-tenant legacy mode;
  // the decision log is then bit-identical to the tenant-blind scheduler,
  // which existing parity tests and committed baselines rely on).

  /// Tenant table. When non-empty, every submitted request's tenant_id
  /// must name one of these specs; admission then follows virtual-time
  /// weighted fair sharing (see DESIGN.md "Multi-tenant serving & fair
  /// sharing") and per-tenant deadlines/admission bounds apply.
  std::vector<TenantSpec> tenants;
  /// Starvation bound for continuous batching, measured in dispatch
  /// *rounds* (clock-free, so sim and runtime decide identically): once
  /// the head of the waiting list has been passed over this many
  /// consecutive rounds by a full running batch, the capacity planner
  /// force-admits it, preempting the newest running sequences as needed.
  /// 0 disables (legacy decision logs unchanged); -1 = auto (0 without
  /// tenants, 16 with tenants configured).
  int join_starvation_rounds = -1;
  /// Caps the waiting-list prefix the continuous-mode planner examines
  /// per round, bounding per-round work under a deep backlog (the 10^6
  /// request scale scenario). 0 = unbounded. The cap never reorders —
  /// it only truncates the tail the planner would not admit anyway once
  /// the batch is near capacity.
  int admit_scan_limit = 0;
  /// When false, the scheduler stops retaining the dispatch-decision log
  /// (decision_log() stays empty). Million-request runs disable it —
  /// retaining ~10^8 decision rows is the scale killer, and the parity
  /// tests that need the log run on small traces.
  bool record_decisions = true;
};

/// Terminal state of a request. Conservation invariant (chaos tests): every
/// submitted id ends up in finished() exactly once, with exactly one of
/// these outcomes.
enum class RequestOutcome {
  kCompleted,  ///< served normally
  kTimedOut,   ///< deadline_s elapsed before service finished
  kRejected,   ///< bounced by the admission bound on arrival
  kFailed,     ///< dispatch failures exhausted max_retries
};

const char* request_outcome_name(RequestOutcome outcome);

enum class ServePhase { kPrefillPass, kDecodePass };

/// One unit of work the back-end must execute. For static batching a
/// prefill decision bundles the whole padded run (prefill + `padded_gen`
/// generated tokens); for iteration-level scheduling prefill and each
/// decode round are separate decisions so requests can join/leave between
/// rounds.
struct DispatchDecision {
  int seq = 0;                    ///< decision index (parity-test key)
  ServePhase phase = ServePhase::kPrefillPass;
  std::vector<int> request_ids;   ///< admitted (prefill) or active (decode)
  /// Per-request context length, aligned with request_ids: the prompt
  /// length for a prefill pass, prompt + generated-so-far for a decode
  /// round. Session back-ends use it to verify KV state and retry
  /// idempotently; it is part of the parity-test key.
  std::vector<int> contexts;
  int padded_prompt = 0;          ///< prefill: batch max prompt length
  int padded_gen = 0;             ///< static prefill: batch max generation
  int max_context = 0;            ///< decode: longest context this round
  /// Continuous batching only: the last `num_join` rows of request_ids are
  /// joining this iteration — their context is prefilled (fresh prompt or
  /// preempt-resume re-prefill) while the leading rows decode one token.
  /// A round with only joins is phase kPrefillPass; a mixed round is
  /// kDecodePass with num_join > 0.
  int num_join = 0;
  /// Continuous batching only: running sequences evicted to pending by
  /// this decision, newest first. The back-end must release their KV
  /// (PipelineEngine::preempt_session) before executing the round; they
  /// re-enter later as joining rows. Part of the parity key.
  std::vector<int> preempted;
  /// Per-row tenant ids and request classes, aligned with request_ids.
  /// Tenancy is part of the parity key: the fair-share pass must admit
  /// the same rows in the same order on both back-ends. Classes tell the
  /// runtime which engine variant each row executes on.
  std::vector<int> tenants;
  std::vector<int> classes;
  /// Joins admitted by the starvation bound this round (trailing rows of
  /// the join set). Part of the parity key — a forced admission must
  /// happen at the same round on both back-ends.
  int forced_joins = 0;
};

/// What the back-end should do next, at the clock value it passed in.
struct SchedulerAction {
  enum class Kind {
    kDispatch,  ///< execute `decision`, then report complete()
    kWait,      ///< nothing to do before `wait_until` (+inf: block until
                ///< submit()/close() — live back-ends wait on their queue)
    kDone,      ///< stream closed and every request finished
  };
  Kind kind = Kind::kDone;
  DispatchDecision decision;
  double wait_until = 0.0;
};

/// Per-request serving record. `queue_delay_s` is admission latency only
/// (arrival -> dispatch decision); `prefill_s` is the separate prefill pass
/// time, no longer conflated with queueing.
struct RequestStats {
  int id = 0;
  double arrival_s = 0.0;
  double admit_s = 0.0;
  double finish_s = 0.0;
  double queue_delay_s = 0.0;  ///< admit_s - arrival_s
  double prefill_s = 0.0;      ///< prefill pass duration (0 if unknown)
  /// Total time spent parked on the resume queue after a preemption or a
  /// failed join (kContinuous). queue_delay_s covers arrival->admission
  /// only, so without this field preemption-era waiting was invisible —
  /// per-tenant SLO attribution needs wall time to decompose as
  /// queue_delay + service + resume_wait.
  double resume_wait_s = 0.0;
  int prompt_len = 0;
  int gen_tokens = 0;
  int tenant = 0;     ///< ServeRequest::tenant_id
  int req_class = 0;  ///< ServeRequest::req_class
  RequestOutcome outcome = RequestOutcome::kCompleted;
  int retries = 0;  ///< failed-dispatch retries this request consumed
};

/// Tally of terminal outcomes across finished(), for reports and the
/// conservation assertions in the chaos tests.
struct OutcomeCounts {
  int completed = 0;
  int timed_out = 0;
  int rejected = 0;
  int failed = 0;
  int retries = 0;  ///< total retries consumed by all finished requests
};

class ServeScheduler {
 public:
  explicit ServeScheduler(const SchedulerOptions& options);

  /// Adds a request to the arrival stream. Requests with `arrival_s` in
  /// the future (relative to the clock passed to next()) are held until
  /// their arrival time, which lets trace replay submit everything up
  /// front; live back-ends submit with arrival_s = now. Ids are single-use
  /// for the scheduler's lifetime — reusing one, even after its request
  /// finished, is rejected because back-ends index per-request buffers by
  /// id. Not thread-safe — callers serialize (the online engine holds its
  /// own lock).
  void submit(const ServeRequest& request);

  /// Declares the arrival stream finished: no further submit() calls.
  /// Until close(), an empty queue yields kWait instead of kDone.
  void close();
  bool closed() const { return closed_; }

  /// Core decision function. `now` must be non-decreasing across calls.
  /// After a kDispatch action the caller must execute the decision and
  /// report complete() before asking for the next action.
  SchedulerAction next(double now);

  /// Reports that `decision` finished executing at `finish_s` (same clock
  /// as next()). `prefill_end_s`, when >= 0, is the time the prefill pass
  /// of a kPrefillPass decision completed (for static batching back-ends
  /// that can split the bundled run; pass -1 if unknown).
  void complete(const DispatchDecision& decision, double finish_s,
                double prefill_end_s = -1.0);

  /// Reports that `decision` FAILED at `now` (back-end fault) — the
  /// error-path counterpart of complete(). Prefill: its requests re-enter
  /// the queue with exponential backoff, finishing as kFailed once they
  /// exhaust max_retries. Decode: the active set stays resident and the
  /// round is retried after the backoff window; requests that exhaust
  /// max_retries finish as kFailed. Either way dispatching pauses until
  /// the backoff window elapses.
  void fail(const DispatchDecision& decision, double now);

  /// Outcome tally over finished().
  OutcomeCounts outcomes() const;

  int pending() const { return static_cast<int>(queue_.size()); }
  int active() const { return static_cast<int>(active_.size()); }
  bool idle() const {
    return queue_.empty() && active_.empty() && resume_.empty() &&
           !in_flight_;
  }
  /// Sequences evicted to pending by the capacity planner (kContinuous).
  int preemptions() const { return preemptions_; }
  /// Joins admitted by the starvation bound (kContinuous; see
  /// SchedulerOptions::join_starvation_rounds).
  int forced_joins() const { return forced_joins_total_; }
  /// Per-tenant outcome/SLO summaries over finished() (empty specs fold
  /// everything into one synthetic tenant row).
  std::vector<TenantSummary> tenant_summaries() const {
    return summarize_tenants(finished_, options_.tenants);
  }

  /// Requests that finished, in completion order.
  const std::vector<RequestStats>& finished() const { return finished_; }

  /// Every dispatch decision emitted, in order — the parity-test log: two
  /// back-ends driving the same trace must produce identical logs.
  const std::vector<DispatchDecision>& decision_log() const {
    return decision_log_;
  }

  /// Arms trace emission: dispatch-execution spans on `pid`'s track and a
  /// queue→prefill→decode async lifecycle per request (keyed by request
  /// id), all timestamped on the scheduler's own clock. `clock_offset_s`
  /// is added to every timestamp so a wall-clock back-end can align with
  /// the trace session (pass TraceSession::now_s() captured when this
  /// scheduler's clock read zero); virtual-clock back-ends pass 0. Events
  /// are recorded only while the global TraceSession is enabled.
  void enable_trace(std::uint32_t pid, double clock_offset_s);

 private:
  struct ActiveReq {
    int id = 0;
    int context = 0;    ///< tokens in KV (prompt + generated so far)
    int remaining = 0;  ///< tokens still to generate
    int retries = 0;    ///< failed dispatches consumed so far
    int tenant = 0;     ///< ServeRequest::tenant_id
    int cls = 0;        ///< ServeRequest::req_class
    /// Clock value this sequence was parked on resume_ (preemption or
    /// failed join); < 0 while running. Re-admission charges the parked
    /// interval to RequestStats::resume_wait_s.
    double parked_at = -1.0;
  };

  /// Queue entry: a waiting request plus its retry state. `eligible_s` is
  /// the arrival time for fresh requests and the backoff-release time for
  /// retries; the queue is sorted by (eligible_s, id).
  struct QueuedReq {
    ServeRequest req;
    double eligible_s = 0.0;
    int attempts = 0;      ///< failed dispatches so far
    bool admitted = false; ///< passed the admission bound (retries keep it)
  };

  /// Where a waiting-list row came from, so an admitted prefix maps back
  /// onto resume_ / queue_ (fair sharing interleaves the two, so the old
  /// pop-the-head bookkeeping no longer suffices).
  struct WaitRef {
    int id = 0;
    bool from_resume = false;
    std::size_t idx = 0;  ///< index into resume_ or queue_
  };

  SchedulerAction next_static(double now);
  SchedulerAction next_iteration(double now);
  /// Continuous batching: one capacity-planner round — preempt under page
  /// pressure, then dispatch the continuing set plus the admitted joins as
  /// a single decision.
  SchedulerAction next_continuous(double now);
  void complete_continuous(const DispatchDecision& decision, double finish_s,
                           double prefill_end_s);
  void fail_continuous(double now, int& max_attempt);
  DispatchDecision make_prefill_decision(double now, int take);
  int arrived_count(double now) const;
  /// Builds the round's waiting order: resume rows first, then arrived
  /// fresh rows — each group FIFO in legacy mode, interleaved by
  /// ascending virtual service when tenants are configured.
  std::vector<WaitRef> order_waiting(double now);
  /// Tenant bookkeeping. tenant_idx returns the spec index (-1 when
  /// tenants are not configured); weight_of/deadline_for read the spec.
  int tenant_idx(int tenant_id) const;
  double weight_of(int tenant_id) const;
  double deadline_for(int tenant_id) const;
  /// Charges `tokens` of admitted work to the tenant's virtual-time
  /// account (no-op in legacy mode).
  void charge_service(int tenant_id, double tokens);
  /// Idle-tenant catch-up: a tenant with no active/resume rows cannot
  /// bank fair-share credit while idle — its account is lifted to the
  /// smallest account among tenants that do hold rows, so a returning
  /// tenant gets priority without monopolizing the batch.
  void clamp_idle_service();
  void record_decision(const DispatchDecision& d);
  void trace_request_lifecycle(const RequestStats& rs) const;
  void enqueue(QueuedReq entry);
  /// Deterministic arrival-order pass: expire queued requests whose
  /// deadline lapsed, then apply the admission bound to fresh arrivals.
  void process_arrivals(double now);
  /// Iteration-level deadline check over the in-generation set.
  void expire_active(double now);
  void finish_unserved(const ServeRequest& r, RequestOutcome outcome,
                       double finish_s, int retries);
  double backoff_s(int attempt) const;
  /// Folds deadline-expiry wakeups into a kWait action so a waiting
  /// back-end wakes in time to time requests out.
  void fold_expiry_wakeups(SchedulerAction& a) const;

  SchedulerOptions options_;
  std::unordered_set<int> ids_;     ///< every id ever submitted (O(1) dups)
  std::deque<QueuedReq> queue_;     ///< sorted by (eligible_s, id)
  std::vector<ActiveReq> active_;   ///< iteration-level in-generation set
  /// Continuous mode: preempted sequences waiting to resume (FIFO; they
  /// outrank fresh arrivals for admission since they already hold
  /// generated tokens) plus failed joins awaiting retry.
  std::deque<ActiveReq> resume_;
  /// Continuous mode: the joining rows of the in-flight decision, so
  /// complete()/fail() know each join's shape (context fed, remaining).
  std::vector<ActiveReq> joining_;
  std::unordered_map<int, RequestStats> open_;  ///< admitted, not finished
  std::vector<RequestStats> finished_;
  std::vector<DispatchDecision> decision_log_;
  bool closed_ = false;
  bool in_flight_ = false;  ///< a dispatch awaits complete()
  double dispatch_now_ = 0.0;  ///< clock value of the in-flight dispatch
  double resume_not_before_ = 0.0;  ///< backoff window after a fail()
  int next_seq_ = 0;
  int in_flight_seq_ = -1;  ///< seq of the in-flight dispatch
  int preemptions_ = 0;  ///< capacity-planner evictions (kContinuous)

  // ---- Multi-tenant state (all unused in legacy single-tenant mode).
  std::unordered_map<int, int> tenant_index_;  ///< tenant id -> spec index
  /// Virtual-time fair-share accounts, indexed like options_.tenants:
  /// admitted tokens / weight. The tenant with the smallest account is
  /// first in line.
  std::vector<double> service_;
  bool tenant_deadlines_ = false;  ///< any spec with a finite deadline_s
  bool tenant_admission_ = false;  ///< any spec with an admission bound
  int forced_joins_total_ = 0;  ///< starvation-bound force admissions
  int starved_id_ = -1;     ///< current waiting-list head (kContinuous)
  int starved_rounds_ = 0;  ///< rounds that head has been passed over

  bool trace_ = false;
  std::uint32_t trace_pid_ = trace_pids::kServe;
  double trace_offset_s_ = 0.0;
};

const char* scheduler_policy_name(SchedulerPolicy policy);

}  // namespace llmpq
