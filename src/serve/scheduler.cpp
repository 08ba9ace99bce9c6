#include "serve/scheduler.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/error.hpp"
#include "serve/capacity_scheduler.hpp"

namespace llmpq {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// What admitting a fresh request charges its tenant's fair-share account:
/// its whole prompt + gen, up front.
double fresh_cost(const ServeRequest& r) {
  return static_cast<double>(r.prompt_len + r.gen_tokens);
}

/// Weighted-fair interleave of `count` rows: repeatedly the next FIFO row
/// of the tenant whose virtual-service account in `eff` is smallest (ties
/// break toward the lower spec index, so the order is deterministic), that
/// account advanced locally by the row's cost / weight — one tenant cannot
/// take every slot from its own backlog while cheaper tenants wait. Emits
/// at most `limit` rows; `tenant_of` maps a row to its spec index.
template <class TenantOf, class CostOf, class Emit>
void fair_interleave(std::vector<double>& eff,
                     const std::vector<TenantSpec>& tenants,
                     std::size_t count, std::size_t limit, TenantOf tenant_of,
                     CostOf cost_of, Emit emit) {
  std::vector<std::vector<std::size_t>> per_tenant(eff.size());
  for (std::size_t i = 0; i < count; ++i)
    per_tenant[static_cast<std::size_t>(tenant_of(i))].push_back(i);
  std::vector<std::size_t> cursor(eff.size(), 0);
  for (std::size_t k = 0; k < limit; ++k) {
    int best = -1;
    for (std::size_t t = 0; t < eff.size(); ++t) {
      if (cursor[t] >= per_tenant[t].size()) continue;
      if (best < 0 || eff[t] < eff[static_cast<std::size_t>(best)])
        best = static_cast<int>(t);
    }
    if (best < 0) break;
    const std::size_t bt = static_cast<std::size_t>(best);
    const std::size_t idx = per_tenant[bt][cursor[bt]++];
    emit(idx);
    eff[bt] += cost_of(idx) / tenants[bt].weight;
  }
}

/// Erases the entries at `idx` (any order) from `dq`.
template <class Deque>
void erase_at(Deque& dq, std::vector<std::size_t> idx) {
  std::sort(idx.begin(), idx.end(), std::greater<std::size_t>());
  for (const std::size_t i : idx)
    dq.erase(dq.begin() + static_cast<std::ptrdiff_t>(i));
}

/// A request's record as of `admit_s` (admission, or the moment an
/// unserved request finishes).
RequestStats stats_for(const ServeRequest& r, double admit_s, int retries) {
  RequestStats rs;
  rs.id = r.id;
  rs.arrival_s = r.arrival_s;
  rs.admit_s = admit_s;
  rs.queue_delay_s = std::max(0.0, admit_s - r.arrival_s);
  rs.prompt_len = r.prompt_len;
  rs.gen_tokens = r.gen_tokens;
  rs.tenant = r.tenant_id;
  rs.req_class = r.req_class;
  rs.retries = retries;
  return rs;
}
}  // namespace

const char* scheduler_policy_name(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kStaticBatching:
      return "static-batching";
    case SchedulerPolicy::kIterationLevel:
      return "iteration-level";
  }
  return "?";
}

const char* request_outcome_name(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kCompleted:
      return "completed";
    case RequestOutcome::kTimedOut:
      return "timed-out";
    case RequestOutcome::kRejected:
      return "rejected";
    case RequestOutcome::kFailed:
      return "failed";
  }
  return "?";
}

ServeScheduler::ServeScheduler(const SchedulerOptions& options)
    : options_(options) {
  check_arg(options_.max_batch >= 1 && options_.batch_size >= 1,
            "ServeScheduler: batch limits must be positive");
  check_arg(options_.max_wait_s >= 0.0,
            "ServeScheduler: max_wait_s must be non-negative");
  check_arg(options_.deadline_s > 0.0,
            "ServeScheduler: deadline_s must be positive");
  check_arg(options_.admission_capacity >= 0,
            "ServeScheduler: admission_capacity must be >= 0");
  check_arg(options_.max_retries >= 0,
            "ServeScheduler: max_retries must be >= 0");
  check_arg(options_.retry_backoff_s >= 0.0 &&
                options_.retry_backoff_max_s >= 0.0,
            "ServeScheduler: retry backoff must be non-negative");
  check_arg(options_.exec != DecodeExec::kContinuous ||
                options_.policy == SchedulerPolicy::kIterationLevel,
            "ServeScheduler: kContinuous requires kIterationLevel");
  check_arg(options_.token_budget >= 0 && options_.kv_pages >= 0 &&
                options_.kv_page_size >= 1,
            "ServeScheduler: bad continuous-batching budgets");
  check_arg(options_.admit_scan_limit >= 0,
            "ServeScheduler: admit_scan_limit must be >= 0");
  for (std::size_t i = 0; i < options_.tenants.size(); ++i) {
    const TenantSpec& spec = options_.tenants[i];
    check_arg(spec.weight > 0.0, "ServeScheduler: tenant weight must be > 0");
    check_arg(spec.deadline_s > 0.0,
              "ServeScheduler: tenant deadline_s must be positive");
    check_arg(spec.admission_capacity >= 0,
              "ServeScheduler: tenant admission_capacity must be >= 0");
    check_arg(tenant_index_.emplace(spec.id, static_cast<int>(i)).second,
              "ServeScheduler: duplicate tenant id");
    tenant_deadlines_ |= spec.deadline_s != kInf;
    tenant_admission_ |= spec.admission_capacity > 0;
  }
  service_.assign(options_.tenants.size(), 0.0);
  // -1 = auto: the starvation bound arms itself with tenants (a fair-share
  // pass that can still starve a tenant's joins behind a full batch would
  // be fair in name only) and stays off in legacy mode so historical
  // decision logs are bit-identical.
  if (options_.join_starvation_rounds < 0)
    options_.join_starvation_rounds = options_.tenants.empty() ? 0 : 16;
}

void ServeScheduler::enqueue(QueuedReq entry) {
  // Keep the queue sorted by (eligible, id) so trace replay can submit a
  // whole workload up front in any order; live submissions (arrival = now)
  // land at the back and retries slot in at their backoff-release time.
  auto pos = std::upper_bound(
      queue_.begin(), queue_.end(), entry,
      [](const QueuedReq& a, const QueuedReq& b) {
        return a.eligible_s != b.eligible_s ? a.eligible_s < b.eligible_s
                                            : a.req.id < b.req.id;
      });
  queue_.insert(pos, std::move(entry));
}

void ServeScheduler::submit(const ServeRequest& request) {
  check_arg(!closed_, "ServeScheduler: submit() after close()");
  check_arg(request.prompt_len >= 1 && request.gen_tokens >= 0,
            "ServeScheduler: bad request shape");
  // Ids are single-use for the scheduler's lifetime: back-ends index
  // per-request buffers by id, so reusing a finished request's id would
  // silently alias its slot. The ever-seen set also makes the duplicate
  // check O(1) instead of an O(n) queue scan per submit.
  check_arg(ids_.insert(request.id).second,
            "ServeScheduler: duplicate request id (ids are single-use)");
  check_arg(options_.tenants.empty() ||
                tenant_index_.count(request.tenant_id) > 0,
            "ServeScheduler: request names an unconfigured tenant");
  QueuedReq entry;
  entry.req = request;
  entry.eligible_s = request.arrival_s;
  enqueue(std::move(entry));
}

void ServeScheduler::close() { closed_ = true; }

int ServeScheduler::arrived_count(double now) const {
  int n = 0;
  for (const QueuedReq& r : queue_) {
    if (r.eligible_s > now) break;  // sorted: the rest are in the future
    ++n;
  }
  return n;
}

double ServeScheduler::backoff_s(int attempt) const {
  double b = options_.retry_backoff_s;
  for (int i = 1; i < attempt && b < options_.retry_backoff_max_s; ++i)
    b *= 2.0;
  return std::min(b, options_.retry_backoff_max_s);
}

int ServeScheduler::tenant_idx(int tenant_id) const {
  const auto it = tenant_index_.find(tenant_id);
  return it == tenant_index_.end() ? -1 : it->second;
}

double ServeScheduler::deadline_for(int tenant_id) const {
  const int ti = tenant_idx(tenant_id);
  const double tenant_deadline =
      ti < 0 ? kInf
             : options_.tenants[static_cast<std::size_t>(ti)].deadline_s;
  return std::min(options_.deadline_s, tenant_deadline);
}

void ServeScheduler::charge_service(int tenant_id, double tokens) {
  if (service_.empty()) return;
  const int ti = tenant_idx(tenant_id);
  if (ti >= 0)
    service_[static_cast<std::size_t>(ti)] +=
        tokens / options_.tenants[static_cast<std::size_t>(ti)].weight;
}

void ServeScheduler::clamp_idle_service() {
  if (service_.empty()) return;
  // "Holding rows" = active or parked-for-resume: those tenants' accounts
  // define the system's virtual time. Tenants holding nothing are lifted
  // to the smallest such account so idleness banks no credit.
  std::vector<bool> holds(service_.size(), false);
  for (const ActiveReq& r : active_) {
    const int ti = tenant_idx(r.tenant);
    if (ti >= 0) holds[static_cast<std::size_t>(ti)] = true;
  }
  for (const ActiveReq& r : resume_) {
    const int ti = tenant_idx(r.tenant);
    if (ti >= 0) holds[static_cast<std::size_t>(ti)] = true;
  }
  double floor = kInf;
  for (std::size_t i = 0; i < service_.size(); ++i)
    if (holds[i]) floor = std::min(floor, service_[i]);
  if (floor == kInf) return;  // nobody holds rows: accounts stay put
  for (std::size_t i = 0; i < service_.size(); ++i)
    if (!holds[i]) service_[i] = std::max(service_[i], floor);
}

RequestStats& ServeScheduler::open_record(int id) {
  const auto it = open_.find(id);
  check_arg(it != open_.end(), "ServeScheduler: unknown request id");
  return it->second;
}

ServeScheduler::ActiveReq ServeScheduler::admit(const QueuedReq& q,
                                                double now) {
  const ServeRequest& r = q.req;
  // Admission is *now* — queue delay must not include the prefill pass the
  // back-end is about to run (the old simulator's conflation bug).
  open_.emplace(r.id, stats_for(r, now, q.attempts));
  // Retries re-admit work that was already charged at first admission.
  if (q.attempts == 0) charge_service(r.tenant_id, fresh_cost(r));
  ActiveReq jr;
  jr.id = r.id;
  jr.context = r.prompt_len;
  jr.remaining = r.gen_tokens;
  jr.retries = q.attempts;
  jr.tenant = r.tenant_id;
  jr.cls = r.req_class;
  return jr;
}

void ServeScheduler::finish(RequestStats rs, RequestOutcome outcome,
                            double finish_s) {
  rs.finish_s = finish_s;
  rs.outcome = outcome;
  if (trace_ && TraceSession::enabled()) {
    if (outcome == RequestOutcome::kCompleted)
      trace_request_lifecycle(rs);
    else
      TraceSession::emit_complete("serve", request_outcome_name(outcome),
                                  finish_s + trace_offset_s_, /*dur_s=*/0.0,
                                  trace_pid_, /*tid=*/0, "id",
                                  static_cast<double>(rs.id));
  }
  finished_.push_back(std::move(rs));
}

void ServeScheduler::retire(const ActiveReq& r, RequestOutcome outcome,
                            double finish_s, int retries) {
  const auto it = open_.find(r.id);
  check_arg(it != open_.end(), "ServeScheduler: unknown request id");
  RequestStats rs = std::move(it->second);
  open_.erase(it);
  // A row finishing while parked for resume spent the whole parked
  // interval waiting — the resume-wait account must see it or waits would
  // not sum to wall time.
  rs.resume_wait_s += r.parked_for(finish_s);
  rs.retries = retries;
  finish(std::move(rs), outcome, finish_s);
}

bool ServeScheduler::charge_retry(ActiveReq& r, int& max_attempt) const {
  if (++r.retries > options_.max_retries) return true;
  max_attempt = std::max(max_attempt, r.retries);
  return false;
}

void ServeScheduler::process_arrivals(double now) {
  // Hot path: with no deadline and no admission bound (global or
  // per-tenant) this is a no-op and the decision log matches the
  // fault-oblivious scheduler exactly.
  const bool has_deadline = options_.deadline_s != kInf || tenant_deadlines_;
  const bool has_admission =
      options_.admission_capacity > 0 || tenant_admission_;
  if (!has_deadline && !has_admission) return;
  // Expire first (including retries parked in backoff — their deadline
  // keeps running) so a request is never rejected after it already timed
  // out. Expiry is stamped at arrival + deadline, not now, so results are
  // independent of how often the back-end polls next(). Each request's
  // effective deadline is the tighter of the global and its tenant's.
  if (has_deadline) {
    for (auto it = queue_.begin(); it != queue_.end();) {
      const double expiry =
          it->req.arrival_s + deadline_for(it->req.tenant_id);
      if (expiry <= now) {
        finish(stats_for(it->req, expiry, it->attempts),
               RequestOutcome::kTimedOut, expiry);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (has_admission) {
    int waiting = 0;
    std::vector<int> tenant_waiting(options_.tenants.size(), 0);
    for (const QueuedReq& e : queue_) {
      if (!e.admitted) continue;
      ++waiting;
      const int ti = tenant_idx(e.req.tenant_id);
      if (ti >= 0) ++tenant_waiting[static_cast<std::size_t>(ti)];
    }
    // Fresh arrivals are examined in (arrival, id) order — the queue sort
    // key — so rejection is deterministic and replay-independent. A
    // request is bounced when *either* the global bound or its tenant's
    // own bound is full.
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->admitted) {
        ++it;
        continue;
      }
      if (it->eligible_s > now) break;  // fresh: eligible == arrival
      const int ti = tenant_idx(it->req.tenant_id);
      const int tenant_cap =
          ti < 0 ? 0
                 : options_.tenants[static_cast<std::size_t>(ti)]
                       .admission_capacity;
      const bool global_full = options_.admission_capacity > 0 &&
                               waiting >= options_.admission_capacity;
      const bool tenant_full =
          tenant_cap > 0 &&
          tenant_waiting[static_cast<std::size_t>(ti)] >= tenant_cap;
      if (global_full || tenant_full) {
        finish(stats_for(it->req, it->req.arrival_s, 0),
               RequestOutcome::kRejected, it->req.arrival_s);
        it = queue_.erase(it);
      } else {
        it->admitted = true;
        ++waiting;
        if (ti >= 0) ++tenant_waiting[static_cast<std::size_t>(ti)];
        ++it;
      }
    }
  }
}

void ServeScheduler::expire_active(double now) {
  if (options_.deadline_s == kInf && !tenant_deadlines_) return;
  // Parked rows too: a preempted sequence's deadline keeps running.
  const auto expire = [&](auto& set) {
    for (auto it = set.begin(); it != set.end();) {
      if (open_record(it->id).arrival_s + deadline_for(it->tenant) <= now) {
        retire(*it, RequestOutcome::kTimedOut, now, it->retries);
        it = set.erase(it);
      } else {
        ++it;
      }
    }
  };
  expire(active_);
  expire(resume_);
}

void ServeScheduler::fold_expiry_wakeups(SchedulerAction& a) const {
  if (a.kind != SchedulerAction::Kind::kWait ||
      (options_.deadline_s == kInf && !tenant_deadlines_))
    return;
  for (const QueuedReq& e : queue_)
    a.wait_until = std::min(
        a.wait_until, e.req.arrival_s + deadline_for(e.req.tenant_id));
  const auto fold = [&](const auto& set) {
    for (const ActiveReq& r : set) {
      const auto it = open_.find(r.id);
      if (it != open_.end())
        a.wait_until = std::min(
            a.wait_until, it->second.arrival_s + deadline_for(r.tenant));
    }
  };
  fold(active_);
  fold(resume_);
}

void ServeScheduler::emit_running(DispatchDecision& d) const {
  d.request_ids.reserve(active_.size());
  d.contexts.reserve(active_.size());
  for (const ActiveReq& r : active_) {
    d.request_ids.push_back(r.id);
    d.contexts.push_back(r.context);
    d.tenants.push_back(r.tenant);
    d.classes.push_back(r.cls);
    d.max_context = std::max(d.max_context, r.context);
  }
}

void ServeScheduler::emit_join(DispatchDecision& d, const ActiveReq& r) {
  d.request_ids.push_back(r.id);
  d.contexts.push_back(r.context);
  d.tenants.push_back(r.tenant);
  d.classes.push_back(r.cls);
  d.padded_prompt = std::max(d.padded_prompt, r.context);
  joining_.push_back(r);
}

SchedulerAction ServeScheduler::dispatch(DispatchDecision d, double now) {
  dispatch_now_ = now;
  in_flight_ = true;
  in_flight_seq_ = d.seq;
  if (options_.record_decisions) decision_log_.push_back(d);
  SchedulerAction a;
  a.kind = SchedulerAction::Kind::kDispatch;
  a.decision = std::move(d);
  return a;
}

SchedulerAction ServeScheduler::wait_or_done() const {
  SchedulerAction a;
  if (!queue_.empty()) {  // every queued request is still in the future
    a.kind = SchedulerAction::Kind::kWait;
    a.wait_until = queue_.front().eligible_s;
  } else if (!closed_) {  // live stream: block until submit()/close()
    a.kind = SchedulerAction::Kind::kWait;
    a.wait_until = kInf;
  } else {
    a.kind = SchedulerAction::Kind::kDone;
  }
  return a;
}

DispatchDecision ServeScheduler::make_prefill_decision(double now, int take) {
  DispatchDecision d;
  d.seq = next_seq_++;
  d.phase = ServePhase::kPrefillPass;
  // Which arrived entries join: the queue head `take` times in legacy
  // mode; with tenants, the weighted-fair interleave, so one tenant cannot
  // fill the batch from its own backlog while cheaper tenants wait.
  std::vector<std::size_t> picks;
  picks.reserve(static_cast<std::size_t>(take));
  if (service_.empty()) {
    for (int i = 0; i < take; ++i)
      picks.push_back(static_cast<std::size_t>(i));
  } else {
    clamp_idle_service();
    std::vector<double> eff = service_;
    fair_interleave(
        eff, options_.tenants, static_cast<std::size_t>(arrived_count(now)),
        static_cast<std::size_t>(take),
        [&](std::size_t i) { return tenant_idx(queue_[i].req.tenant_id); },
        [&](std::size_t i) { return fresh_cost(queue_[i].req); },
        [&](std::size_t i) { picks.push_back(i); });
  }
  for (const std::size_t idx : picks) {
    const ActiveReq jr = admit(queue_[idx], now);
    d.padded_gen = std::max(d.padded_gen, jr.remaining);
    emit_join(d, jr);
  }
  erase_at(queue_, std::move(picks));
  return d;
}

void ServeScheduler::enable_trace(std::uint32_t pid, double clock_offset_s) {
  trace_ = true;
  trace_pid_ = pid;
  trace_offset_s_ = clock_offset_s;
  TraceSession::instance().set_track_name(pid, 0, "dispatch");
}

/// Emits the finished request's queue→prefill→decode lifecycle as nested
/// async spans keyed by the request id (scheduler clock + offset). Emitted
/// retrospectively at completion, when every boundary is known — the trace
/// is a rendering of RequestStats, so sim and runtime lifecycles are
/// directly overlayable.
void ServeScheduler::trace_request_lifecycle(const RequestStats& rs) const {
  const double off = trace_offset_s_;
  const auto id = static_cast<std::uint64_t>(rs.id);
  TraceSession::emit_async('b', "request", "queue", rs.arrival_s + off, id,
                           trace_pid_);
  TraceSession::emit_async('e', "request", "queue", rs.admit_s + off, id,
                           trace_pid_);
  const double prefill_end = rs.admit_s + rs.prefill_s;
  if (rs.prefill_s > 0.0) {
    TraceSession::emit_async('b', "request", "prefill", rs.admit_s + off, id,
                             trace_pid_);
    TraceSession::emit_async('e', "request", "prefill", prefill_end + off, id,
                             trace_pid_);
  }
  if (rs.finish_s > prefill_end) {
    TraceSession::emit_async('b', "request", "decode", prefill_end + off, id,
                             trace_pid_);
    TraceSession::emit_async('e', "request", "decode", rs.finish_s + off, id,
                             trace_pid_);
  }
}

SchedulerAction ServeScheduler::next(double now) {
  check_arg(!in_flight_,
            "ServeScheduler: next() called with a dispatch still in flight "
            "(call complete() first)");
  process_arrivals(now);
  if (options_.policy == SchedulerPolicy::kIterationLevel)
    expire_active(now);
  // After a fail() the back-end just recovered (or is recovering); hold
  // every dispatch until the backoff window elapses so a persistent fault
  // does not spin the retry loop.
  if (resume_not_before_ > now &&
      (arrived_count(now) > 0 || !active_.empty() || !resume_.empty())) {
    SchedulerAction a;
    a.kind = SchedulerAction::Kind::kWait;
    a.wait_until = resume_not_before_;
    fold_expiry_wakeups(a);
    return a;
  }
  SchedulerAction a = options_.policy == SchedulerPolicy::kStaticBatching
                          ? next_static(now)
                      : options_.exec == DecodeExec::kContinuous
                          ? next_continuous(now)
                          : next_iteration(now);
  fold_expiry_wakeups(a);
  return a;
}

SchedulerAction ServeScheduler::next_static(double now) {
  const int effective = std::min(options_.batch_size, options_.max_batch);
  const int arrived = arrived_count(now);
  if (arrived == 0) return wait_or_done();
  const double stale_deadline =
      queue_.front().req.arrival_s + options_.max_wait_s;
  if (arrived >= effective || now >= stale_deadline)
    return dispatch(make_prefill_decision(now, std::min(arrived, effective)),
                    now);
  // Not full, not stale: wait for whichever comes first — the next queued
  // arrival or the oldest request going stale. The old simulator waited
  // only for the next arrival, so a tail request with no successor (or a
  // distant one) waited unboundedly instead of dispatching at
  // `arrival + max_wait_s`.
  SchedulerAction a;
  a.kind = SchedulerAction::Kind::kWait;
  a.wait_until = stale_deadline;
  if (arrived < static_cast<int>(queue_.size()))
    a.wait_until = std::min(
        a.wait_until, queue_[static_cast<std::size_t>(arrived)].eligible_s);
  return a;
}

SchedulerAction ServeScheduler::next_iteration(double now) {
  const int capacity = options_.max_batch - static_cast<int>(active_.size());
  const int arrived = arrived_count(now);
  if (arrived > 0 && capacity > 0)
    return dispatch(make_prefill_decision(now, std::min(arrived, capacity)),
                    now);
  if (active_.empty()) return wait_or_done();
  DispatchDecision d;
  d.seq = next_seq_++;
  d.phase = ServePhase::kDecodePass;
  emit_running(d);
  return dispatch(std::move(d), now);
}

std::vector<ServeScheduler::WaitRef> ServeScheduler::order_waiting(
    double now) {
  const std::size_t scan_cap =
      options_.admit_scan_limit > 0
          ? static_cast<std::size_t>(options_.admit_scan_limit)
          : std::numeric_limits<std::size_t>::max();
  std::size_t fresh = 0;
  while (fresh < queue_.size() && fresh < scan_cap &&
         queue_[fresh].eligible_s <= now)
    ++fresh;
  std::vector<WaitRef> order;
  order.reserve(resume_.size() + fresh);
  const auto from_resume = [&](std::size_t i) {
    order.push_back(WaitRef{resume_[i].id, true, i});
  };
  const auto from_queue = [&](std::size_t i) {
    order.push_back(WaitRef{queue_[i].req.id, false, i});
  };
  // Legacy (no tenants): preempted sequences resume first (they hold
  // generated tokens the system already paid for), then arrived fresh
  // requests in queue order — the historical waiting order, bit-for-bit.
  if (service_.empty()) {
    for (std::size_t i = 0; i < resume_.size(); ++i) from_resume(i);
    for (std::size_t i = 0; i < fresh; ++i) from_queue(i);
    return order;
  }
  // Tenant mode: same two bands (resumes still outrank fresh arrivals),
  // each interleaved by ascending virtual-service account, one account
  // carried across both bands. A resume re-feeds its context; a fresh
  // join is charged its whole prompt + gen up front, matching
  // charge_service at admission.
  clamp_idle_service();
  std::vector<double> eff = service_;
  const std::size_t all = std::numeric_limits<std::size_t>::max();
  fair_interleave(
      eff, options_.tenants, resume_.size(), all,
      [&](std::size_t i) { return tenant_idx(resume_[i].tenant); },
      [&](std::size_t i) { return static_cast<double>(resume_[i].context); },
      from_resume);
  fair_interleave(
      eff, options_.tenants, fresh, all,
      [&](std::size_t i) { return tenant_idx(queue_[i].req.tenant_id); },
      [&](std::size_t i) { return fresh_cost(queue_[i].req); }, from_queue);
  return order;
}

SchedulerAction ServeScheduler::next_continuous(double now) {
  CapacityOptions copt;
  copt.max_batch = options_.max_batch;
  copt.token_budget = options_.token_budget;
  copt.kv_page_size = options_.kv_page_size;
  copt.kv_pages = options_.kv_pages;
  const CapacityScheduler cap(copt);

  std::vector<CapacitySeq> running;
  running.reserve(active_.size());
  for (const ActiveReq& r : active_)
    running.push_back(CapacitySeq{r.id, r.context});

  // Waiting list in admission-priority order; a preempted sequence's
  // "context" is its full history — the tokens its resume prefill feeds.
  const std::vector<WaitRef> order = order_waiting(now);
  std::vector<CapacitySeq> waiting;
  waiting.reserve(order.size());
  for (const WaitRef& w : order)
    waiting.push_back(CapacitySeq{
        w.id, w.from_resume ? resume_[w.idx].context
                            : queue_[w.idx].req.prompt_len});

  CapacityPlan plan = cap.plan_round(running, waiting);

  // Starvation bound: every dispatching round that admits nothing while
  // rows wait is one pass-over of the waiting head. After
  // join_starvation_rounds consecutive pass-overs of the *same* head the
  // round is re-planned with force_admit_head, which preempts running
  // rows to make room. Counting rounds (not seconds) keeps the bound
  // clock-free, so sim and runtime trip it at the same decision seq.
  int forced = 0;
  if (options_.join_starvation_rounds > 0 && plan.admit.empty() &&
      !active_.empty() && !waiting.empty()) {
    if (starved_id_ == waiting.front().id) {
      ++starved_rounds_;
    } else {
      starved_id_ = waiting.front().id;
      starved_rounds_ = 1;
    }
    if (starved_rounds_ >= options_.join_starvation_rounds) {
      plan = cap.plan_round(running, waiting, /*force_admit_head=*/true);
      forced = static_cast<int>(plan.admit.size());
      forced_joins_total_ += forced;
    }
  }
  if (!plan.admit.empty()) {
    starved_id_ = -1;
    starved_rounds_ = 0;
  }

  // Nothing runnable now (the planner force-admits the waiting head when
  // the batch is idle, so resume_ must be empty here): wait for the
  // arrival stream, or finish.
  if (plan.admit.empty() && active_.empty()) return wait_or_done();

  DispatchDecision d;
  d.seq = next_seq_++;

  // Evict-to-pending: the planner preempts newest-first, i.e. from the
  // active_ tail. Victims park on resume_ in their original admission
  // order (behind earlier preemptions) so resumption is FIFO-fair. Each
  // victim's park time is stamped so the interval it spends evicted is
  // credited to its resume-wait account on re-admission (or expiry).
  if (!plan.preempt.empty()) {
    std::vector<ActiveReq> victims;
    victims.reserve(plan.preempt.size());
    for (int id : plan.preempt) {
      check_arg(!active_.empty() && active_.back().id == id,
                "ServeScheduler: preemption must pop the newest sequences");
      ActiveReq v = active_.back();
      active_.pop_back();
      v.parked_at = now;
      victims.push_back(v);
    }
    for (auto it = victims.rbegin(); it != victims.rend(); ++it)
      resume_.push_back(*it);
    preemptions_ += static_cast<int>(plan.preempt.size());
    d.preempted = plan.preempt;
  }

  // Continuing rows first, in admission order; joining rows trail.
  d.phase = active_.empty() ? ServePhase::kPrefillPass
                            : ServePhase::kDecodePass;
  emit_running(d);
  // The plan admits a prefix of the waiting list; map each admitted id
  // back to its source (resume deque or arrival queue) through the order
  // refs and erase the picked entries afterwards.
  std::vector<std::size_t> pop_resume;
  std::vector<std::size_t> pop_queue;
  for (std::size_t k = 0; k < plan.admit.size(); ++k) {
    check_arg(k < order.size() && order[k].id == plan.admit[k],
              "ServeScheduler: admission must take a waiting-list prefix");
    const WaitRef& w = order[k];
    if (w.from_resume) {
      ActiveReq jr = resume_[w.idx];
      open_record(jr.id).resume_wait_s += jr.parked_for(now);
      jr.parked_at = -1.0;
      emit_join(d, jr);
      pop_resume.push_back(w.idx);
    } else {
      emit_join(d, admit(queue_[w.idx], now));
      pop_queue.push_back(w.idx);
    }
  }
  d.num_join = static_cast<int>(plan.admit.size());
  d.forced_joins = forced;
  erase_at(resume_, std::move(pop_resume));
  erase_at(queue_, std::move(pop_queue));
  return dispatch(std::move(d), now);
}

void ServeScheduler::complete(const DispatchDecision& decision,
                              double finish_s, double prefill_end_s) {
  check_arg(in_flight_, "ServeScheduler: complete() with nothing in flight");
  check_arg(decision.seq == in_flight_seq_,
            "ServeScheduler: complete() for a decision that is not the "
            "in-flight one");
  in_flight_ = false;

  if (trace_ && TraceSession::enabled())
    TraceSession::emit_complete(
        "serve",
        decision.phase == ServePhase::kPrefillPass ? "prefill-pass"
                                                   : "decode-pass",
        dispatch_now_ + trace_offset_s_,
        std::max(0.0, finish_s - dispatch_now_), trace_pid_, /*tid=*/0,
        "batch", static_cast<double>(decision.request_ids.size()));

  // Continuing rows: a decode-phase round advances every running row by
  // one token and retires the finished. (A prefill-phase round is all
  // joins: the running set is empty in continuous mode and sits the round
  // out in kSession.)
  if (decision.phase == ServePhase::kDecodePass) {
    check_arg(decision.request_ids.size() - joining_.size() == active_.size(),
              "ServeScheduler: completion does not match the running set");
    for (auto it = active_.begin(); it != active_.end();) {
      ++it->context;
      if (--it->remaining <= 0) {
        retire(*it, RequestOutcome::kCompleted, finish_s, it->retries);
        it = active_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Joining rows: the round ran their prefill, which emitted each row's
  // next token — token 1 for a fresh request, the next continuation token
  // for a preempt-resume (the full-history re-prefill samples exactly what
  // the preempted decode step would have, greedy sampling being
  // deterministic). Static batching's bundled padded run is over instead:
  // every row finishes together.
  const bool bundled = options_.policy == SchedulerPolicy::kStaticBatching;
  for (ActiveReq& r : joining_) {
    RequestStats& rs = open_record(r.id);
    if (r.context == rs.prompt_len) {
      // Fresh join: this round was its prefill (resumed rows re-prefill
      // too, but their prefill stat was recorded at first admission).
      const double prefill_end = prefill_end_s >= 0.0 ? prefill_end_s
                                 : bundled           ? rs.admit_s
                                                     : finish_s;
      rs.prefill_s = std::max(0.0, prefill_end - rs.admit_s);
    }
    ++r.context;
    if (--r.remaining <= 0 || bundled)
      retire(r, RequestOutcome::kCompleted, finish_s, r.retries);
    else
      active_.push_back(r);
  }
  joining_.clear();
}

void ServeScheduler::fail(const DispatchDecision& decision, double now) {
  check_arg(in_flight_, "ServeScheduler: fail() with nothing in flight");
  check_arg(decision.seq == in_flight_seq_,
            "ServeScheduler: fail() for a decision that is not the "
            "in-flight one");
  in_flight_ = false;
  int max_attempt = 1;  // backoff window scales with the deepest retry

  // Continuing rows: decode rounds are idempotent at the scheduler level
  // (context and remaining advance only in complete()), so the running set
  // stays resident and the round is retried; rows past the cap leave as
  // kFailed.
  if (decision.phase == ServePhase::kDecodePass) {
    for (auto it = active_.begin(); it != active_.end();) {
      if (charge_retry(*it, max_attempt)) {
        retire(*it, RequestOutcome::kFailed, now, it->retries - 1);
        it = active_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Joining rows committed nothing. The one exec-specific step: a failed
  // continuous join parks at the resume queue's *front* (walked in reverse
  // so the rows keep their relative order) and the retry keeps FIFO
  // fairness — preempted rows already sit on resume_ from decision time
  // and simply stay there. A failed kSession or static join goes back to
  // the queue behind its backoff window, keeping its arrival (deadlines
  // keep running) and its admission (no re-rejection); past the cap it
  // finishes as a request that was never served.
  const bool park = options_.exec == DecodeExec::kContinuous;
  const std::size_t joins = joining_.size();
  for (std::size_t k = 0; k < joins; ++k) {
    ActiveReq& r = joining_[park ? joins - 1 - k : k];
    const bool exhausted = charge_retry(r, max_attempt);
    if (park) {
      if (exhausted) {
        retire(r, RequestOutcome::kFailed, now, r.retries - 1);
      } else {
        r.parked_at = now;  // re-parked: the wait restarts at failure time
        resume_.push_front(r);
      }
      continue;
    }
    const auto it = open_.find(r.id);
    check_arg(it != open_.end(), "ServeScheduler: unknown request id");
    const RequestStats& rs = it->second;
    QueuedReq q;
    q.req.id = rs.id;
    q.req.arrival_s = rs.arrival_s;
    q.req.prompt_len = rs.prompt_len;
    q.req.gen_tokens = rs.gen_tokens;
    q.req.tenant_id = rs.tenant;
    q.req.req_class = rs.req_class;
    open_.erase(it);
    if (exhausted) {
      finish(stats_for(q.req, now, r.retries - 1), RequestOutcome::kFailed,
             now);
      continue;
    }
    q.eligible_s = now + backoff_s(r.retries);
    q.attempts = r.retries;
    q.admitted = true;
    enqueue(std::move(q));
  }
  joining_.clear();
  resume_not_before_ =
      std::max(resume_not_before_, now + backoff_s(max_attempt));
  if (trace_ && TraceSession::enabled())
    TraceSession::emit_complete("serve", "dispatch-failed",
                                now + trace_offset_s_, /*dur_s=*/0.0,
                                trace_pid_, /*tid=*/0, "seq",
                                static_cast<double>(decision.seq));
}

OutcomeCounts ServeScheduler::outcomes() const {
  OutcomeCounts c;
  for (const RequestStats& rs : finished_) {
    switch (rs.outcome) {
      case RequestOutcome::kCompleted:
        ++c.completed;
        break;
      case RequestOutcome::kTimedOut:
        ++c.timed_out;
        break;
      case RequestOutcome::kRejected:
        ++c.rejected;
        break;
      case RequestOutcome::kFailed:
        ++c.failed;
        break;
    }
    c.retries += rs.retries;
  }
  return c;
}

LatencySummary served_latency(const ServeScheduler& scheduler) {
  std::vector<double> latencies;
  for (const RequestStats& r : scheduler.finished())
    if (r.outcome == RequestOutcome::kCompleted)
      latencies.push_back(r.finish_s - r.arrival_s);
  return summarize_latency(std::move(latencies));
}

ServedSummary summarize_served(const ServeScheduler& scheduler,
                               double makespan_s) {
  ServedSummary s;
  std::int64_t tokens_out = 0;
  std::vector<double> queue_delays, prefills;
  for (const RequestStats& r : scheduler.finished()) {
    if (r.outcome != RequestOutcome::kCompleted) continue;
    ++s.completed;
    tokens_out += r.gen_tokens;
    queue_delays.push_back(r.queue_delay_s);
    prefills.push_back(r.prefill_s);
  }
  s.throughput_tokens_per_s =
      makespan_s > 0.0 ? static_cast<double>(tokens_out) / makespan_s : 0.0;
  s.latency = served_latency(scheduler);
  s.queue_delay = summarize_latency(std::move(queue_delays));
  s.prefill = summarize_latency(std::move(prefills));
  s.outcomes = scheduler.outcomes();
  return s;
}

}  // namespace llmpq
