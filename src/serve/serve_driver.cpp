#include "serve/serve_driver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/trace.hpp"

namespace llmpq {

void VirtualClock::wait(double until, double) {
  check_arg(std::isfinite(until),
            "ServeDriver: scheduler blocked on a closed stream");
  t_ = std::max(t_, until);
}

void WallClock::wait(double until, double now) {
  // Either block for new submissions (unbounded wait) or sleep until the
  // scheduler's deadline — the stale timer that bounds a lone request's
  // wait at arrival + max_wait_s, or a retry-backoff or request-deadline
  // wakeup. Submissions wake us early.
  if (std::isinf(until))
    cv_.wait(lock_);
  else
    cv_.wait_for(lock_, std::chrono::duration<double>(
                            std::max(1e-4, until - now)));
}

ServeDriver::ServeDriver(ServeScheduler& scheduler,
                         const std::optional<HealthMonitorOptions>& health,
                         bool replan, double metrics_interval_s)
    : scheduler_(scheduler),
      replan_(replan),
      metrics_interval_s_(metrics_interval_s) {
  if (health) monitor_.emplace(*health);
}

void ServeDriver::run(ServeClock& clock, ServeExecutor& exec) {
  for (;;) {
    const double now = clock.now();
    SchedulerAction a = scheduler_.next(now);
    // Deadline expiry inside next() can finish requests.
    exec.settle(scheduler_);
    TRACE_COUNTER("serve", "pending", scheduler_.pending());
    if (a.kind == SchedulerAction::Kind::kDone) return;
    if (a.kind == SchedulerAction::Kind::kWait) {
      clock.wait(a.wait_until, now);
      continue;
    }
    const DispatchDecision d = std::move(a.decision);
    exec.prepare(d);
    clock.release();
    DispatchResult r = exec.execute(d, clock.now());
    clock.reacquire();
    if (!r.ok) {
      // Hand the failed dispatch back to the scheduler (retry with
      // backoff, kFailed past the cap), then let the back-end recover.
      scheduler_.fail(d, clock.advance(r.end_s));
      exec.recover();
      exec.settle(scheduler_);
      continue;
    }
    exec.commit(d);
    const double finish = clock.advance(r.end_s);
    scheduler_.complete(d, finish, r.prefill_end_s);
    exec.settle(scheduler_);
    last_finish_s_ = finish;
    control(d, r, exec);
    if (finish - last_metrics_s_ >= metrics_interval_s_) {
      last_metrics_s_ = finish;
      exec.export_metrics(*this);
    }
  }
}

void ServeDriver::control(const DispatchDecision& d, DispatchResult& r,
                          ServeExecutor& exec) {
  if (!monitor_) return;
  HealthSample sample;
  sample.seq = d.seq;
  sample.dispatch_s = r.dispatch_s;
  sample.stage_busy_s = std::move(r.stage_busy_s);
  sample.queue_depth = scheduler_.pending();
  sample.preemptions = scheduler_.preemptions();
  sample.mem_faults = exec.mem_faults();
  const HealthVerdict verdict = monitor_->observe(sample);
  if (verdict.healthy() || !replan_) return;
  ReplanEvent ev;
  ev.at_seq = verdict.at_seq;
  ev.status = verdict.status;
  ev.bottleneck_stage = verdict.bottleneck_stage;
  ev.severity = verdict.severity;
  replans_.push_back(ev);
  // The event is logged before the executor applies the move, so a
  // rejected replacement still shows up in the final metrics snapshot.
  exec.replan(verdict, replans_.back());
  if (replans_.back().applied) ++migrations_;
}

}  // namespace llmpq
