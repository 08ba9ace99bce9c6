#pragma once

#include <condition_variable>
#include <limits>
#include <mutex>
#include <optional>
#include <vector>

#include "common/metrics.hpp"
#include "serve/health.hpp"
#include "serve/scheduler.hpp"

namespace llmpq {

/// The one serving loop (DESIGN.md "Online serving"). Every back-end — the
/// live `OnlineEngine`, `serve_trace` replay and `simulate_online` — runs
/// the same steps in the same order:
///
///   next -> wait or dispatch -> fail + recover | complete
///        -> health sample -> replan -> metrics
///
/// and differs only in two parameters: a ServeClock (the wall clock under
/// the live lock, or a virtual clock advanced by measured or modelled cost)
/// and a ServeExecutor (the real PipelineEngine, or the roofline model).
/// Decision parity between the back-ends therefore holds by construction:
/// the scheduler calls, the health samples and the ReplanEvent log are
/// written once, here. The driver lives in llmpq_sched so the simulator
/// can share it without linking the threaded runtime.

/// What an executor reports for one dispatch.
struct DispatchResult {
  bool ok = true;  ///< false: the dispatch failed (ServeExecutor::recover)
  /// When the dispatch ended, computed from its start time by the
  /// executor's own clock arithmetic (the wall clock reads itself instead).
  double end_s = 0.0;
  double prefill_end_s = -1.0;  ///< ServeScheduler::complete's prefill end
  double dispatch_s = 0.0;      ///< HealthSample::dispatch_s
  std::vector<double> stage_busy_s;  ///< HealthSample::stage_busy_s
};

class ServeClock {
 public:
  virtual ~ServeClock() = default;
  virtual double now() = 0;
  /// Nothing to dispatch before `until` (+inf: until new work); `now` is
  /// the reading the scheduler was asked at.
  virtual void wait(double until, double now) = 0;
  /// Bracket each dispatch (the wall clock drops its lock).
  virtual void release() {}
  virtual void reacquire() {}
  /// The clock time a dispatch with this `end_s` ended at.
  virtual double advance(double end_s) = 0;
};

/// Virtual clock: arrivals and waits jump it forward, and each dispatch
/// advances it to the end time its executor reports.
class VirtualClock final : public ServeClock {
 public:
  double now() override { return t_; }
  void wait(double until, double now) override;
  double advance(double end_s) override { return t_ = end_s; }

 private:
  double t_ = 0.0;
};

/// Wall clock of the live loop: `lock` guards the scheduler and request
/// tables and is held except while waiting or dispatching; submissions
/// wake the wait through `cv`.
class WallClock final : public ServeClock {
 public:
  WallClock(const StopwatchNs& clock, std::unique_lock<std::mutex>& lock,
            std::condition_variable& cv)
      : clock_(clock), lock_(lock), cv_(cv) {}
  double now() override { return clock_.elapsed_s(); }
  void wait(double until, double now) override;
  void release() override { lock_.unlock(); }
  void reacquire() override { lock_.lock(); }
  double advance(double) override { return now(); }

 private:
  const StopwatchNs& clock_;
  std::unique_lock<std::mutex>& lock_;
  std::condition_variable& cv_;
};

class ServeDriver;

/// Runs dispatches for the driver. Only execute() runs without the clock's
/// lock; every other hook runs with the request tables stable.
class ServeExecutor {
 public:
  virtual ~ServeExecutor() = default;
  /// Snapshots the decision's inputs before the lock is released.
  virtual void prepare(const DispatchDecision&) {}
  /// Runs the decision from clock time `start`. Reports a failure in the
  /// result instead of throwing.
  virtual DispatchResult execute(const DispatchDecision& d, double start) = 0;
  /// Keeps a successful dispatch's output (before complete()).
  virtual void commit(const DispatchDecision&) {}
  /// After a failed dispatch went back to the scheduler: repairs the
  /// back-end, or throws the error that ends the run.
  virtual void recover() {}
  /// After the scheduler's state moved: frees what finished requests held.
  virtual void settle(const ServeScheduler&) {}
  /// Cumulative allocation faults (HealthSample::mem_faults).
  virtual int mem_faults() const { return 0; }
  /// Answers a non-healthy verdict: fills `ev.delta` and `ev.applied` and,
  /// when applied, switches the back-end to the repaired plan. May throw.
  virtual void replan(const HealthVerdict&, ReplanEvent&) {}
  /// Writes a metrics snapshot of `driver`'s state.
  virtual void export_metrics(const ServeDriver&) {}
};

class ServeDriver {
 public:
  /// `health` arms one health sample per completed dispatch; `replan`
  /// additionally hands non-healthy verdicts to ServeExecutor::replan.
  /// export_metrics() runs whenever `metrics_interval_s` of clock time
  /// passed since the last export (infinity: never).
  ServeDriver(ServeScheduler& scheduler,
              const std::optional<HealthMonitorOptions>& health, bool replan,
              double metrics_interval_s =
                  std::numeric_limits<double>::infinity());

  /// Serves until the scheduler reports done. Exceptions from recover()
  /// and replan() end the run and propagate.
  void run(ServeClock& clock, ServeExecutor& exec);

  const ServeScheduler& scheduler() const { return scheduler_; }
  /// Null when health sampling is off.
  const HealthMonitor* monitor() const {
    return monitor_ ? &*monitor_ : nullptr;
  }
  const std::vector<ReplanEvent>& replans() const { return replans_; }
  int migrations() const { return migrations_; }
  /// Clock time of the last completed dispatch.
  double last_finish_s() const { return last_finish_s_; }

 private:
  void control(const DispatchDecision& d, DispatchResult& r,
               ServeExecutor& exec);

  ServeScheduler& scheduler_;
  std::optional<HealthMonitor> monitor_;
  bool replan_ = false;
  double metrics_interval_s_;
  double last_metrics_s_ = 0.0;
  double last_finish_s_ = 0.0;
  std::vector<ReplanEvent> replans_;
  int migrations_ = 0;
};

}  // namespace llmpq
