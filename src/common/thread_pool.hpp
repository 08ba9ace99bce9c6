#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace llmpq {

/// Fixed-size thread pool used for embarrassingly parallel sweeps (profiling
/// grids, per-ordering planner solves) and the threaded qgemm kernel.
///
/// Two entry points share the workers:
///   * submit() queues a type-erased closure and returns its future;
///   * parallel_for() is a low-latency fork/join for indexed loops. A call
///     publishes one job descriptor that lives on the caller's stack in a
///     slot of a fixed job board (no heap allocation, no future, no
///     per-call condvar wake when the workers are still spinning). Workers
///     and the caller claim chunks of the index range through one atomic
///     counter.
///
/// Idle workers poll for kWorkerSpin after their last chunk (decode issues
/// a fork/join every few microseconds, so a hot worker joins the next job
/// within a microsecond), then park on a condvar. The window is bounded,
/// and polling yields the core between short pause bursts, because a
/// polling worker holds a core that a pipeline-stage thread or a planner
/// chunk may need. Worker i is bound to the i-th CPU the constructing
/// thread may run on, so a condvar wake cannot stack every worker onto
/// the waking caller's core (see DESIGN.md "Thread topology").
class ThreadPool {
 public:
  /// How long an idle worker polls the job board before it parks.
  static constexpr std::chrono::microseconds kWorkerSpin{100};
  /// How long a parallel_for caller whose own chunks are done polls for
  /// the workers still running theirs before it blocks. Short: planner
  /// chunks run for milliseconds, and a fifth thread spinning on a
  /// 4-core host would slow them.
  static constexpr std::chrono::microseconds kCallerSpin{20};

  explicit ThreadPool(std::size_t num_threads =
                          std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Process-wide pool shared by every pipeline stage and planner sweep
  /// (lazily created; sized from LLMPQ_THREADS or hardware_concurrency).
  /// Sharing one pool keeps total CPU oversubscription bounded no matter
  /// how many stages call into threaded kernels concurrently.
  static ThreadPool& shared();

  /// Throws Error if the pool has been shut down — a dropped task whose
  /// future never becomes ready would deadlock the caller otherwise.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    if (!enqueue([task] { (*task)(); }))
      throw Error("ThreadPool::submit: pool has been shut down");
    return fut;
  }

  /// Runs fn(i) for i in [0, n) across the pool; blocks until all complete.
  /// Exceptions from fn propagate (the first one observed is rethrown) and
  /// stop the remaining indices early. The calling thread participates, so
  /// concurrent calls from several threads — and nested calls from inside
  /// a body — each make progress on their own. When every job-board slot
  /// is taken, or the pool is shut down, the caller runs the loop alone.
  template <typename F>
  void parallel_for(std::size_t n, F&& fn) {
    using Fn = std::remove_reference_t<F>;
    run_job(n,
            [](const void* ctx, std::size_t i) {
              (*static_cast<Fn*>(const_cast<void*>(ctx)))(i);
            },
            static_cast<const void*>(std::addressof(fn)));
  }

  /// Stops accepting tasks, drains the queue and joins the workers.
  /// Idempotent; called by the destructor. Subsequent submit() calls throw.
  void shutdown();

  /// True when the calling thread is a pool worker (of any ThreadPool).
  /// Nested parallel kernels use this to stay serial inside a chunk
  /// rather than fanning out a second time over the same cores.
  static bool inside_worker();

 private:
  using Body = void (*)(const void* ctx, std::size_t i);
  struct Job;

  /// One job-board entry. `users` counts the workers that may dereference
  /// `job`; the owner clears `job` and waits for `users` to reach zero
  /// before its stack-allocated Job goes out of scope.
  struct alignas(64) Slot {
    std::atomic<bool> owned{false};  ///< held by one caller for its call
    std::atomic<Job*> job{nullptr};
    std::atomic<std::uint32_t> users{0};
    std::atomic<bool> owner_parked{false};
  };
  /// Concurrent parallel_for calls the board holds at once (two stage
  /// threads, the planner and a nested level each, with headroom).
  static constexpr std::size_t kSlots = 8;

  void run_job(std::size_t n, Body body, const void* ctx);
  static void run_chunks(Job& job);
  /// Joins every published job with chunks left; true if any work ran.
  bool help_jobs();
  bool enqueue(std::function<void()> task);
  void worker_loop();

  std::array<Slot, kSlots> slots_;
  /// Bumped on every publish, submit and shutdown: the spinning worker's
  /// "something changed" signal.
  alignas(64) std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint32_t> parked_{0};
  std::atomic<bool> stop_{false};

  std::mutex mu_;                 ///< guards tasks_ and the park/wake
  std::condition_variable wake_;  ///< parked workers
  std::condition_variable done_;  ///< parked parallel_for owners
  std::deque<std::function<void()>> tasks_;
  std::atomic<std::size_t> queued_{0};
  std::vector<std::thread> workers_;
};

}  // namespace llmpq
