#include "common/thread_pool.hpp"

#include <cstdlib>
#include <exception>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

namespace llmpq {

namespace {

thread_local bool t_inside_worker = false;

/// One polling step of a spin-wait: a pause hint on x86 (frees the core's
/// sibling hyperthread and avoids the memory-order flush on exit), a
/// yield elsewhere.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

using Clock = std::chrono::steady_clock;

/// Polls `done` for up to `window`; true once it holds. Between ~1 us
/// bursts of pause-polling the thread yields its core: when the pool is
/// oversubscribed (workers plus callers outnumber cores, or the scheduler
/// stacked a woken worker onto its waker's core) a pure spin would starve
/// the very thread it is waiting for.
template <typename Done>
bool spin_until(Done&& done, std::chrono::microseconds window) {
  const Clock::time_point until = Clock::now() + window;
  for (;;) {
    for (int i = 0; i < 16; ++i) {
      if (done()) return true;
      cpu_relax();
    }
    if (Clock::now() >= until) return done();
    std::this_thread::yield();
  }
}

}  // namespace

/// A parallel_for call's descriptor, on the caller's stack for the call.
struct ThreadPool::Job {
  Body body = nullptr;
  const void* ctx = nullptr;
  std::size_t n = 0;
  std::size_t chunks = 0;
  std::size_t per = 0;
  alignas(64) std::atomic<std::size_t> next{0};
  // Short-circuits surviving threads once any body throws: without it a
  // failed parallel_for still ran every remaining chunk to completion
  // before rethrowing, turning one bad element into a full sweep of
  // doomed (possibly equally-throwing or corrupt-state) work. Relaxed
  // ordering suffices — the flag is a go/no-go hint; the error itself is
  // published under the mutex and by the slot's user count.
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
};

namespace {

/// CPUs the constructing thread may run on, in id order (empty where the
/// platform has no affinity API).
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
#endif
  return cpus;
}

/// Binds the calling thread to `cpu`; best effort (a failure leaves the
/// thread floating, which costs speed, not correctness).
void bind_to_cpu(int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
#else
  (void)cpu;
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  // Worker i is bound to the i-th allowed CPU (round-robin). The kernel
  // may place a thread woken through a condvar on its waker's core; on
  // the 4-core VM this pool was measured on, every worker woken by one
  // caller piled onto the caller's core and the fork/join ran serially.
  // Bound, each worker wakes on its own core.
  const std::vector<int> cpus = allowed_cpus();
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    const int cpu = cpus.empty() ? -1 : cpus[i % cpus.size()];
    workers_.emplace_back([this, cpu] {
      if (cpu >= 0) bind_to_cpu(cpu);
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_seq_cst);
  }
  wake_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("LLMPQ_THREADS")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n >= 1) return static_cast<std::size_t>(n);
    }
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }());
  return pool;
}

bool ThreadPool::inside_worker() { return t_inside_worker; }

bool ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_.load(std::memory_order_relaxed)) return false;
    tasks_.push_back(std::move(task));
    queued_.fetch_add(1, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_seq_cst);
  }
  wake_.notify_one();
  return true;
}

void ThreadPool::run_chunks(Job& job) {
  for (;;) {
    if (job.failed.load(std::memory_order_relaxed)) return;
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.chunks) return;
    const std::size_t lo = c * job.per;
    const std::size_t hi = std::min(job.n, lo + job.per);
    for (std::size_t i = lo; i < hi; ++i) {
      if (job.failed.load(std::memory_order_relaxed)) return;
      try {
        job.body(job.ctx, i);
      } catch (...) {
        job.failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.first_error) job.first_error = std::current_exception();
      }
    }
  }
}

bool ThreadPool::help_jobs() {
  bool ran = false;
  for (Slot& s : slots_) {
    if (s.job.load(std::memory_order_relaxed) == nullptr) continue;
    // Register before dereferencing: the owner clears `job` and then waits
    // for `users` to drain, so a Job read after this increment outlives
    // its use here (both sides are seq_cst, Dekker-style).
    s.users.fetch_add(1, std::memory_order_seq_cst);
    Job* job = s.job.load(std::memory_order_seq_cst);
    if (job != nullptr &&
        job->next.load(std::memory_order_relaxed) < job->chunks &&
        !job->failed.load(std::memory_order_relaxed)) {
      run_chunks(*job);
      ran = true;
    }
    if (s.users.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        s.owner_parked.load(std::memory_order_seq_cst)) {
      { std::lock_guard<std::mutex> lock(mu_); }
      done_.notify_all();
    }
  }
  return ran;
}

void ThreadPool::worker_loop() {
  t_inside_worker = true;
  for (;;) {
    // Drain: everything published before `seen` is handled once this
    // loop finds nothing to do.
    std::uint64_t seen = 0;
    for (;;) {
      seen = epoch_.load(std::memory_order_acquire);
      bool ran = help_jobs();
      if (queued_.load(std::memory_order_relaxed) > 0) {
        std::function<void()> task;
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (!tasks_.empty()) {
            task = std::move(tasks_.front());
            tasks_.pop_front();
            queued_.fetch_sub(1, std::memory_order_relaxed);
          }
        }
        if (task) {
          task();
          ran = true;
        }
      }
      if (!ran) break;
    }
    if (stop_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(mu_);
      if (tasks_.empty()) return;
      continue;
    }
    // Spin, then park.
    if (spin_until([&] {
          return epoch_.load(std::memory_order_relaxed) != seen;
        }, kWorkerSpin))
      continue;
    std::unique_lock<std::mutex> lock(mu_);
    parked_.fetch_add(1, std::memory_order_seq_cst);
    wake_.wait(lock, [&] {
      return epoch_.load(std::memory_order_seq_cst) != seen;
    });
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ThreadPool::run_job(std::size_t n, Body body, const void* ctx) {
  if (n == 0) return;
  Job job;
  job.body = body;
  job.ctx = ctx;
  job.n = n;
  job.chunks = std::min(n, std::max<std::size_t>(1, workers_.size()) * 4);
  job.per = (n + job.chunks - 1) / job.chunks;

  Slot* slot = nullptr;
  if (job.chunks > 1 && !workers_.empty() &&
      !stop_.load(std::memory_order_relaxed)) {
    for (Slot& s : slots_) {
      if (!s.owned.load(std::memory_order_relaxed) &&
          !s.owned.exchange(true, std::memory_order_acquire)) {
        slot = &s;
        break;
      }
    }
  }
  if (slot != nullptr) {
    // Publish, then wake parked workers. A worker parks by raising
    // `parked_` and re-reading the epoch under mu_; both sides are
    // seq_cst, so either it sees the new epoch or this load sees it
    // parked, and taking mu_ before the notify orders it after the
    // worker's predicate check.
    slot->job.store(&job, std::memory_order_seq_cst);
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) > 0) {
      { std::lock_guard<std::mutex> lock(mu_); }
      wake_.notify_all();
    }
  }
  run_chunks(job);  // the caller participates
  if (slot != nullptr) {
    // Unpublish, then wait for every thread that may still hold the
    // descriptor: those running a chunk and those that read the slot just
    // before it was cleared.
    slot->job.store(nullptr, std::memory_order_seq_cst);
    if (!spin_until([&] {
          return slot->users.load(std::memory_order_acquire) == 0;
        }, kCallerSpin)) {
      slot->owner_parked.store(true, std::memory_order_seq_cst);
      std::unique_lock<std::mutex> lock(mu_);
      done_.wait(lock, [&] {
        return slot->users.load(std::memory_order_seq_cst) == 0;
      });
      slot->owner_parked.store(false, std::memory_order_relaxed);
    }
    slot->owned.store(false, std::memory_order_release);
  }
  if (job.first_error) std::rethrow_exception(job.first_error);
}

}  // namespace llmpq
