// ThreadPool stress suite: the parallel_for job board under concurrent
// callers, nesting, failures and teardown. Built into the common test
// binary, so scripts/check_sanitizers.sh runs it under ASan+UBSan and TSan
// (a stack-allocated job descriptor read after its caller returned shows
// up there as a use-after-scope or a data race).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace llmpq {
namespace {

// Sum of f(i) for i in [0, n) via parallel_for, checking each index ran
// exactly once.
std::size_t covered_sum(ThreadPool& pool, std::size_t n) {
  std::vector<std::atomic<int>> hits(n);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  for (const auto& h : hits)
    if (h.load() != 1) return 0;
  return sum.load();
}

TEST(ThreadPoolStress, ConcurrentCallersShareOnePool) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 300;
  std::atomic<int> bad{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const std::size_t n = 1 + static_cast<std::size_t>((r * 7 + t) % 97);
        if (covered_sum(pool, n) != n * (n - 1) / 2 && n > 1) ++bad;
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPoolStress, MoreCallersThanBoardSlotsStillComplete) {
  // Callers past the board's capacity run their loop alone; every call
  // must still cover its range exactly once.
  ThreadPool pool(2);
  constexpr int kCallers = 12;
  std::atomic<int> bad{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int r = 0; r < 50; ++r)
        if (covered_sum(pool, 40) != 40 * 39 / 2) ++bad;
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPoolStress, NestedParallelForFromBody) {
  ThreadPool pool(4);
  std::atomic<int> bad{0};
  for (int r = 0; r < 20; ++r) {
    pool.parallel_for(8, [&](std::size_t) {
      if (covered_sum(pool, 33) != 33 * 32 / 2) ++bad;
    });
  }
  EXPECT_EQ(bad.load(), 0);
  // From a submitted task (a worker thread) too.
  auto fut = pool.submit([&] { return covered_sum(pool, 50); });
  EXPECT_EQ(fut.get(), 50u * 49u / 2u);
}

TEST(ThreadPoolStress, ThrowingJobBesideCleanOne) {
  ThreadPool pool(4);
  for (int r = 0; r < 50; ++r) {
    std::atomic<int> clean_bad{0};
    std::string thrown;
    std::thread clean([&] {
      if (covered_sum(pool, 200) != 200 * 199 / 2) ++clean_bad;
    });
    try {
      pool.parallel_for(200, [&](std::size_t i) {
        if (i == 17) throw std::runtime_error("job " + std::to_string(r));
      });
    } catch (const std::runtime_error& e) {
      thrown = e.what();
    }
    clean.join();
    EXPECT_EQ(thrown, "job " + std::to_string(r));
    EXPECT_EQ(clean_bad.load(), 0);
  }
  // The pool stays usable after failures.
  EXPECT_EQ(covered_sum(pool, 100), 100u * 99u / 2u);
}

TEST(ThreadPoolStress, ParkedWorkersWakeForTheNextJob) {
  ThreadPool pool(4);
  EXPECT_EQ(covered_sum(pool, 64), 64u * 63u / 2u);
  // Well past the spin window: every worker is parked on the condvar.
  std::this_thread::sleep_for(ThreadPool::kWorkerSpin * 20);
  std::mutex mu;
  std::set<std::thread::id> ids;
  // 64 ms of sleeping blocks: ample time for a woken worker to join.
  pool.parallel_for(32, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GT(ids.size(), 1u);
}

TEST(ThreadPoolStress, DestroyWhileWorkersSpin) {
  for (int r = 0; r < 50; ++r) {
    ThreadPool pool(3);
    EXPECT_EQ(covered_sum(pool, 30), 30u * 29u / 2u);
    // Destructor runs inside the spin window.
  }
}

TEST(ThreadPoolStress, DestroyWhileWorkersParked) {
  for (int r = 0; r < 3; ++r) {
    ThreadPool pool(3);
    EXPECT_EQ(covered_sum(pool, 30), 30u * 29u / 2u);
    std::this_thread::sleep_for(ThreadPool::kWorkerSpin * 20);
  }
  ThreadPool idle(2);  // never used: parked from the start
  std::this_thread::sleep_for(ThreadPool::kWorkerSpin * 20);
}

TEST(ThreadPoolStress, ShutdownDrainsQueuedTasksAndParallelForRunsInline) {
  ThreadPool pool(2);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 64; ++i) futs.push_back(pool.submit([i] { return i; }));
  pool.shutdown();
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futs[i].get(), i);
  EXPECT_EQ(covered_sum(pool, 25), 25u * 24u / 2u);
}

}  // namespace
}  // namespace llmpq
