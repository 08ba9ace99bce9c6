#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "common/rng.hpp"
#include "solver/dp_partition.hpp"
#include "solver/mckp.hpp"
#include "solver/milp.hpp"

namespace llmpq {
namespace {

TEST(Milp, SolvesKnapsack) {
  // max 8a + 11b + 6c + 4d  s.t. 5a + 7b + 4c + 3d <= 14, binary.
  // Optimum: a + c + d = 18? check combos: b+c+d = 11+6+4=21 w=14 feasible.
  LpProblem lp;
  const double values[] = {8, 11, 6, 4};
  const double weights[] = {5, 7, 4, 3};
  std::vector<std::pair<int, double>> row;
  MilpProblem p;
  for (int i = 0; i < 4; ++i) {
    const int v = p.lp.add_binary(-values[i]);
    p.integer_vars.push_back(v);
    row.push_back({v, weights[i]});
  }
  p.lp.add_row(std::move(row), LpProblem::RowType::kLe, 14.0);
  const MilpSolution s = solve_milp(p);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -21.0, 1e-6);
  EXPECT_NEAR(s.x[1] + s.x[2] + s.x[3], 3.0, 1e-6);
  // Exhausted search: the dual bound collapses to the incumbent, not the
  // (looser) root relaxation.
  EXPECT_NEAR(s.best_bound, s.objective, 1e-6);
}

TEST(Milp, TruncatedSearchReportsTightenedBound) {
  // 24-var knapsack, truncated after a few nodes: the bound must come from
  // the explored frontier — finite, at least the root relaxation, and
  // never above the incumbent.
  MilpProblem p;
  Rng rng(5);
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < 24; ++i) {
    const int v = p.lp.add_binary(-rng.uniform(1.0, 2.0));
    p.integer_vars.push_back(v);
    row.push_back({v, rng.uniform(1.0, 3.0)});
  }
  p.lp.add_row(std::move(row), LpProblem::RowType::kLe, 10.0);
  MilpOptions opt;
  opt.max_nodes = 5;
  opt.warm_start = std::vector<double>(24, 0.0);
  const MilpSolution s = solve_milp(p, opt);
  ASSERT_EQ(s.status, MilpStatus::kFeasible);
  EXPECT_GT(s.best_bound, -1e29);  // not the -inf sentinel
  EXPECT_LE(s.best_bound, s.objective + 1e-9);

  // The same problem solved to optimality proves the truncated bound was
  // genuinely a lower bound on the optimum.
  const MilpSolution full = solve_milp(p);
  ASSERT_EQ(full.status, MilpStatus::kOptimal);
  EXPECT_LE(s.best_bound, full.objective + 1e-9);
  EXPECT_NEAR(full.best_bound, full.objective, 1e-6);
}

TEST(Milp, InfeasibleIntegerProblem) {
  // 2x = 1 with x binary has no integral solution.
  MilpProblem p;
  const int x = p.lp.add_binary(1.0);
  p.integer_vars.push_back(x);
  p.lp.add_row({{x, 2.0}}, LpProblem::RowType::kEq, 1.0);
  EXPECT_EQ(solve_milp(p).status, MilpStatus::kInfeasible);
}

TEST(Milp, WarmStartPrunesToSameOptimum) {
  // Assignment-like problem; warm start with the known optimum.
  MilpProblem p;
  // 3 items, 2 slots, cost c[i][j]; each item in exactly one slot.
  const double cost[3][2] = {{1, 4}, {3, 2}, {5, 1}};
  int var[3][2];
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 2; ++j) {
      var[i][j] = p.lp.add_binary(cost[i][j]);
      p.integer_vars.push_back(var[i][j]);
    }
  for (int i = 0; i < 3; ++i)
    p.lp.add_row({{var[i][0], 1.0}, {var[i][1], 1.0}},
                 LpProblem::RowType::kEq, 1.0);
  MilpOptions opt;
  std::vector<double> warm(6, 0.0);
  warm[0] = 1.0;  // item0 slot0
  warm[3] = 1.0;  // item1 slot1
  warm[5] = 1.0;  // item2 slot1
  opt.warm_start = warm;
  const MilpSolution s = solve_milp(p, opt);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0 + 2.0 + 1.0, 1e-6);
}

TEST(Milp, TimeLimitReturnsIncumbent) {
  MilpProblem p;
  Rng rng(5);
  // A 24-var knapsack with a tight budget; zero time limit forces the warm
  // start to be returned as-is.
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < 24; ++i) {
    const int v = p.lp.add_binary(-rng.uniform(1.0, 2.0));
    p.integer_vars.push_back(v);
    row.push_back({v, rng.uniform(1.0, 3.0)});
  }
  p.lp.add_row(std::move(row), LpProblem::RowType::kLe, 10.0);
  MilpOptions opt;
  opt.time_limit_s = 0.0;
  opt.warm_start = std::vector<double>(24, 0.0);  // all-zero is feasible
  const MilpSolution s = solve_milp(p, opt);
  EXPECT_EQ(s.status, MilpStatus::kFeasible);
  EXPECT_NEAR(s.objective, 0.0, 1e-9);
}

TEST(DpPartition, MinMaxSplitsEvenCosts) {
  // 8 layers, 2 identical devices, unit cost per layer -> 4/4 split.
  const auto cost = [](int b, int e, int) {
    return static_cast<double>(e - b);
  };
  const PartitionResult r = partition_min_max(8, 2, cost);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.objective, 4.0);
  EXPECT_EQ(r.boundaries, (std::vector<int>{0, 4, 8}));
}

TEST(DpPartition, RespectsDeviceSpeedDifferences) {
  // Device 0 is 3x slower: it should receive ~1/4 of the layers.
  const auto cost = [](int b, int e, int dev) {
    return static_cast<double>(e - b) * (dev == 0 ? 3.0 : 1.0);
  };
  const PartitionResult r = partition_min_max(12, 2, cost);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.boundaries[1], 3);  // 3*3 == 9*1
}

TEST(DpPartition, InfeasibleStageCostPropagates) {
  const auto cost = [](int b, int e, int dev) {
    if (dev == 0 && e - b > 2) return std::numeric_limits<double>::infinity();
    return static_cast<double>(e - b);
  };
  const PartitionResult r = partition_min_max(10, 2, cost);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.boundaries[1], 2);
}

TEST(DpPartition, TotallyInfeasibleReturnsFalse) {
  const auto cost = [](int, int, int) {
    return std::numeric_limits<double>::infinity();
  };
  EXPECT_FALSE(partition_min_max(4, 2, cost).feasible);
}

TEST(DpPartition, MinSumMatchesGreedyOnSeparableCosts) {
  // With per-layer separable costs, min-sum equals assigning each layer to
  // where it is cheapest subject to contiguity; here device 1 cheaper for
  // everything, so it should take all layers.
  const auto cost = [](int b, int e, int dev) {
    return static_cast<double>(e - b) * (dev == 0 ? 2.0 : 1.0);
  };
  const PartitionResult r = partition_min_sum(6, 2, cost);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.objective, 6.0);
  EXPECT_EQ(r.boundaries[1], 0);
}

TEST(Milp, SharedIncumbentSeededAtOptimumIsNotPruned) {
  // Tie-safety of the cross-solver incumbent pool: pruning is *strictly*
  // greater-than, so seeding the shared value with the exact optimum must
  // not prune the subtree containing it — the solver still returns it.
  MilpProblem p;
  const int x0 = p.lp.add_binary(1.0);
  const int x1 = p.lp.add_binary(2.0);
  p.integer_vars = {x0, x1};
  p.lp.add_row({{x0, 1.0}, {x1, 1.0}}, LpProblem::RowType::kGe, 1.0);
  std::atomic<double> incumbent{1.0};  // the known optimum (x0 = 1)
  MilpOptions opt;
  opt.shared_incumbent = &incumbent;
  const MilpSolution s = solve_milp(p, opt);
  ASSERT_TRUE(s.status == MilpStatus::kOptimal ||
              s.status == MilpStatus::kFeasible);
  EXPECT_NEAR(s.objective, 1.0, 1e-6);
  EXPECT_NEAR(s.x[static_cast<std::size_t>(x0)], 1.0, 1e-6);
  EXPECT_LE(incumbent.load(), 1.0 + 1e-9);  // solver published its find
}

TEST(Milp, SharedIncumbentBelowOptimumPrunesSearch) {
  // A shared value strictly below anything achievable prunes every
  // subtree: another solver already holds a better plan, so this one
  // reports no solution instead of wasting its budget.
  MilpProblem p;
  const int x0 = p.lp.add_binary(1.0);
  const int x1 = p.lp.add_binary(2.0);
  p.integer_vars = {x0, x1};
  p.lp.add_row({{x0, 1.0}, {x1, 1.0}}, LpProblem::RowType::kGe, 1.0);
  std::atomic<double> incumbent{0.5};
  MilpOptions opt;
  opt.shared_incumbent = &incumbent;
  const MilpSolution s = solve_milp(p, opt);
  EXPECT_NE(s.status, MilpStatus::kOptimal);
  EXPECT_NE(s.status, MilpStatus::kFeasible);
  EXPECT_NEAR(incumbent.load(), 0.5, 1e-12);  // nothing better published
}

TEST(Mckp, PicksCheapestFeasibleCombination) {
  // Two items; capacity forces one small option.
  std::vector<std::vector<MckpOption>> items = {
      {{10, 5.0}, {4, 9.0}},
      {{10, 1.0}, {4, 8.0}},
  };
  const MckpResult r = solve_mckp(items, 14, 64);
  ASSERT_TRUE(r.feasible);
  // Best: item0 option1 (4, 9) + item1 option0 (10, 1) = 10.0 within 14.
  EXPECT_EQ(r.choice[0], 1);
  EXPECT_EQ(r.choice[1], 0);
  EXPECT_NEAR(r.total_value, 10.0, 1e-9);
}

TEST(Mckp, CumulativeRoundingKeepsNearCapacityFeasible) {
  // Regression: six mandatory options of weight 150 under capacity 1000
  // (total 900) are feasible, but per-option ceil-rounding at bucket_size
  // 100 used to charge each option 2 buckets — 12 > 10 — and reject the
  // assignment. The DP must bucketize the cumulative weight instead.
  std::vector<std::vector<MckpOption>> items(6, {{150, 1.0}});
  const MckpResult r = solve_mckp(items, 1000, 10);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.total_weight, 900);
  EXPECT_NEAR(r.total_value, 6.0, 1e-12);
}

TEST(Mckp, CoarseBucketsStillFindNearCapacityOptimum) {
  // The cheap options only fit because feasibility checks exact weights:
  // 3 x 330 = 990 <= 1000, yet each 330 straddles bucket_size 125.
  std::vector<std::vector<MckpOption>> items(
      3, {{330, 1.0}, {50, 10.0}});
  const MckpResult r = solve_mckp(items, 1000, 8);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.total_weight, 990);
  EXPECT_NEAR(r.total_value, 3.0, 1e-12);
}

TEST(Mckp, InfeasibleWhenEverythingTooHeavy) {
  std::vector<std::vector<MckpOption>> items = {{{100, 1.0}}};
  EXPECT_FALSE(solve_mckp(items, 10).feasible);
}

TEST(Mckp, NeverExceedsCapacity) {
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::vector<MckpOption>> items;
    const int n = 2 + static_cast<int>(rng.uniform_int(0, 8));
    for (int i = 0; i < n; ++i) {
      std::vector<MckpOption> opts;
      for (int o = 0; o < 4; ++o)
        opts.push_back({rng.uniform_int(1, 50), rng.uniform(0.0, 3.0)});
      items.push_back(std::move(opts));
    }
    const std::int64_t cap = rng.uniform_int(20, 200);
    const MckpResult r = solve_mckp(items, cap, 128);
    if (r.feasible) {
      EXPECT_LE(r.total_weight, cap);
    }
  }
}

// MILP-vs-DP cross-check: contiguous partition with per-stage linear cost
// is expressible both ways; they must agree on the optimum.
TEST(MilpCrossCheck, MatchesDpOnContiguousPartition) {
  const int L = 6, N = 2;
  const double per_layer[2] = {2.0, 1.0};  // device costs
  // DP (min-sum with contiguity).
  const auto cost = [&](int b, int e, int dev) {
    return static_cast<double>(e - b) * per_layer[dev];
  };
  const PartitionResult dp = partition_min_sum(L, N, cost);

  // MILP: z[i][j] layer i on device j, contiguity via ordering constraints.
  MilpProblem p;
  int z[6][2];
  for (int i = 0; i < L; ++i)
    for (int j = 0; j < N; ++j) {
      z[i][j] = p.lp.add_binary(per_layer[j]);
      p.integer_vars.push_back(z[i][j]);
    }
  for (int i = 0; i < L; ++i)
    p.lp.add_row({{z[i][0], 1.0}, {z[i][1], 1.0}},
                 LpProblem::RowType::kEq, 1.0);
  for (int i = 1; i < L; ++i)
    p.lp.add_row({{z[i][0], 1.0}, {z[i - 1][1], 1.0}},
                 LpProblem::RowType::kLe, 1.0);
  const MilpSolution milp = solve_milp(p);
  ASSERT_EQ(milp.status, MilpStatus::kOptimal);
  EXPECT_NEAR(milp.objective, dp.objective, 1e-6);
}

}  // namespace
}  // namespace llmpq
