#include <gtest/gtest.h>

#include <cstdlib>

#include "common/thread_pool.hpp"
#include "core/assigner.hpp"

namespace llmpq {
namespace {

// Force a multi-worker shared pool even on single-core CI machines so the
// parallel search path actually fans out. overwrite=0 keeps an explicit
// LLMPQ_THREADS (e.g. the sanitizer sweep's); this runs before the lazily
// constructed ThreadPool::shared() reads the variable.
const bool kPoolEnvReady = [] {
  setenv("LLMPQ_THREADS", "4", /*overwrite=*/0);
  return true;
}();

AssignerResult run_assign(int cluster_index, const AssignerOptions& base,
                          int num_threads) {
  const PaperCluster pc = paper_cluster(cluster_index);
  const ModelSpec& model = model_registry_get(pc.model_name);
  CostProvider cost(model, pc.cluster, CostMode::kFitted);
  AssignerOptions opt = base;
  opt.num_threads = num_threads;
  return assign(cost, opt);
}

void expect_identical(const AssignerResult& serial,
                      const AssignerResult& parallel) {
  EXPECT_EQ(serial.plan.device_order, parallel.plan.device_order);
  EXPECT_EQ(serial.plan.boundaries, parallel.plan.boundaries);
  EXPECT_EQ(serial.plan.layer_bits, parallel.plan.layer_bits);
  EXPECT_EQ(serial.plan.prefill_micro_batch,
            parallel.plan.prefill_micro_batch);
  EXPECT_EQ(serial.plan.decode_micro_batch, parallel.plan.decode_micro_batch);
  EXPECT_EQ(serial.estimate.objective, parallel.estimate.objective);
  EXPECT_EQ(serial.estimate.e2e_latency, parallel.estimate.e2e_latency);
  EXPECT_EQ(serial.stats.combos_tried, parallel.stats.combos_tried);
}

// The parallel combo sweep reduces results in combo order, so the chosen
// plan must be bit-identical to the serial baseline on every cluster and
// thread count (DESIGN.md "Planner performance & parallel search").
TEST(AssignerParallel, HeuristicPlanIdenticalToSerial) {
  ASSERT_TRUE(kPoolEnvReady);
  for (const int cluster : {3, 4}) {
    AssignerOptions opt;
    opt.solver = SolverKind::kHeuristic;
    opt.max_orderings = 4;
    const AssignerResult serial = run_assign(cluster, opt, /*threads=*/1);
    EXPECT_EQ(serial.stats.search_threads, 1);
    const AssignerResult parallel = run_assign(cluster, opt, /*threads=*/0);
    if (ThreadPool::shared().size() > 1) {
      EXPECT_GT(parallel.stats.search_threads, 1);
    }
    expect_identical(serial, parallel);
  }
}

// Pass 2's concurrent refinements pool incumbents through one atomic; the
// strictly-greater pruning keeps the pooled best schedule-independent, so
// parallel refinement must pick the same plan as sequential refinement.
// The config is small enough that every refinement proves optimality well
// inside its budget (truncated solves are inherently timing-dependent).
TEST(AssignerParallel, IlpRefinementIdenticalToSerial) {
  ASSERT_TRUE(kPoolEnvReady);
  AssignerOptions opt;
  opt.solver = SolverKind::kIlp;
  opt.group_size = 1;
  opt.ilp_time_limit_s = 60.0;
  opt.ilp_refine_top = 2;
  const AssignerResult serial = run_assign(1, opt, /*threads=*/1);
  const AssignerResult parallel = run_assign(1, opt, /*threads=*/0);
  EXPECT_EQ(serial.stats.ilp_solves, parallel.stats.ilp_solves);
  expect_identical(serial, parallel);
}

}  // namespace
}  // namespace llmpq
