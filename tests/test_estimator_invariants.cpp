#include <gtest/gtest.h>

#include <cmath>

#include "core/estimator.hpp"
#include "cost/cost_provider.hpp"

namespace llmpq {
namespace {

/// Invariants of the planner-side estimate that the optimizers rely on.
/// Each is the monotonicity the heuristic's move generation assumes: if one
/// of these broke, bitwidth-transfer could walk uphill while believing it
/// improves.
class EstimatorInvariants : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto pc = paper_cluster(3);
    cluster_ = pc.cluster;
    model_ = &model_registry_get(pc.model_name);
    cost_ = std::make_unique<CostProvider>(*model_, cluster_,
                                           CostMode::kProfiled);
  }

  ExecutionPlan base_plan(int bits = 8) const {
    ExecutionPlan plan;
    plan.model_name = model_->name;
    plan.cluster_name = cluster_.name;
    plan.device_order = {0, 1, 2, 3};
    plan.boundaries = {0, 10, 22, 34, model_->layers};
    plan.layer_bits.assign(static_cast<std::size_t>(model_->layers), bits);
    plan.prefill_micro_batch = 4;
    plan.decode_micro_batch = 8;
    return plan;
  }

  ClusterSpec cluster_;
  const ModelSpec* model_ = nullptr;
  std::unique_ptr<CostProvider> cost_;
};

TEST_F(EstimatorInvariants, LoweringBitsShrinksStageMemory) {
  const PlanEstimate e8 = estimate_plan(*cost_, base_plan(8));
  const PlanEstimate e4 = estimate_plan(*cost_, base_plan(4));
  for (std::size_t p = 0; p < e8.stage_mem.size(); ++p)
    EXPECT_LT(e4.stage_mem[p].weights, e8.stage_mem[p].weights);
}

TEST_F(EstimatorInvariants, KvCacheIndependentOfWeightBits) {
  const PlanEstimate e8 = estimate_plan(*cost_, base_plan(8));
  const PlanEstimate e4 = estimate_plan(*cost_, base_plan(4));
  for (std::size_t p = 0; p < e8.stage_mem.size(); ++p)
    EXPECT_EQ(e4.stage_mem[p].kv_cache, e8.stage_mem[p].kv_cache);
}

TEST_F(EstimatorInvariants, MovingLayerShiftsStageTimes) {
  const ExecutionPlan a = base_plan();
  ExecutionPlan b = a;
  ++b.boundaries[1];  // stage 0 gains the first layer of stage 1
  const PlanEstimate ea = estimate_plan(*cost_, a);
  const PlanEstimate eb = estimate_plan(*cost_, b);
  EXPECT_GT(eb.stage_prefill_time[0], ea.stage_prefill_time[0]);
  EXPECT_LT(eb.stage_prefill_time[1], ea.stage_prefill_time[1]);
  EXPECT_GT(eb.stage_decode_time[0], ea.stage_decode_time[0]);
}

TEST_F(EstimatorInvariants, LongerGenerationGrowsDecodeShare) {
  ExecutionPlan longer = base_plan();
  longer.workload.gen_tokens = 200;
  const PlanEstimate e100 = estimate_plan(*cost_, base_plan());
  const PlanEstimate e200 = estimate_plan(*cost_, longer);
  EXPECT_GT(e200.decode_total, 1.8 * e100.decode_total);
  EXPECT_NEAR(e200.prefill_total, e100.prefill_total,
              0.05 * e100.prefill_total);
}

TEST_F(EstimatorInvariants, SmallerPrefillMicrobatchShrinksBubble) {
  ExecutionPlan small = base_plan();
  small.prefill_micro_batch = 1;
  ExecutionPlan big = base_plan();
  big.prefill_micro_batch = 32;
  const PlanEstimate es = estimate_plan(*cost_, small);
  const PlanEstimate eb = estimate_plan(*cost_, big);
  // With one giant micro-batch the pipeline serializes completely.
  EXPECT_LT(es.prefill_total, eb.prefill_total);
}

TEST_F(EstimatorInvariants, ObjectiveLinearInTheta) {
  const auto ind = compute_indicator(*model_, IndicatorKind::kVariance);
  const ExecutionPlan plan = base_plan(4);
  const PlanEstimate e1 = estimate_plan(*cost_, plan, &ind, 1.0);
  const PlanEstimate e10 = estimate_plan(*cost_, plan, &ind, 10.0);
  EXPECT_DOUBLE_EQ(e1.quality_penalty, e10.quality_penalty);
  EXPECT_NEAR(e10.objective - e10.e2e_latency,
              10.0 * (e1.objective - e1.e2e_latency), 1e-9);
}

TEST_F(EstimatorInvariants, ZeroGenerationClampsDecodeAndThroughput) {
  // Regression: decode_total used to scale by (gen_tokens - 1), so a
  // prefill-only workload produced a NEGATIVE decode time and e2e latency
  // (the simulator already guards this — PipelineSim.ZeroGeneration*).
  for (int gen : {0, 1}) {
    ExecutionPlan plan = base_plan();
    plan.workload.gen_tokens = gen;
    const PlanEstimate est = estimate_plan(*cost_, plan);
    ASSERT_TRUE(est.mem_feasible);
    EXPECT_EQ(est.decode_total, 0.0) << "gen_tokens=" << gen;
    EXPECT_GT(est.prefill_total, 0.0);
    EXPECT_DOUBLE_EQ(est.e2e_latency, est.prefill_total);
    EXPECT_GE(est.throughput_tokens_per_s, 0.0);
    EXPECT_TRUE(std::isfinite(est.throughput_tokens_per_s));
    EXPECT_GE(est.objective, 0.0);
  }
}

TEST_F(EstimatorInvariants, IncrementalScoresMatchFullEstimate) {
  // The bitwidth-transfer inner loop scores candidates with
  // IncrementalPlanEvaluator instead of a from-scratch estimate_plan; the
  // two must agree to floating-point summation order on every move kind.
  const auto ind = compute_indicator(*model_, IndicatorKind::kVariance);
  const double theta = 2.0;
  const ExecutionPlan plan = base_plan(8);
  const IncrementalPlanEvaluator eval(*cost_, &ind, theta, plan);

  const PlanEstimate base = estimate_plan(*cost_, plan, &ind, theta);
  ASSERT_TRUE(base.mem_feasible);
  ASSERT_TRUE(eval.base().feasible);
  EXPECT_NEAR(eval.base().objective, base.objective,
              1e-9 * base.objective);

  for (int layer : {0, 9, 10, 21, 33, model_->layers - 1}) {
    for (int bits : kBitCandidates) {
      ExecutionPlan cand = plan;
      cand.layer_bits[static_cast<std::size_t>(layer)] = bits;
      const PlanEstimate full = estimate_plan(*cost_, cand, &ind, theta);
      const auto s = eval.score_bit_change(layer, bits);
      EXPECT_EQ(s.feasible, full.mem_feasible)
          << "layer " << layer << " -> " << bits << " bits";
      if (full.mem_feasible) {
        EXPECT_NEAR(s.objective, full.objective, 1e-9 * full.objective)
            << "layer " << layer << " -> " << bits << " bits";
      }
    }
  }

  for (int p = 0; p + 1 < 4; ++p) {
    for (int delta : {-1, +1}) {
      for (int new_bits : {-1, 4}) {
        const auto s = eval.score_boundary_shift(p, delta, new_bits);
        ASSERT_TRUE(s.has_value());  // no stage is near-empty here
        ExecutionPlan cand = plan;
        const int moved = delta < 0
                              ? cand.boundaries[static_cast<std::size_t>(p) + 1] - 1
                              : cand.boundaries[static_cast<std::size_t>(p) + 1];
        cand.boundaries[static_cast<std::size_t>(p) + 1] += delta;
        if (new_bits > 0)
          cand.layer_bits[static_cast<std::size_t>(moved)] = new_bits;
        const PlanEstimate full = estimate_plan(*cost_, cand, &ind, theta);
        EXPECT_EQ(s->feasible, full.mem_feasible)
            << "boundary " << p << " delta " << delta;
        if (full.mem_feasible) {
          EXPECT_NEAR(s->objective, full.objective, 1e-9 * full.objective)
              << "boundary " << p << " delta " << delta;
        }
      }
    }
  }
}

TEST_F(EstimatorInvariants, DecodeRoundBoundIsMaxOfSumAndBottleneck) {
  // Reconstruct the refined decode bound from the estimate's pieces.
  const ExecutionPlan plan = base_plan();
  const PlanEstimate est = estimate_plan(*cost_, plan);
  double sum = 0.0, mx = 0.0;
  for (double t : est.stage_decode_time) {
    sum += t;
    mx = std::max(mx, t);
  }
  const double md = plan.decode_microbatch_count();
  const double per_round = std::max(sum, md * mx);
  EXPECT_NEAR(est.decode_total,
              (plan.workload.gen_tokens - 1) * per_round, 1e-9);
}

}  // namespace
}  // namespace llmpq
