#include <gtest/gtest.h>

#include "common/error.hpp"
#include "baselines/baselines.hpp"
#include "core/estimator.hpp"
#include "quant/quality.hpp"
#include "sim/pipeline_sim.hpp"

namespace llmpq {
namespace {

TEST(Uniform, PicksHighestBitsThatFit) {
  // A100-40G + OPT-13b: FP16 weights ~26 GB + KV fits -> expect 16 bits.
  {
    const auto [cluster, model_name] = paper_cluster(2);
    CostProvider cost(model_registry_get(model_name), cluster,
                      CostMode::kProfiled);
    const auto bits = uniform_bits_that_fit(cost);
    ASSERT_TRUE(bits.has_value());
    EXPECT_GE(*bits, 8);
  }
  // 3x P100 + V100 + OPT-30b: even split overflows the 12 GB P100s until
  // deep quantization; the paper's Table 4 even marks Uniform as OOM here.
  {
    const auto [cluster, model_name] = paper_cluster(4);
    CostProvider cost(model_registry_get(model_name), cluster,
                      CostMode::kProfiled);
    const auto bits = uniform_bits_that_fit(cost);
    if (bits.has_value()) {
      EXPECT_LE(*bits, 4);
    }
  }
}

TEST(Uniform, PlanIsValidAndSimulates) {
  const auto [cluster, model_name] = paper_cluster(3);
  const ModelSpec& m = model_registry_get(model_name);
  CostProvider cost(m, cluster, CostMode::kProfiled);
  const ExecutionPlan plan = uniform_plan(cost);
  plan.validate(m.layers, cluster.num_devices());
  // Even split.
  for (int p = 0; p + 1 < plan.num_stages(); ++p)
    EXPECT_EQ(plan.stage_size(p), (m.layers + 3) / 4);
  const SimResult sim = simulate_plan(m, cluster, plan);
  EXPECT_TRUE(sim.ok) << sim.error;
}

TEST(PipeEdge, BalancesPrefillAcrossHeterogeneousDevices) {
  const auto [cluster, model_name] = paper_cluster(3);
  const ModelSpec& m = model_registry_get(model_name);
  CostProvider cost(m, cluster, CostMode::kProfiled);
  const ExecutionPlan plan = pipeedge_plan(cost);
  plan.validate(m.layers, cluster.num_devices());
  // Uniform precision everywhere.
  for (int b : plan.layer_bits) EXPECT_EQ(b, plan.layer_bits.front());
  const SimResult sim = simulate_plan(m, cluster, plan);
  ASSERT_TRUE(sim.ok) << sim.error;
  // Heterogeneity-aware: the V100 stage must hold more layers than any T4
  // stage (it is both faster and larger).
  int v100_pos = -1;
  for (int p = 0; p < plan.num_stages(); ++p)
    if (cluster.devices[static_cast<std::size_t>(
            plan.device_order[static_cast<std::size_t>(p)])].gpu_name ==
        "V100-32G")
      v100_pos = p;
  ASSERT_GE(v100_pos, 0);
  for (int p = 0; p < plan.num_stages(); ++p)
    if (p != v100_pos) {
      EXPECT_GE(plan.stage_size(v100_pos), plan.stage_size(p));
    }
}

TEST(PipeEdge, BeatsUniformOnHeteroCluster) {
  const auto [cluster, model_name] = paper_cluster(4);
  const ModelSpec& m = model_registry_get(model_name);
  CostProvider cost(m, cluster, CostMode::kProfiled);
  const ExecutionPlan pe = pipeedge_plan(cost);
  const SimResult pe_sim = simulate_plan(m, cluster, pe);
  ASSERT_TRUE(pe_sim.ok) << pe_sim.error;
  try {
    const ExecutionPlan uni = uniform_plan(cost);
    const SimResult uni_sim = simulate_plan(m, cluster, uni);
    if (uni_sim.ok) {
      EXPECT_GT(pe_sim.throughput_tokens_per_s,
                uni_sim.throughput_tokens_per_s);
    }
  } catch (const InfeasibleError&) {
    SUCCEED();  // Uniform OOMs on cluster 4, matching the paper's dagger.
  }
}

TEST(FlexGen, Int8FasterThanFp16WhenSpilling) {
  const auto [cluster, model_name] = paper_cluster(9);
  CostProvider cost(model_registry_get(model_name), cluster,
                    CostMode::kProfiled);
  const OffloadResult fp16 = flexgen_run(cost, 16);
  const OffloadResult int8 = flexgen_run(cost, 8);
  ASSERT_TRUE(fp16.ok && int8.ok);
  EXPECT_GT(int8.throughput_tokens_per_s, fp16.throughput_tokens_per_s);
}

TEST(Baselines, QualityOrderingMatchesBits) {
  const auto [cluster, model_name] = paper_cluster(3);
  const ModelSpec& m = model_registry_get(model_name);
  CostProvider cost(m, cluster, CostMode::kProfiled);
  const ExecutionPlan pe = pipeedge_plan(cost);
  const double ppl = plan_ppl(m, pe.layer_bits);
  EXPECT_GE(ppl, m.ppl_fp16 - 0.1);
  EXPECT_LE(ppl, uniform_ppl(m, 3) + 1e-9);
}

}  // namespace
}  // namespace llmpq
