#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "common/error.hpp"
#include "core/assigner.hpp"
#include "quant/quality.hpp"
#include "sim/pipeline_sim.hpp"

namespace llmpq {
namespace {

/// Full-system integration sweep: LLM-PQ (heuristic path) end-to-end on
/// every paper cluster, with cross-cutting invariants checked against the
/// baselines and the simulator.
class PaperClusterSweep : public ::testing::TestWithParam<int> {};

TEST_P(PaperClusterSweep, PlanIsValidFeasibleAndCompetitive) {
  const int cluster_index = GetParam();
  const PaperCluster pc = paper_cluster(cluster_index);
  const ModelSpec& model = model_registry_get(pc.model_name);
  CostProvider cost(model, pc.cluster, CostMode::kFitted);

  AssignerOptions opt;
  opt.solver = SolverKind::kHeuristic;
  opt.max_orderings = 4;
  const AssignerResult r = assign(cost, opt);

  // Structural validity.
  r.plan.validate(model.layers, pc.cluster.num_devices());
  EXPECT_TRUE(r.estimate.mem_feasible);
  EXPECT_GT(r.stats.combos_tried, 0);

  // The simulator accepts the plan and roughly agrees with the planner.
  const SimResult sim = simulate_plan(model, pc.cluster, r.plan);
  ASSERT_TRUE(sim.ok) << sim.error;
  EXPECT_GT(sim.throughput_tokens_per_s, 0.0);
  EXPECT_NEAR(r.estimate.e2e_latency / sim.e2e_latency_s, 1.0, 0.6);

  // Memory accounting: every stage under its device budget.
  for (int p = 0; p < r.plan.num_stages(); ++p) {
    const int dev = r.plan.device_order[static_cast<std::size_t>(p)];
    EXPECT_LE(sim.stage_peak_mem[static_cast<std::size_t>(p)],
              pc.cluster.devices[static_cast<std::size_t>(dev)].gpu().mem_bytes);
  }

  // Quality sanity: no plan should be worse than uniform 3-bit or better
  // than the best 8/16-bit mix could be.
  const double ppl = plan_ppl(model, r.plan.layer_bits);
  EXPECT_LE(ppl, uniform_ppl(model, 3) + 1e-9);
  EXPECT_GE(ppl, model.ppl_fp16 - 0.2);

  // Competitiveness: at least as fast as the Uniform baseline when that
  // baseline exists (PipeEdge comparisons live in the bench tables).
  try {
    const ExecutionPlan uni = uniform_plan(cost);
    const SimResult uni_sim = simulate_plan(model, pc.cluster, uni);
    if (uni_sim.ok) {
      EXPECT_GE(sim.throughput_tokens_per_s,
                0.95 * uni_sim.throughput_tokens_per_s)
          << "cluster " << cluster_index;
    }
  } catch (const InfeasibleError&) {
    // Uniform OOM (e.g. cluster 8): nothing to compare against.
  }
}

INSTANTIATE_TEST_SUITE_P(AllPaperClusters, PaperClusterSweep,
                         ::testing::Range(1, 12));

/// Serialization survives the full loop on a real planner output.
TEST(Integration, PlanSurvivesStrategyFileRoundTrip) {
  const PaperCluster pc = paper_cluster(3);
  const ModelSpec& model = model_registry_get(pc.model_name);
  CostProvider cost(model, pc.cluster, CostMode::kFitted);
  AssignerOptions opt;
  opt.solver = SolverKind::kHeuristic;
  const AssignerResult r = assign(cost, opt);
  const ExecutionPlan back =
      ExecutionPlan::deserialize(r.plan.serialize());
  const SimResult a = simulate_plan(model, pc.cluster, r.plan);
  const SimResult b = simulate_plan(model, pc.cluster, back);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_DOUBLE_EQ(a.e2e_latency_s, b.e2e_latency_s);
}

/// The planner is architecture-parameterized: a LLaMA-style gated-MLP
/// model plans end-to-end on a heterogeneous cluster out of the box.
TEST(Integration, LlamaModelPlansOnHeteroCluster) {
  const ClusterSpec cluster =
      make_cluster("llama-demo", {{"V100-32G", 2}, {"A100-40G", 2}}, 100);
  const ModelSpec& model = model_registry_get("llama-30b");
  CostProvider cost(model, cluster, CostMode::kFitted);
  AssignerOptions opt;
  opt.solver = SolverKind::kHeuristic;
  const AssignerResult r = assign(cost, opt);
  r.plan.validate(model.layers, cluster.num_devices());
  const SimResult sim = simulate_plan(model, cluster, r.plan);
  ASSERT_TRUE(sim.ok) << sim.error;
  EXPECT_GT(sim.throughput_tokens_per_s, 0.0);
  EXPECT_LE(plan_ppl(model, r.plan.layer_bits), uniform_ppl(model, 3));
}

/// Determinism: the whole planning pipeline is reproducible from seeds.
TEST(Integration, AssignerIsDeterministic) {
  const PaperCluster pc = paper_cluster(4);
  const ModelSpec& model = model_registry_get(pc.model_name);
  AssignerOptions opt;
  opt.solver = SolverKind::kHeuristic;
  CostProvider c1(model, pc.cluster, CostMode::kFitted);
  CostProvider c2(model, pc.cluster, CostMode::kFitted);
  const AssignerResult r1 = assign(c1, opt);
  const AssignerResult r2 = assign(c2, opt);
  EXPECT_EQ(r1.plan.serialize(), r2.plan.serialize());
  EXPECT_DOUBLE_EQ(r1.estimate.objective, r2.estimate.objective);
}

}  // namespace
}  // namespace llmpq
