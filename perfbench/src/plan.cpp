#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/adabits.hpp"
#include "core/assigner.hpp"
#include "core/bit_transfer.hpp"
#include "core/estimator.hpp"
#include "cost/mem_model.hpp"
#include "hw/cluster.hpp"
#include "model/model_spec.hpp"
#include "perfbench.hpp"
#include "solver/mckp.hpp"

namespace perfbench {

using namespace llmpq;

namespace {

constexpr int kClusters = 11;

/// The planner's input per paper cluster: the paper's offline workload
/// (batch 32, prompt 512, 100 output tokens) with seeded jitter.
std::vector<Workload> seeded_workloads(std::uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + 7);
  std::vector<Workload> out(kClusters);
  for (Workload& wl : out) {
    wl.global_batch = 32;
    wl.prompt_len = 512 + static_cast<int>(rng.uniform_int(-8, 8));
    wl.gen_tokens = 100 + static_cast<int>(rng.uniform_int(-4, 4));
  }
  return out;
}

AssignerOptions plan_options() {
  AssignerOptions o;
  o.solver = SolverKind::kHeuristic;
  return o;
}

}  // namespace

PlanRun plan_untraced(std::uint64_t seed, int reps) {
  const std::vector<Workload> workloads = seeded_workloads(seed);
  PlanRun run;
  for (int rep = 0; rep < reps; ++rep) {
    // Fresh cost providers per repetition: their layer-time memo would
    // otherwise make later repetitions cheaper than the first plan.
    std::vector<std::unique_ptr<CostProvider>> costs;
    for (int k = 1; k <= kClusters; ++k) {
      const PaperCluster pc = paper_cluster(k);
      costs.push_back(std::make_unique<CostProvider>(
          model_registry_get(pc.model_name), pc.cluster, CostMode::kFitted));
      costs.back()->set_workload(workloads[static_cast<std::size_t>(k - 1)]);
    }
    StopwatchNs sw;
    std::vector<AssignerResult> results;
    for (const auto& cost : costs) results.push_back(assign(*cost, plan_options()));
    run.plan_s.push_back(sw.elapsed_s());
    if (rep == 0)
      for (const AssignerResult& r : results)
        run.plan_tok_s.push_back(r.estimate.throughput_tokens_per_s);
  }
  return run;
}

void plan_traced(std::uint64_t seed, SpanLog& log) {
  const std::vector<Workload> workloads = seeded_workloads(seed);
  const AssignerOptions opt = plan_options();
  for (int k = 1; k <= kClusters; ++k) {
    const PaperCluster pc = paper_cluster(k);
    const ModelSpec& model = model_registry_get(pc.model_name);
    const Workload& wl = workloads[static_cast<std::size_t>(k - 1)];
    std::unique_ptr<CostProvider> cost;
    timed_span(&log, "cost.build", [&] {
      cost = std::make_unique<CostProvider>(model, pc.cluster, CostMode::kFitted);
    });
    cost->set_workload(wl);
    IndicatorResult indicator;
    timed_span(&log, "core.indicator", [&] {
      indicator = compute_indicator(model, opt.indicator,
                                    Rounding::kDeterministic, opt.seed);
    });
    AssignerResult best;
    timed_span(&log, "core.assign", [&] { best = assign(*cost, opt); });

    // The assigner's inner step, one combo at a time.
    const int devices = pc.cluster.num_devices();
    for (const auto& order :
         enumerate_device_orderings(pc.cluster, opt.max_orderings))
      for (int mb_pre : prefill_microbatch_candidates(wl, opt.prefill_mb_limit))
        for (int mb_dec : decode_microbatch_candidates(wl, devices))
          timed_span(&log, "core.combo", [&] {
            try {
              BitTransferOptions bt;
              bt.theta = opt.theta;
              (void)bit_transfer(*cost, indicator,
                                 adabits_plan(*cost, indicator, order, mb_pre,
                                              mb_dec),
                                 bt);
            } catch (const InfeasibleError&) {
            }
          });

    for (int rep = 0; rep < 5; ++rep)
      timed_span(&log, "core.estimate", [&] {
        (void)estimate_plan(*cost, best.plan, &indicator, opt.theta);
      });
    const IncrementalPlanEvaluator eval(*cost, &indicator, opt.theta, best.plan);
    const int layers = best.plan.num_layers();
    for (int l = 0; l < layers; l += std::max(1, layers / 16)) {
      const int bits = best.plan.layer_bits[static_cast<std::size_t>(l)] == 4 ? 8 : 4;
      timed_span(&log, "core.incremental_move",
                 [&] { (void)eval.score_bit_change(l, bits); });
    }

    // The knapsack adabits solves per stage, over the whole model at an
    // 8-bit-average budget.
    std::vector<std::vector<MckpOption>> items;
    for (int l = 0; l < model.layers; ++l) {
      std::vector<MckpOption> options;
      for (int bits : kBitCandidates)
        options.push_back({layer_weight_bytes(model, bits), indicator.at(l, bits)});
      items.push_back(std::move(options));
    }
    const std::int64_t budget = model.layers * layer_weight_bytes(model, 8);
    for (int rep = 0; rep < 3; ++rep)
      timed_span(&log, "solver.mckp",
                 [&] { (void)solve_mckp(items, budget); });
  }
}

}  // namespace perfbench
