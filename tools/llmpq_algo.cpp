// llmpq-algo — the paper's plan-generation entry point (Sec. 5, "API and
// Commands"):
/*
   llmpq-algo --model-name opt --model_size 30b \
       --device_names T4-16G,V100-32G --device_numbers 3,1 \
       --global_bz 32 --s 512 --n 100 --theta 1 \
       [--group 2] [--shaq-efficient] [--fit | --use_profiler_prediction] \
       [--omega_file FILE] [--strat_file_name OUT]
*/
// Decides quantization bitwidths, layer partition and micro-batch sizes
// for the given model/cluster/workload, prints the plan summary and
// planner estimate, and writes the strategy file `llmpq-dist` consumes.
#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/args.hpp"
#include "common/error.hpp"
#include "core/assigner.hpp"
#include "quant/quality.hpp"

namespace {

constexpr const char* kUsage = R"(usage: llmpq_algo
  --model-name NAME          model family: opt | bloom (or full name like opt-30b)
  --model_size SIZE          e.g. 13b, 30b, 66b, 176b (ignored if full name given)
  --device_names LIST        comma-separated GPU types, e.g. T4-16G,V100-32G
  --device_numbers LIST      comma-separated counts, same arity
  --global_bz N              global batch size            (default 32)
  --s N                      padded prompt length          (default 512)
  --n N                      tokens to generate            (default 100)
  --theta X                  user quality scalar           (default 1)
  --group N                  ILP layer-group size, forces the ILP solver
  --shaq-efficient           force the bitwidth-transfer heuristic
  --fit                      use the fitted latency cost model (default)
  --use_profiler_prediction  answer cost queries from profiled samples
  --indicator KIND           variance | hessian | random   (default variance)
  --weight_format F          per_channel | group32 | group64 (default per_channel)
  --omega_file FILE          write the indicator omega values to FILE
  --strat_file_name FILE     write the strategy file       (default stdout)
  --time_limit S             ILP time budget in seconds    (default 30)
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace llmpq;
  const ArgParser args(argc, argv);
  if (args.has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  try {
    // ---- Model.
    std::string model_name = args.get_or("model-name", "");
    check_arg(!model_name.empty(), "--model-name is required");
    if (const auto size = args.get("model_size"); size && !size->empty())
      if (model_name.find('-') == std::string::npos)
        model_name += "-" + *size;
    const ModelSpec& model = model_registry_get(model_name);

    // ---- Cluster.
    const auto names = split_csv(args.get_or("device_names", ""));
    const auto numbers = split_csv(args.get_or("device_numbers", ""));
    check_arg(!names.empty() && names.size() == numbers.size(),
              "--device_names and --device_numbers must be non-empty and "
              "of equal arity");
    std::vector<std::pair<std::string, int>> gpus;
    for (std::size_t i = 0; i < names.size(); ++i) {
      const int count = parse_int_token(numbers[i], "--device_numbers");
      check_arg(count >= 1, "--device_numbers: counts must be >= 1, got " +
                                numbers[i]);
      gpus.emplace_back(names[i], count);
    }
    const ClusterSpec cluster = make_cluster("cli-cluster", gpus);

    // ---- Workload + options.
    Workload workload;
    workload.global_batch = static_cast<int>(args.get_long("global_bz", 32));
    workload.prompt_len = static_cast<int>(args.get_long("s", 512));
    workload.gen_tokens = static_cast<int>(args.get_long("n", 100));

    AssignerOptions options;
    options.theta = args.get_double("theta", 1.0);
    options.ilp_time_limit_s = args.get_double("time_limit", 30.0);
    if (args.has("group")) {
      options.solver = SolverKind::kIlp;
      options.group_size = static_cast<int>(args.get_long("group", 1));
    }
    if (args.has("shaq-efficient")) options.solver = SolverKind::kHeuristic;
    const std::string ind = args.get_or("indicator", "variance");
    if (ind == "hessian")
      options.indicator = IndicatorKind::kHessian;
    else if (ind == "random")
      options.indicator = IndicatorKind::kRandom;
    else
      check_arg(ind == "variance", "unknown --indicator " + ind);
    options.cost_mode = args.has("use_profiler_prediction")
                            ? CostMode::kProfiled
                            : CostMode::kFitted;

    // ---- Plan.
    CostProvider cost(model, cluster, options.cost_mode);
    cost.set_workload(workload);
    cost.set_format(
        quant_format_from_name(args.get_or("weight_format", "per_channel")));
    const AssignerResult result = assign(cost, options);

    std::fprintf(stderr, "%s", result.plan.to_string().c_str());
    std::fprintf(stderr,
                 "estimate: %.2f s end-to-end, %.1f tokens/s, PPL %.3f\n",
                 result.estimate.e2e_latency,
                 result.estimate.throughput_tokens_per_s,
                 plan_ppl(model, result.plan.layer_bits));
    std::fprintf(stderr, "solver %s: %d combos, %.2f s\n",
                 result.stats.solver_used.c_str(), result.stats.combos_tried,
                 result.stats.solve_time_s);

    if (const auto omega_file = args.get("omega_file")) {
      const IndicatorResult indicator =
          compute_indicator(model, options.indicator);
      std::ofstream out(*omega_file);
      check_arg(out.good(), "cannot open " + *omega_file);
      out << "# layer";
      for (int bits : kBitCandidates) out << " omega@" << bits;
      out << "\n";
      for (int i = 0; i < model.layers; ++i) {
        out << i;
        for (int bits : kBitCandidates) out << ' ' << indicator.at(i, bits);
        out << "\n";
      }
    }

    const std::string strat = result.plan.serialize();
    if (const auto path = args.get("strat_file_name")) {
      std::ofstream out(*path);
      check_arg(out.good(), "cannot open " + *path);
      out << strat;
      std::fprintf(stderr, "strategy written to %s\n", path->c_str());
    } else {
      std::fputs(strat.c_str(), stdout);
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "llmpq-algo: %s\n%s", e.what(), kUsage);
    return 1;
  }
}
