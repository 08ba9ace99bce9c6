// llmpq-dist — the paper's strategy launcher (Sec. 5):
/*
   llmpq-dist --strat_file_name plan.strat \
       --device_names T4-16G,V100-32G --device_numbers 3,1 \
       [--jitter 0.02] [--csv]
*/
// Loads a strategy file produced by llmpq-algo, derives the pipeline
// configuration ("ranks are derived automatically and registered to the
// distributed runtime"), executes the plan on the simulated cluster and
// reports per-stage utilization, memory and serving metrics.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/args.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "quant/quality.hpp"
#include "sim/pipeline_sim.hpp"

namespace {

constexpr const char* kUsage = R"(usage: llmpq_dist
  --strat_file_name FILE   strategy file from llmpq-algo (required)
  --device_names LIST      comma-separated GPU types, e.g. T4-16G,V100-32G
  --device_numbers LIST    comma-separated counts, same arity
  --jitter X               multiplicative timing jitter stddev (default 0)
  --seed N                 jitter seed                         (default 11)
  --csv                    emit the stage table as CSV
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
    const auto path = args.get("strat_file_name");
    check_arg(path.has_value(), "--strat_file_name is required");
    std::ifstream in(*path);
    check_arg(in.good(), "cannot open " + *path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const ExecutionPlan plan = ExecutionPlan::deserialize(buffer.str());
    const ModelSpec& model = model_registry_get(plan.model_name);

    const auto names = split_csv(args.get_or("device_names", ""));
    const auto numbers = split_csv(args.get_or("device_numbers", ""));
    check_arg(!names.empty() && names.size() == numbers.size(),
              "--device_names/--device_numbers are required and must match");
    std::vector<std::pair<std::string, int>> gpus;
    for (std::size_t i = 0; i < names.size(); ++i) {
      const int count = parse_int_token(numbers[i], "--device_numbers");
      check_arg(count >= 1, "--device_numbers: counts must be >= 1, got " +
                                numbers[i]);
      gpus.emplace_back(names[i], count);
    }
    const ClusterSpec cluster = make_cluster(plan.cluster_name, gpus);
    plan.validate(model.layers, cluster.num_devices());

    SimOptions sim_options;
    sim_options.jitter = args.get_double("jitter", 0.0);
    sim_options.seed = static_cast<std::uint64_t>(args.get_long("seed", 11));
    const SimResult sim = simulate_plan(model, cluster, plan, sim_options);
    if (!sim.ok) {
      std::fprintf(stderr, "llmpq-dist: launch failed: %s\n",
                   sim.error.c_str());
      return 2;
    }

    std::printf("%s", plan.to_string().c_str());
    std::printf("\nserving run (%s, batch %d, s=%d, n=%d):\n",
                cluster.describe_devices().c_str(),
                plan.workload.global_batch, plan.workload.prompt_len,
                plan.workload.gen_tokens);
    std::printf("  prefill latency: %.2f s\n", sim.prefill_latency_s);
    std::printf("  end-to-end:      %.2f s\n", sim.e2e_latency_s);
    std::printf("  throughput:      %.1f tokens/s\n",
                sim.throughput_tokens_per_s);
    std::printf("  perplexity:      %.3f (FP16 reference %.3f)\n\n",
                plan_ppl(model, plan.layer_bits), model.ppl_fp16);

    Table stages({"Stage", "Device", "Layers", "Busy (s)", "Utilization",
                  "Peak mem (GiB)"});
    for (int p = 0; p < plan.num_stages(); ++p) {
      const int dev = plan.device_order[static_cast<std::size_t>(p)];
      stages.add_row(
          {std::to_string(p),
           cluster.devices[static_cast<std::size_t>(dev)].gpu_name,
           std::to_string(plan.stage_size(p)),
           Table::fmt(sim.stage_busy_s[static_cast<std::size_t>(p)]),
           Table::fmt(sim.stage_utilization[static_cast<std::size_t>(p)], 3),
           Table::fmt(static_cast<double>(
                          sim.stage_peak_mem[static_cast<std::size_t>(p)]) /
                          static_cast<double>(GiB),
                      2)});
    }
    std::printf("%s", args.has("csv") ? stages.to_csv().c_str()
                                      : stages.to_string().c_str());
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "llmpq-dist: %s\n%s", e.what(), kUsage);
    return 1;
  }
}
