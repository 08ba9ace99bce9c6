#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "perfbench.hpp"

namespace perfbench {

using namespace llmpq;

ModelSpec model_spec() {
  ModelSpec spec;
  spec.name = "perfbench-8l";
  spec.family = "opt";
  spec.hidden = 256;
  spec.ffn = 1024;
  spec.heads = 8;
  spec.layers = 8;
  spec.vocab = 512;
  spec.max_pos = 512;
  return spec;
}

std::vector<int> layer_bits() { return {8, 8, 4, 4, 16, 16, 4, 4}; }

std::vector<std::pair<int, int>> stage_layers() { return {{0, 4}, {4, 8}}; }

OnlineEngineOptions serve_options(const WorkloadSpec& w) {
  OnlineEngineOptions o;
  o.scheduler.policy = SchedulerPolicy::kIterationLevel;
  o.scheduler.exec = DecodeExec::kContinuous;
  o.scheduler.max_batch = 16;
  o.scheduler.kv_page_size = 16;
  o.scheduler.kv_pages = w.kv_pages;
  return o;
}

WorkloadSpec workload_spec(const std::string& name, int seconds) {
  check_arg(seconds >= 1, "--seconds must be >= 1");
  WorkloadSpec w;
  w.name = name;
  if (name == "chat") {
    w.rate = 4.0;
    w.prompt_lo = 8, w.prompt_hi = 48;
    w.gen_lo = 32, w.gen_hi = 96;
  } else if (name == "batch") {
    w.open_loop = false;
    w.rate = 3.0;
    w.prompt_lo = 16, w.prompt_hi = 256;
    w.gen_lo = 16, w.gen_hi = 128;
    w.kv_pages = 200;
  } else {
    throw InvalidArgumentError("unknown workload '" + name +
                               "' (known: chat, batch)");
  }
  w.requests = static_cast<int>(std::lround(w.rate * seconds));
  return w;
}

namespace {

/// Requests per block of the trace; each block draws its lengths
/// stratified on its own, so every stretch of traffic has the same mix.
constexpr int kBlock = 10;
/// Open-loop arrival jitter, as a share of the mean gap: request i is due
/// uniformly within the middle 80% of its slot [i, i+1) / rate.
constexpr double kJitter = 0.8;

/// `n` draws from U[lo, hi], one per stratum of equal width, shuffled.
std::vector<int> stratified(int n, int lo, int hi, Rng& rng) {
  std::vector<int> out(static_cast<std::size_t>(n));
  const double width = static_cast<double>(hi - lo + 1) / n;
  for (int i = 0; i < n; ++i) {
    const int v = lo + static_cast<int>((i + rng.uniform()) * width);
    out[static_cast<std::size_t>(i)] = std::min(v, hi);
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

}  // namespace

std::vector<Request> make_trace(const WorkloadSpec& w, int vocab,
                                std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  const int n = w.requests;
  std::vector<int> prompts, gens;
  for (int b = 0; b < n; b += kBlock) {
    const int m = std::min(kBlock, n - b);
    for (int v : stratified(m, w.prompt_lo, w.prompt_hi, rng)) prompts.push_back(v);
    for (int v : stratified(m, w.gen_lo, w.gen_hi, rng)) gens.push_back(v);
  }
  std::vector<Request> trace(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < trace.size(); ++i) {
    Request& r = trace[i];
    if (w.open_loop)
      r.due_s = (static_cast<double>(i) + 0.5 + kJitter * (rng.uniform() - 0.5)) /
                w.rate;
    r.gen = gens[i];
    r.prompt.resize(static_cast<std::size_t>(prompts[i]));
    for (TokenId& t : r.prompt)
      t = static_cast<TokenId>(rng.uniform_int(0, vocab - 1));
  }
  return trace;
}

}  // namespace perfbench
