#include "cost/latency_model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace llmpq {

std::vector<double> LatencyModel::features(Phase phase, int batch,
                                           int seq_or_ctx) {
  const double b = static_cast<double>(batch);
  const double s = static_cast<double>(seq_or_ctx);
  if (phase == Phase::kPrefill) return {1.0, b * s, b * s * s};
  return {1.0, b, b * s};
}

void LatencyModel::fit(const std::vector<ProfileRecord>& records) {
  std::map<Key, std::pair<std::vector<std::vector<double>>,
                          std::vector<double>>>
      groups;
  for (const auto& r : records) {
    Key key{r.gpu_name, r.bits, static_cast<int>(r.phase)};
    auto& [feats, ys] = groups[key];
    feats.push_back(features(r.phase, r.batch, r.seq_or_ctx));
    ys.push_back(r.time_s);
  }
  for (auto& [key, data] : groups) {
    auto& [feats, ys] = data;
    check_arg(feats.size() >= 4, "LatencyModel::fit: too few samples");
    const OlsFit fit = ols_fit(feats, ys);
    beta_[key] = fit.beta;
    worst_rel_error_ = std::max(worst_rel_error_, fit.mean_abs_rel_error);
    rel_error_sum_ += fit.mean_abs_rel_error;
    ++fit_count_;
  }
}

double LatencyModel::predict(const std::string& gpu_name, int bits,
                             Phase phase, int batch, int seq_or_ctx) const {
  const auto it = beta_.find(Key{gpu_name, bits, static_cast<int>(phase)});
  check_arg(it != beta_.end(),
            "LatencyModel::predict: no fit for " + gpu_name);
  const double pred =
      ols_predict(it->second, features(phase, batch, seq_or_ctx));
  return std::max(pred, 1e-7);  // latencies cannot be negative
}

}  // namespace llmpq
