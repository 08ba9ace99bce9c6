#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/matrix.hpp"

namespace llmpq {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  RunningStats rs;
  for (double x : xs) rs.add(x);
  return rs.variance();
}

double percentile(std::vector<double> xs, double p) {
  check_arg(!xs.empty(), "percentile: empty sample");
  check_arg(p >= 0.0 && p <= 100.0, "percentile: p out of range");
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  const double idx = p / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

OlsFit ols_fit(const std::vector<std::vector<double>>& features,
               const std::vector<double>& targets) {
  check_arg(!features.empty(), "ols_fit: no rows");
  check_arg(features.size() == targets.size(),
            "ols_fit: rows/targets mismatch");
  const std::size_t n = features.size();
  const std::size_t k = features.front().size();
  check_arg(k > 0, "ols_fit: no features");
  for (const auto& row : features)
    check_arg(row.size() == k, "ols_fit: ragged feature rows");

  // Normal equations: (X^T X) beta = X^T y.
  Matrix xtx(k, k, 0.0);
  std::vector<double> xty(k, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& row = features[i];
    for (std::size_t a = 0; a < k; ++a) {
      xty[a] += row[a] * targets[i];
      for (std::size_t b = a; b < k; ++b) xtx(a, b) += row[a] * row[b];
    }
  }
  for (std::size_t a = 0; a < k; ++a)
    for (std::size_t b = 0; b < a; ++b) xtx(a, b) = xtx(b, a);

  OlsFit fit;
  fit.beta = Matrix::solve_spd(std::move(xtx), std::move(xty));

  double ss_res = 0.0, ss_tot = 0.0, rel_sum = 0.0;
  std::size_t rel_n = 0;
  const double ybar = mean(targets);
  for (std::size_t i = 0; i < n; ++i) {
    const double pred = ols_predict(fit.beta, features[i]);
    const double resid = targets[i] - pred;
    ss_res += resid * resid;
    ss_tot += (targets[i] - ybar) * (targets[i] - ybar);
    fit.max_abs_residual = std::max(fit.max_abs_residual, std::fabs(resid));
    if (std::fabs(targets[i]) > 1e-12) {
      rel_sum += std::fabs(resid) / std::fabs(targets[i]);
      ++rel_n;
    }
  }
  fit.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  fit.mean_abs_rel_error = rel_n > 0 ? rel_sum / static_cast<double>(rel_n) : 0.0;
  return fit;
}

double ols_predict(const std::vector<double>& beta,
                   const std::vector<double>& features) {
  check_arg(beta.size() == features.size(), "ols_predict: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < beta.size(); ++i) s += beta[i] * features[i];
  return s;
}

}  // namespace llmpq
