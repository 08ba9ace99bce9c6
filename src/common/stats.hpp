#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace llmpq {

/// Streaming mean/variance accumulator (Welford). Used by calibration
/// statistics and by the profiler's noise estimates.
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Population variance (n divisor); 0 for fewer than 2 samples.
  double variance() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);

/// Percentile with linear interpolation; p in [0, 100].
double percentile(std::vector<double> xs, double p);

/// Ordinary least squares: fits y ~ X * beta (no implicit intercept; append
/// a ones column yourself if you want one). Returns beta of size X.cols().
/// Solved via normal equations + Cholesky with automatic ridging, which is
/// plenty for the small, well-scaled designs the latency model produces.
struct OlsFit {
  std::vector<double> beta;
  double r2 = 0.0;                 ///< coefficient of determination
  double max_abs_residual = 0.0;   ///< worst-case training error
  double mean_abs_rel_error = 0.0; ///< mean |resid| / |y|, y != 0 rows only
};

OlsFit ols_fit(const std::vector<std::vector<double>>& features,
               const std::vector<double>& targets);

/// Dot product of a fitted beta with a feature row.
double ols_predict(const std::vector<double>& beta,
                   const std::vector<double>& features);

}  // namespace llmpq
