#pragma once

#include <limits>
#include <string>
#include <vector>

namespace llmpq {

inline constexpr double kLpInf = std::numeric_limits<double>::infinity();

/// Linear program in the form
///   minimize    c^T x
///   subject to  row_i: a_i^T x  (<= | >= | =)  b_i
///               lower_j <= x_j <= upper_j
/// Rows hold sparse coefficient lists. This mirrors the slice of the Gurobi
/// API the paper's assigner uses.
class LpProblem {
 public:
  enum class RowType { kLe, kGe, kEq };

  struct Row {
    std::vector<std::pair<int, double>> coeffs;
    RowType type = RowType::kLe;
    double rhs = 0.0;
    std::string name;
  };

  /// Adds a variable, returns its column index.
  int add_var(double lower, double upper, double objective,
              std::string name = {});

  /// Adds a binary (0/1) variable — bound sugar; integrality is tracked by
  /// MilpProblem, not here.
  int add_binary(double objective, std::string name = {});

  void add_row(std::vector<std::pair<int, double>> coeffs, RowType type,
               double rhs, std::string name = {});

  int num_vars() const { return static_cast<int>(lower_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }

  const std::vector<double>& objective() const { return objective_; }
  const std::vector<double>& lower() const { return lower_; }
  const std::vector<double>& upper() const { return upper_; }
  const std::vector<Row>& rows() const { return rows_; }
  const std::string& var_name(int j) const { return names_[static_cast<std::size_t>(j)]; }

  void set_bounds(int var, double lower, double upper);

 private:
  std::vector<double> objective_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<std::string> names_;
  std::vector<Row> rows_;
};

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterLimit };

struct LpSolution {
  LpStatus status = LpStatus::kIterLimit;
  double objective = 0.0;
  std::vector<double> x;
  int iterations = 0;
};

const char* lp_status_name(LpStatus status);

}  // namespace llmpq
