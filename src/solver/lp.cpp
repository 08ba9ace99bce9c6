#include "solver/lp.hpp"

#include "common/error.hpp"

namespace llmpq {

int LpProblem::add_var(double lower, double upper, double objective,
                       std::string name) {
  check_arg(lower <= upper, "LpProblem::add_var: empty bound interval");
  lower_.push_back(lower);
  upper_.push_back(upper);
  objective_.push_back(objective);
  // Built by append: GCC 12's -Wrestrict misfires on "x" + std::string.
  names_.push_back(name.empty()
                       ? std::string("x").append(std::to_string(num_vars() - 1))
                       : std::move(name));
  return num_vars() - 1;
}

int LpProblem::add_binary(double objective, std::string name) {
  return add_var(0.0, 1.0, objective, std::move(name));
}

void LpProblem::add_row(std::vector<std::pair<int, double>> coeffs,
                        RowType type, double rhs, std::string name) {
  for (const auto& [col, coef] : coeffs) {
    check_arg(col >= 0 && col < num_vars(), "LpProblem::add_row: bad column");
    (void)coef;
  }
  rows_.push_back(Row{std::move(coeffs), type, rhs, std::move(name)});
}

void LpProblem::set_bounds(int var, double lower, double upper) {
  check_arg(var >= 0 && var < num_vars(), "set_bounds: bad var");
  check_arg(lower <= upper, "set_bounds: empty interval");
  lower_[static_cast<std::size_t>(var)] = lower;
  upper_[static_cast<std::size_t>(var)] = upper;
}

const char* lp_status_name(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kInfeasible:
      return "infeasible";
    case LpStatus::kUnbounded:
      return "unbounded";
    case LpStatus::kIterLimit:
      return "iteration-limit";
  }
  return "?";
}

}  // namespace llmpq
