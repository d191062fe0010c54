#include "asyrgs/iter/gauss_seidel.hpp"

#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/support/timer.hpp"

namespace asyrgs {

void sor_sweep(const CsrMatrix& a, const std::vector<double>& b,
               std::vector<double>& x, double omega) {
  require(a.square(), "sor_sweep: matrix must be square");
  require(static_cast<index_t>(b.size()) == a.rows() && x.size() == b.size(),
          "sor_sweep: shape mismatch");
  require(omega > 0.0 && omega < 2.0, "sor_sweep: omega must be in (0, 2)");
  const index_t n = a.rows();
  for (index_t i = 0; i < n; ++i) {
    double diag = 0.0;
    double acc = b[i];
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t t = 0; t < cols.size(); ++t) {
      if (cols[t] == i)
        diag = vals[t];
      else
        acc -= vals[t] * x[cols[t]];
    }
    require(diag != 0.0, "sor_sweep: zero diagonal entry");
    // acc now equals b_i - sum_{j != i} A_ij x_j; the update solves row i
    // exactly when omega = 1.
    x[i] = (1.0 - omega) * x[i] + omega * acc / diag;
  }
}

SolveReport gauss_seidel_solve(const CsrMatrix& a, const std::vector<double>& b,
                               std::vector<double>& x,
                               const SolveOptions& options, double omega) {
  require(options.max_iterations >= 0,
          "gauss_seidel_solve: max_iterations must be non-negative");
  if (options.max_iterations == 0)
    return zero_budget_report(relative_residual(a, b, x), options);
  WallTimer timer;
  SolveReport report;
  for (int it = 1; it <= options.max_iterations; ++it) {
    sor_sweep(a, b, x, omega);
    report.iterations = it;
    const double rel = relative_residual(a, b, x);
    report.final_relative_residual = rel;
    if (options.track_history) report.residual_history.push_back(rel);
    if (rel <= options.rel_tol) {
      report.converged = true;
      break;
    }
  }
  report.seconds = timer.seconds();
  return report;
}

}  // namespace asyrgs
