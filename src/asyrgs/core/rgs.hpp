// Sequential Randomized Gauss-Seidel (Leventhal & Lewis / Griebel & Oswald).
//
// The synchronous iteration underlying AsyRGS (paper Section 3).  Each step
// picks a coordinate r uniformly at random and solves equation r exactly
// (step size beta = 1) or takes a relaxed step (0 < beta < 2):
//
//   gamma = (b_r - A_r x) / A_rr,      x_r += beta * gamma .
//
// This is iteration (3) of the paper, which handles an arbitrary positive
// diagonal; when A has unit diagonal it reduces to iteration (1).  The
// expected squared A-norm error contracts per step by the Griebel-Oswald
// factor (equation (2)):
//
//   E_m <= (1 - beta(2-beta) lambda_min / n)^m ||x_0 - x*||_A^2 .
//
// Directions come from the random-access Philox stream keyed by `seed`, so
// the asynchronous solver run with the same seed consumes the *identical*
// direction multiset (the paper's Section 9 methodology); with one worker
// the trajectories agree step for step.
#pragma once

#include <cstdint>
#include <vector>

#include "asyrgs/linalg/multivector.hpp"
#include "asyrgs/sparse/csr.hpp"

namespace asyrgs {

/// Options for the randomized Gauss-Seidel family (sequential and async).
struct RgsOptions {
  int sweeps = 10;           ///< each sweep = n coordinate updates; negative
                             ///< throws, 0 returns x0 and reports its metric
  double step_size = 1.0;    ///< beta in (0, 2)
  std::uint64_t seed = 1;    ///< keys the Philox direction stream
  bool track_history = false;///< record relative residual after each sweep
  double rel_tol = 0.0;      ///< >0: stop when relative residual reached
                             ///< (checked after each sweep; costs one SpMV)
};

/// Outcome of a randomized Gauss-Seidel run.
struct RgsReport {
  int sweeps_done = 0;
  long long updates = 0;  ///< total coordinate updates performed
  double seconds = 0.0;
  bool converged = false;              ///< only meaningful when rel_tol > 0
  double final_relative_residual = 0.0;///< filled when history or tol active
  std::vector<double> residual_history;///< per sweep, when tracked
};

namespace detail {

/// The report of a zero-sweep run, which leaves x0 unchanged: when rel_tol
/// or track_history asks for a metric, x0's (`metric()`), converged when it
/// meets rel_tol — the rule zero_budget_report keeps for SolveOptions.
template <class Metric>
[[nodiscard]] RgsReport zero_sweep_report(const RgsOptions& options,
                                          Metric metric) {
  RgsReport report;
  if (options.track_history || options.rel_tol > 0.0) {
    report.final_relative_residual = metric();
    report.converged = options.rel_tol > 0.0 &&
                       report.final_relative_residual <= options.rel_tol;
  }
  return report;
}

}  // namespace detail

/// Runs sequential randomized Gauss-Seidel on SPD A x = b starting from `x`
/// (updated in place).  Requires a strictly positive diagonal.
RgsReport rgs_solve(const CsrMatrix& a, const std::vector<double>& b,
                    std::vector<double>& x, const RgsOptions& options = {});

/// Block variant: all columns of X updated for the chosen row in one fused
/// pass (the 51-right-hand-side setting of Section 9).
RgsReport rgs_solve_block(const CsrMatrix& a, const MultiVector& b,
                          MultiVector& x, const RgsOptions& options = {});

/// Griebel-Oswald per-update contraction factor
/// 1 - beta(2-beta) lambda_min / n (equation (2)); exposed for tests and the
/// theory module.
[[nodiscard]] double rgs_contraction_factor(index_t n, double lambda_min,
                                            double step_size);

}  // namespace asyrgs
