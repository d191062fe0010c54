// Shared option/report types for all solvers (classic and randomized).
//
// Both structs are plain values: copy them freely, no solver retains a
// reference past the call.  The asynchronous methods take the prepared
// handles' SolveControls/SolveOutcome (asyrgs/problem.hpp) instead, which
// add the worker/synchronization/sampling knobs this baseline set does not
// need.
#pragma once

#include <string>
#include <vector>

#include "asyrgs/support/common.hpp"

namespace asyrgs {

/// Options common to the iterative solvers.  "Iteration" means one outer
/// step for CG/Jacobi/Gauss-Seidel and one *sweep* (n coordinate updates)
/// for the randomized solvers, mirroring the paper's cost accounting: "n
/// iterations (which we refer to as a sweep) are about as costly as a single
/// Gauss-Seidel iteration" (Section 3).  Each solver checks rel_tol after
/// every iteration.  A negative max_iterations throws; a zero budget
/// returns x0 and reports its true metric (zero_budget_report), the rule
/// the prepared handles' SolveControls follow.
struct SolveOptions {
  int max_iterations = 1000;
  double rel_tol = 1e-8;       ///< target on ||b - Ax||_2 / ||b||_2
  bool track_history = false;  ///< record relative residual per iteration
};

/// Outcome of a solve.
struct SolveReport {
  int iterations = 0;
  bool converged = false;
  double final_relative_residual = 0.0;
  double seconds = 0.0;
  /// Relative residual after each convergence check, when tracked.
  std::vector<double> residual_history;
};

/// The report of a zero-iteration solve, which returns x0 unchanged: x0's
/// convergence metric, converged when that already meets rel_tol.
inline SolveReport zero_budget_report(double metric,
                                      const SolveOptions& options) {
  SolveReport report;
  report.final_relative_residual = metric;
  report.converged = metric <= options.rel_tol;
  return report;
}

}  // namespace asyrgs
