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
/// Gauss-Seidel iteration" (Section 3).
struct SolveOptions {
  int max_iterations = 1000;
  double rel_tol = 1e-8;       ///< target on ||b - Ax||_2 / ||b||_2
  bool track_history = false;  ///< record relative residual per iteration
  int check_every = 1;         ///< convergence-check cadence (iterations)
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

}  // namespace asyrgs
