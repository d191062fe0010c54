// High-level one-call interface for solving SPD systems.
//
// Wraps the method-selection guidance of the paper into a single entry
// point:
//  * low accuracy (the big-data regime of Section 9): plain AsyRGS with
//    occasional synchronization — basic iterations converge quickly at
//    first and scale best;
//  * high accuracy: AsyRGS as a preconditioner inside flexible CG, "most
//    suitable when only moderate accuracy is sought ... or when we use the
//    algorithm as a preconditioner in a flexible Krylov method";
//  * non-unit diagonals are handled transparently (Section 3 rescaling is
//    built into the coordinate update).
//
// solve_spd is a thin wrapper over a temporary prepared handle; when the
// same matrix is solved repeatedly (many right-hand sides against one
// operator), construct an asyrgs::SpdProblem (asyrgs/problem.hpp) once
// instead and call its solve() per request — the analysis, validation, and
// scratch setup this function re-pays per call are then amortized.
#pragma once

#include <string>
#include <vector>

#include "asyrgs/core/async_rgs.hpp"
#include "asyrgs/problem.hpp"
#include "asyrgs/sparse/csr.hpp"
#include "asyrgs/support/thread_pool.hpp"

namespace asyrgs {

// SpdMethod lives in asyrgs/problem.hpp (shared with the prepared-handle
// API) and is re-exported here for existing includes of this header.

/// Options for solve_spd.
struct SpdSolveOptions {
  SpdMethod method = SpdMethod::kAuto;
  double rel_tol = 1e-8;    ///< target on ||b - Ax|| / ||b||
  int max_iterations = 0;   ///< sweeps (AsyRGS) / outer iterations; 0 = auto
  int threads = 0;          ///< 0 = all cores
  int inner_sweeps = 2;     ///< preconditioner sweeps for kFcgAsyRgs
  std::uint64_t seed = 1;
  /// Verify symmetry and positive diagonal before solving; recommended for
  /// user-supplied matrices.  The symmetry check builds A^T through the
  /// matrix's shared transpose cache, so repeated solves against one matrix
  /// validate cheaply — at the cost of ~nnz extra memory retained for the
  /// matrix's lifetime.  Set false for trusted/generated matrices (or when
  /// that footprint matters).
  bool check_input = true;
};

/// Outcome of solve_spd.
struct SpdSolveSummary {
  SpdMethod method_used = SpdMethod::kAuto;
  bool converged = false;
  int iterations = 0;  ///< sweeps or outer iterations, per method
  double relative_residual = 0.0;
  double seconds = 0.0;
  std::string description;  ///< human-readable method summary
  /// Structured outcome (SolveStatus enum and friends) from the underlying
  /// prepared-handle solve; `status` disambiguates "budget ran out" from
  /// "tolerance missed" beyond the legacy `converged` bool.
  SolveStatus status = SolveStatus::kBudgetCompleted;
};

/// Solves SPD A x = b starting from `x` (in place).  With kAuto the method
/// is AsyRGS when rel_tol >= 1e-4 (the low-accuracy regime where basic
/// iterations shine) and FCG+AsyRGS otherwise.
SpdSolveSummary solve_spd(ThreadPool& pool, const CsrMatrix& a,
                          const std::vector<double>& b, std::vector<double>& x,
                          const SpdSolveOptions& options = {});

}  // namespace asyrgs
