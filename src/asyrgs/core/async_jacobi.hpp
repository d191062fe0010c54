// Asynchronous Jacobi ("chaotic relaxation", Chazan & Miranker 1969).
//
// The historical baseline the paper's introduction positions against: each
// worker repeatedly relaxes its block of coordinates in place,
//
//   x_i <- (b_i - sum_{j != i} A_ij x_j) / A_ii ,
//
// reading whatever values of x other workers have most recently published.
// Convergence requires rho(|M|) < 1 for the Jacobi iteration matrix
// M = D^{-1}(D - A) — essentially diagonal dominance; on a general SPD
// matrix the iteration may diverge, which is exactly the applicability gap
// randomization closes.  Kept deliberately faithful to the classic scheme:
// deterministic coordinate order, no randomization.
#pragma once

#include "asyrgs/problem.hpp"
#include "asyrgs/sparse/csr.hpp"
#include "asyrgs/support/thread_pool.hpp"

namespace asyrgs {

/// Coordinate-ownership layout for chaotic relaxation.
enum class JacobiOwnership {
  kContiguous,  ///< worker w owns a contiguous block of rows (classic)
  kRoundRobin,  ///< worker w owns rows w, w+P, w+2P, ... — adjacent rows
                ///< update concurrently from each other's stale values,
                ///< which maximizes the Jacobi-like simultaneity
};

/// Options for chaotic relaxation.
struct AsyncJacobiOptions {
  int sweeps = 10;    ///< each worker performs `sweeps` passes over its rows
  int workers = 0;    ///< 0 = pool capacity
  double damping = 1.0;  ///< under-relaxation factor in (0, 1]
  JacobiOwnership ownership = JacobiOwnership::kContiguous;
};

/// Runs asynchronous Jacobi on A x = b starting from `x` (in place).
/// Reports in the handles' SolveOutcome shape for uniform benchmarking: a
/// fixed budget with no residual check, so the status is always
/// kBudgetCompleted and relative_residual stays 0.
SolveOutcome async_jacobi_solve(ThreadPool& pool, const CsrMatrix& a,
                                const std::vector<double>& b,
                                std::vector<double>& x,
                                const AsyncJacobiOptions& options = {});

}  // namespace asyrgs
