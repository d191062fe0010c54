// Randomized coordinate descent for overdetermined least squares, and its
// asynchronous variant (paper Section 8, iterations (20)/(21), Theorem 5).
//
// Problem: min_x ||A x - b||_2 with A (m x n, m >= n) of full column rank.
// The method is stochastic coordinate descent on f(x) = ||Ax - b||^2, i.e.
// randomized Gauss-Seidel applied to the normal equations A^T A x = A^T b
// without forming A^T A:
//
//   pick column j at random
//   gamma = A_{:,j}^T (b - A x) / ||A_{:,j}||_2^2
//   x_j  += beta * gamma
//
// The sequential form (iteration (20)) keeps the residual r = b - Ax
// up to date, costing O(nnz(column j)).  The asynchronous form cannot: "updates
// to r cannot be atomic, so ... the necessary entries of the residual have
// to be computed in each iteration" (Section 8) — each update re-reads the
// touched rows of A, costing O(sum of row sizes over the column's rows).
// Theorem 5 transfers the Theorem 4 bound with X = A^T A, kappa(A)^2 in
// place of kappa.
//
// The asynchronous form runs through the prepared handle LsqProblem
// (asyrgs/problem.hpp), which pays the transpose and the column norms once;
// its kernels live in core/kernels.hpp.  This header keeps the sequential
// reference solver.
#pragma once

#include "asyrgs/core/rgs.hpp"
#include "asyrgs/sparse/csr.hpp"

namespace asyrgs {

/// Sequential randomized coordinate descent for least squares
/// (iteration (20) with residual maintenance).  One reported sweep =
/// n column updates.  Convergence metric: ||A^T r|| / ||A^T b||.
RgsReport rcd_lsq_solve(const CsrMatrix& a, const std::vector<double>& b,
                        std::vector<double>& x, const RgsOptions& options = {});

}  // namespace asyrgs
