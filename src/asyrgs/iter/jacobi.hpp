// Jacobi iteration (synchronous baseline).
//
// x_{k+1} = x_k + D^{-1} (b - A x_k).  Converges for matrices whose Jacobi
// iteration matrix has spectral radius < 1 (e.g. strictly diagonally
// dominant systems) — the restricted class that historical asynchronous
// theory was limited to, which the paper's randomized approach escapes.
// The asynchronous counterpart (chaotic relaxation) is
// SpdMethod::kAsyncJacobi on the prepared SpdProblem handle
// (asyrgs/problem.hpp), which runs the AsyRGS update over a cyclic order of
// owned rows on the shared engine.
#pragma once

#include "asyrgs/iter/solver_base.hpp"
#include "asyrgs/sparse/csr.hpp"
#include "asyrgs/support/thread_pool.hpp"

namespace asyrgs {

/// Runs Jacobi on Ax = b starting from `x` (updated in place).
SolveReport jacobi_solve(ThreadPool& pool, const CsrMatrix& a,
                         const std::vector<double>& b, std::vector<double>& x,
                         const SolveOptions& options = {}, int workers = 0);

}  // namespace asyrgs
