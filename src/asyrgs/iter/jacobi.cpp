#include "asyrgs/iter/jacobi.hpp"

#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/linalg/vector_ops.hpp"
#include "asyrgs/sparse/spmv.hpp"
#include "asyrgs/support/timer.hpp"

namespace asyrgs {

SolveReport jacobi_solve(ThreadPool& pool, const CsrMatrix& a,
                         const std::vector<double>& b, std::vector<double>& x,
                         const SolveOptions& options, int workers) {
  require(a.square(), "jacobi_solve: matrix must be square");
  require(static_cast<index_t>(b.size()) == a.rows() && x.size() == b.size(),
          "jacobi_solve: shape mismatch");
  require(options.max_iterations >= 0,
          "jacobi_solve: max_iterations must be non-negative");
  const index_t n = a.rows();

  const std::vector<double> diag = a.diagonal();
  for (double d : diag)
    require(d != 0.0, "jacobi_solve: zero diagonal entry");
  if (options.max_iterations == 0)
    return zero_budget_report(relative_residual(a, b, x), options);

  WallTimer timer;
  SolveReport report;
  const double b_norm = nrm2(b);
  std::vector<double> r(static_cast<std::size_t>(n));

  for (int it = 1; it <= options.max_iterations; ++it) {
    // r = b - A x, then x += D^{-1} r, fused in one parallel pass per stage.
    spmv(pool, a, x.data(), r.data(), workers);
    pool.parallel_for(
        0, n,
        [&](index_t lo, index_t hi) {
          for (index_t i = lo; i < hi; ++i) {
            r[i] = b[i] - r[i];
            x[i] += r[i] / diag[i];
          }
        },
        workers);
    report.iterations = it;

    // ||r||_2 was computed before the update; it is the residual of the
    // *previous* iterate, which is the standard practical check.
    const double rel = b_norm > 0.0 ? nrm2(r) / b_norm : nrm2(r);
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
