#include "asyrgs/iter/cg.hpp"

#include <cmath>

#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/linalg/vector_ops.hpp"
#include "asyrgs/sparse/spmv.hpp"
#include "asyrgs/support/timer.hpp"

namespace asyrgs {

SolveReport cg_solve(ThreadPool& pool, const CsrMatrix& a,
                     const std::vector<double>& b, std::vector<double>& x,
                     const SolveOptions& options, Preconditioner* precond,
                     int workers) {
  require(a.square(), "cg_solve: matrix must be square");
  require(static_cast<index_t>(b.size()) == a.rows() && x.size() == b.size(),
          "cg_solve: shape mismatch");
  require(options.max_iterations >= 0,
          "cg_solve: max_iterations must be non-negative");
  if (options.max_iterations == 0)
    return zero_budget_report(relative_residual(a, b, x), options);
  const index_t n = a.rows();

  WallTimer timer;
  SolveReport report;
  const double b_norm = nrm2(b);
  if (b_norm == 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    report.converged = true;
    report.seconds = timer.seconds();
    return report;
  }

  std::vector<double> r(static_cast<std::size_t>(n));
  std::vector<double> z(static_cast<std::size_t>(n));
  std::vector<double> p(static_cast<std::size_t>(n));
  std::vector<double> ap(static_cast<std::size_t>(n));

  spmv(pool, a, x.data(), r.data(), workers);
  for (index_t i = 0; i < n; ++i) r[i] = b[i] - r[i];

  auto apply_precond = [&](const std::vector<double>& in,
                           std::vector<double>& out) {
    if (precond != nullptr)
      precond->apply(in, out);
    else
      out = in;
  };

  apply_precond(r, z);
  p = z;
  double rz = dot(r, z);

  for (int it = 1; it <= options.max_iterations; ++it) {
    spmv(pool, a, p.data(), ap.data(), workers);
    const double p_ap = dot(p, ap);
    if (p_ap <= 0.0) {
      // Indefinite (or numerically breaking-down) system: stop honestly.
      report.converged = false;
      break;
    }
    const double alpha = rz / p_ap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    report.iterations = it;

    const double rel = nrm2(r) / b_norm;
    if (options.track_history) report.residual_history.push_back(rel);
    report.final_relative_residual = rel;
    if (rel <= options.rel_tol) {
      report.converged = true;
      break;
    }

    apply_precond(r, z);
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (index_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  report.seconds = timer.seconds();
  return report;
}

}  // namespace asyrgs
