#include "asyrgs/iter/fcg.hpp"

#include <deque>

#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/linalg/vector_ops.hpp"
#include "asyrgs/sparse/spmv.hpp"
#include "asyrgs/support/timer.hpp"

namespace asyrgs {

FcgReport fcg_solve(ThreadPool& pool, const CsrMatrix& a,
                    const std::vector<double>& b, std::vector<double>& x,
                    Preconditioner& precond, const FcgOptions& options,
                    int workers) {
  require(a.square(), "fcg_solve: matrix must be square");
  require(static_cast<index_t>(b.size()) == a.rows() && x.size() == b.size(),
          "fcg_solve: shape mismatch");
  const index_t n = a.rows();
  const SolveOptions& base = options.base;
  require(base.max_iterations >= 0,
          "fcg_solve: max_iterations must be non-negative");
  if (base.max_iterations == 0) {
    FcgReport report;
    report.base = zero_budget_report(relative_residual(a, b, x), base);
    return report;
  }

  WallTimer timer;
  FcgReport report;
  const double b_norm = nrm2(b);
  if (b_norm == 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    report.base.converged = true;
    report.base.seconds = timer.seconds();
    return report;
  }

  std::vector<double> r(static_cast<std::size_t>(n));
  std::vector<double> z(static_cast<std::size_t>(n));
  spmv(pool, a, x.data(), r.data(), workers);
  for (index_t i = 0; i < n; ++i) r[i] = b[i] - r[i];

  // Stored direction history: directions p_j, their images A p_j, and the
  // curvatures (p_j, A p_j).
  struct Direction {
    std::vector<double> p;
    std::vector<double> ap;
    double p_ap;
  };
  std::deque<Direction> history;

  for (int it = 1; it <= base.max_iterations; ++it) {
    precond.apply(r, z);
    ++report.preconditioner_applications;

    // p = z - sum_j ((z, A p_j)/(p_j, A p_j)) p_j.
    std::vector<double> p = z;
    for (const Direction& d : history) {
      const double coeff = dot(z, d.ap) / d.p_ap;
      axpy(-coeff, d.p, p);
    }

    std::vector<double> ap(static_cast<std::size_t>(n));
    spmv(pool, a, p.data(), ap.data(), workers);
    const double p_ap = dot(p, ap);
    if (p_ap <= 0.0) break;  // numerical breakdown; report non-convergence

    const double alpha = dot(p, r) / p_ap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    report.base.iterations = it;

    const double rel = nrm2(r) / b_norm;
    report.base.final_relative_residual = rel;
    if (base.track_history) report.base.residual_history.push_back(rel);
    if (rel <= base.rel_tol) {
      report.base.converged = true;
      break;
    }

    history.push_back(Direction{std::move(p), std::move(ap), p_ap});
    if (options.truncation > 0 &&
        static_cast<int>(history.size()) > options.truncation)
      history.pop_front();
  }

  report.base.seconds = timer.seconds();
  return report;
}

}  // namespace asyrgs
