#include "asyrgs/iter/kaczmarz.hpp"

#include <algorithm>
#include <cmath>

#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/linalg/vector_ops.hpp"
#include "asyrgs/sparse/spmv.hpp"
#include "asyrgs/support/prng.hpp"
#include "asyrgs/support/timer.hpp"

namespace asyrgs {

SolveReport kaczmarz_solve(const CsrMatrix& a, const std::vector<double>& b,
                           std::vector<double>& x, const SolveOptions& options,
                           std::uint64_t seed) {
  require(static_cast<index_t>(b.size()) == a.rows() &&
              static_cast<index_t>(x.size()) == a.cols(),
          "kaczmarz_solve: shape mismatch");
  require(options.max_iterations >= 0,
          "kaczmarz_solve: max_iterations must be non-negative");
  const index_t m = a.rows();

  // Row sampling proportional to squared row norms (Strohmer-Vershynin).
  std::vector<double> row_sq(static_cast<std::size_t>(m));
  std::vector<double> cdf(static_cast<std::size_t>(m));
  double acc = 0.0;
  for (index_t i = 0; i < m; ++i) {
    double s = 0.0;
    for (double v : a.row_vals(i)) s += v * v;
    row_sq[i] = s;
    acc += s;
    cdf[i] = acc;
  }
  require(acc > 0.0, "kaczmarz_solve: zero matrix");
  if (options.max_iterations == 0)
    return zero_budget_report(relative_residual(a, b, x), options);

  Xoshiro256 rng(seed);
  WallTimer timer;
  SolveReport report;
  const double b_norm = nrm2(b);

  for (int sweep = 1; sweep <= options.max_iterations; ++sweep) {
    for (index_t t = 0; t < m; ++t) {
      const double u = uniform_real(rng) * acc;
      const index_t i = static_cast<index_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      if (row_sq[i] == 0.0) continue;
      // Shared scan kernel (csr_row_sub_dot): acc = b_i, then one
      // subtraction per nonzero in column order — the identical association
      // the asynchronous KaczmarzUpdate's row scan runs, so a one-worker
      // async solve reproduces this sequential scan bit for bit.
      const auto cols = a.row_cols(i);
      const auto vals = a.row_vals(i);
      const double gamma =
          csr_row_sub_dot(b[i], cols.data(), vals.data(),
                          static_cast<nnz_t>(cols.size()), x.data()) /
          row_sq[i];
      for (std::size_t s = 0; s < cols.size(); ++s)
        x[cols[s]] += gamma * vals[s];
    }
    report.iterations = sweep;

    // Residual through the same row-scan kernel as the update (one pass, no
    // intermediate A x vector).
    std::vector<double> r(static_cast<std::size_t>(m));
    for (index_t i = 0; i < m; ++i) {
      const auto cols = a.row_cols(i);
      const auto vals = a.row_vals(i);
      r[i] = csr_row_sub_dot(b[i], cols.data(), vals.data(),
                             static_cast<nnz_t>(cols.size()), x.data());
    }
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

SolveReport cgnr_solve(ThreadPool& pool, const CsrMatrix& a,
                       const std::vector<double>& b, std::vector<double>& x,
                       const SolveOptions& options, int workers) {
  require(static_cast<index_t>(b.size()) == a.rows() &&
              static_cast<index_t>(x.size()) == a.cols(),
          "cgnr_solve: shape mismatch");
  require(options.max_iterations >= 0,
          "cgnr_solve: max_iterations must be non-negative");
  const index_t m = a.rows();
  const index_t n = a.cols();
  // The serial SpMVs below dominate; `pool`/`workers` are accepted for
  // interface uniformity and future parallel transposed products.
  (void)pool;
  (void)workers;

  WallTimer timer;
  SolveReport report;

  std::vector<double> r(static_cast<std::size_t>(m));   // b - A x
  std::vector<double> g(static_cast<std::size_t>(n));   // A^T r
  std::vector<double> p(static_cast<std::size_t>(n));
  std::vector<double> ap(static_cast<std::size_t>(m));  // A p

  a.multiply(x.data(), r.data());
  for (index_t i = 0; i < m; ++i) r[i] = b[i] - r[i];
  a.multiply_transpose(r.data(), g.data());

  std::vector<double> atb(static_cast<std::size_t>(n));
  a.multiply_transpose(b.data(), atb.data());
  const double g0_norm = nrm2(atb);
  if (g0_norm == 0.0) {
    report.converged = true;
    report.seconds = timer.seconds();
    return report;
  }

  if (options.max_iterations == 0)
    return zero_budget_report(nrm2(g) / g0_norm, options);
  p = g;
  double gg = dot(g, g);

  for (int it = 1; it <= options.max_iterations; ++it) {
    a.multiply(p.data(), ap.data());
    const double ap_ap = dot(ap, ap);
    if (ap_ap <= 0.0) break;
    const double alpha = gg / ap_ap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    a.multiply_transpose(r.data(), g.data());
    const double gg_next = dot(g, g);
    report.iterations = it;

    const double rel = std::sqrt(gg_next) / g0_norm;
    report.final_relative_residual = rel;
    if (options.track_history) report.residual_history.push_back(rel);
    if (rel <= options.rel_tol) {
      report.converged = true;
      break;
    }
    const double beta = gg_next / gg;
    gg = gg_next;
    for (index_t i = 0; i < n; ++i) p[i] = g[i] + beta * p[i];
  }
  report.seconds = timer.seconds();
  return report;
}

}  // namespace asyrgs
