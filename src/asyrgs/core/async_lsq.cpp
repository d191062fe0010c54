// Sequential randomized coordinate descent for least squares.  The
// asynchronous form is LsqProblem (asyrgs/problem.hpp); its kernels live in
// core/kernels.hpp and the engine invocation in problem.cpp.
#include "asyrgs/core/async_lsq.hpp"

#include <cmath>
#include <vector>

#include "asyrgs/core/engine.hpp"
#include "asyrgs/core/kernels.hpp"
#include "asyrgs/linalg/vector_ops.hpp"
#include "asyrgs/support/prng.hpp"
#include "asyrgs/support/timer.hpp"

namespace asyrgs {

namespace {

/// ||A^T (b - A x)|| / ||A^T b|| computed serially (sequential solver only).
double normal_residual(const CsrMatrix& a, const std::vector<double>& b,
                       const std::vector<double>& x) {
  std::vector<double> r(static_cast<std::size_t>(a.rows()));
  a.multiply(x.data(), r.data());
  for (index_t i = 0; i < a.rows(); ++i) r[i] = b[i] - r[i];
  std::vector<double> g(static_cast<std::size_t>(a.cols()));
  a.multiply_transpose(r.data(), g.data());
  std::vector<double> g0(static_cast<std::size_t>(a.cols()));
  a.multiply_transpose(b.data(), g0.data());
  const double denom = nrm2(g0);
  return denom > 0.0 ? nrm2(g) / denom : nrm2(g);
}

}  // namespace

RgsReport rcd_lsq_solve(const CsrMatrix& a, const std::vector<double>& b,
                        std::vector<double>& x, const RgsOptions& options) {
  require(static_cast<index_t>(b.size()) == a.rows() &&
              static_cast<index_t>(x.size()) == a.cols(),
          "rcd_lsq_solve: shape mismatch");
  require(options.step_size > 0.0 && options.step_size < 2.0,
          "rcd_lsq_solve: step size must be in (0, 2)");
  const index_t n = a.cols();
  // A local transpose: this sequential one-shot path makes no amortization
  // promise.  Repeat-solve users should hold an LsqProblem, which builds
  // A^T once.
  const CsrMatrix at = a.transpose();
  const std::vector<double> col_sq = detail::column_sq_norms(at);
  for (double s : col_sq)
    require(s > 0.0, "rcd_lsq_solve: zero column (A must have full rank)");

  const Philox4x32 dirs(options.seed);
  const double beta = options.step_size;

  WallTimer timer;
  RgsReport report;

  // Maintained residual r = b - A x (iteration (20) bookkeeping).
  std::vector<double> r(static_cast<std::size_t>(a.rows()));
  a.multiply(x.data(), r.data());
  for (index_t i = 0; i < a.rows(); ++i) r[i] = b[i] - r[i];

  // Directions drawn in batches (identical stream to per-call index_at).
  std::vector<index_t> picks(static_cast<std::size_t>(
      std::min<index_t>(n, static_cast<index_t>(detail::kDirectionChunk))));
  std::uint64_t pos = 0;
  for (int sweep = 1; sweep <= options.sweeps; ++sweep) {
    index_t done = 0;
    while (done < n) {
      const std::size_t chunk = static_cast<std::size_t>(
          std::min<index_t>(static_cast<index_t>(picks.size()), n - done));
      dirs.fill_indices(pos, chunk, n, picks.data());
      for (std::size_t u = 0; u < chunk; ++u) {
        const index_t j = picks[u];
        // gamma = A_{:,j}^T r / ||A_{:,j}||^2 over the column's row support.
        const auto rows = at.row_cols(j);
        const auto vals = at.row_vals(j);
        double gamma = 0.0;
        for (std::size_t s = 0; s < rows.size(); ++s)
          gamma += vals[s] * r[rows[s]];
        gamma *= beta / col_sq[j];
        x[j] += gamma;
        for (std::size_t s = 0; s < rows.size(); ++s)
          r[rows[s]] -= gamma * vals[s];
      }
      pos += chunk;
      done += static_cast<index_t>(chunk);
    }
    report.sweeps_done = sweep;
    report.updates += n;

    if (options.track_history || options.rel_tol > 0.0) {
      const double rel = normal_residual(a, b, x);
      report.final_relative_residual = rel;
      if (options.track_history) report.residual_history.push_back(rel);
      if (options.rel_tol > 0.0 && rel <= options.rel_tol) {
        report.converged = true;
        break;
      }
    }
  }
  report.seconds = timer.seconds();
  return report;
}

}  // namespace asyrgs
