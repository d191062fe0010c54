#include "asyrgs/core/rgs.hpp"

#include <algorithm>
#include <cmath>

#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/support/prng.hpp"
#include "asyrgs/support/timer.hpp"

namespace asyrgs {

namespace {

/// Validates shapes and returns 1/diag(A), throwing on a non-positive
/// diagonal (necessary condition for SPD).
std::vector<double> checked_inverse_diagonal(const CsrMatrix& a) {
  require(a.square(), "rgs: matrix must be square");
  std::vector<double> inv = a.diagonal();
  for (double& d : inv) {
    require(d > 0.0, "rgs: diagonal must be strictly positive (SPD input)");
    d = 1.0 / d;
  }
  return inv;
}

/// ||B - A X||_F / ||B||_F, serially (generation-scale cost, fine per
/// sweep; the absolute norm when B = 0).
double block_relative_residual(const CsrMatrix& a, const MultiVector& b,
                               const MultiVector& x) {
  const index_t k = b.cols();
  double num = 0.0, den = 0.0;
  std::vector<double> row(static_cast<std::size_t>(k));
  for (index_t i = 0; i < a.rows(); ++i) {
    const double* b_row = b.row(i);
    std::fill(row.begin(), row.end(), 0.0);
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t s = 0; s < cols.size(); ++s) {
      const double aij = vals[s];
      const double* x_row = x.row(cols[s]);
      for (index_t c = 0; c < k; ++c) row[c] += aij * x_row[c];
    }
    for (index_t c = 0; c < k; ++c) {
      const double r_ic = b_row[c] - row[c];
      num += r_ic * r_ic;
      den += b_row[c] * b_row[c];
    }
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

}  // namespace

double rgs_contraction_factor(index_t n, double lambda_min, double step_size) {
  require(n > 0, "rgs_contraction_factor: n must be positive");
  require(step_size > 0.0 && step_size < 2.0,
          "rgs_contraction_factor: beta must be in (0, 2)");
  return 1.0 - step_size * (2.0 - step_size) * lambda_min /
                   static_cast<double>(n);
}

RgsReport rgs_solve(const CsrMatrix& a, const std::vector<double>& b,
                    std::vector<double>& x, const RgsOptions& options) {
  require(static_cast<index_t>(b.size()) == a.rows() && x.size() == b.size(),
          "rgs_solve: shape mismatch");
  require(options.step_size > 0.0 && options.step_size < 2.0,
          "rgs_solve: step size must be in (0, 2)");
  require(options.sweeps >= 0, "rgs_solve: sweeps must be non-negative");
  const index_t n = a.rows();
  const std::vector<double> inv_diag = checked_inverse_diagonal(a);
  if (options.sweeps == 0)
    return detail::zero_sweep_report(
        options, [&] { return relative_residual(a, b, x); });
  const Philox4x32 dirs(options.seed);
  const double beta = options.step_size;

  WallTimer timer;
  RgsReport report;
  std::uint64_t j = 0;  // global update counter = Philox stream position

  // Directions drawn in batches via the bulk Philox API — the identical
  // stream to per-call index_at, several times cheaper per draw.
  std::vector<index_t> picks(static_cast<std::size_t>(
      std::min<index_t>(std::max<index_t>(n, 1), 1024)));
  const nnz_t* rp = a.row_ptr().data();
  const index_t* ci = a.col_idx().data();
  const double* av = a.values().data();

  for (int sweep = 1; sweep <= options.sweeps; ++sweep) {
    index_t done = 0;
    while (done < n) {
      const std::size_t chunk = static_cast<std::size_t>(
          std::min<index_t>(static_cast<index_t>(picks.size()), n - done));
      dirs.fill_indices(j, chunk, n, picks.data());
      for (std::size_t u = 0; u < chunk; ++u) {
        const index_t r = picks[u];
        // Canonical update arithmetic (identical association across the
        // sequential, block, and asynchronous implementations so that
        // equal-seed runs agree bit for bit): acc = b_r - sum A_rj x_j taken
        // one subtraction at a time, then x_r += beta * (acc / A_rr).
        const nnz_t lo = rp[r];
        const double acc =
            csr_row_sub_dot(b[r], ci + lo, av + lo, rp[r + 1] - lo, x.data());
        x[r] += beta * (acc * inv_diag[r]);
      }
      j += chunk;
      done += static_cast<index_t>(chunk);
    }
    report.sweeps_done = sweep;
    report.updates += n;

    const bool want_check = options.track_history || options.rel_tol > 0.0;
    if (want_check) {
      const double rel = relative_residual(a, b, x);
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

RgsReport rgs_solve_block(const CsrMatrix& a, const MultiVector& b,
                          MultiVector& x, const RgsOptions& options) {
  require(b.rows() == a.rows() && x.rows() == a.rows() &&
              b.cols() == x.cols(),
          "rgs_solve_block: shape mismatch");
  require(options.step_size > 0.0 && options.step_size < 2.0,
          "rgs_solve_block: step size must be in (0, 2)");
  require(options.sweeps >= 0, "rgs_solve_block: sweeps must be non-negative");
  const index_t n = a.rows();
  const index_t k = b.cols();
  const std::vector<double> inv_diag = checked_inverse_diagonal(a);
  if (options.sweeps == 0)
    return detail::zero_sweep_report(
        options, [&] { return block_relative_residual(a, b, x); });
  const Philox4x32 dirs(options.seed);
  const double beta = options.step_size;

  WallTimer timer;
  RgsReport report;
  std::uint64_t j = 0;
  std::vector<double> gamma(static_cast<std::size_t>(k));
  std::vector<index_t> picks(static_cast<std::size_t>(
      std::min<index_t>(std::max<index_t>(n, 1), 1024)));

  for (int sweep = 1; sweep <= options.sweeps; ++sweep) {
    index_t done = 0;
    while (done < n) {
      const std::size_t chunk = static_cast<std::size_t>(
          std::min<index_t>(static_cast<index_t>(picks.size()), n - done));
      dirs.fill_indices(j, chunk, n, picks.data());
      for (std::size_t u = 0; u < chunk; ++u) {
        const index_t r = picks[u];
        // gamma_c = (B(r,c) - A_r X(:,c)) / A_rr for all c, fused.
        const double* b_row = b.row(r);
        for (index_t c = 0; c < k; ++c) gamma[c] = b_row[c];
        const auto cols = a.row_cols(r);
        const auto vals = a.row_vals(r);
        for (std::size_t s = 0; s < cols.size(); ++s) {
          const double arj = vals[s];
          const double* x_row = x.row(cols[s]);
          for (index_t c = 0; c < k; ++c) gamma[c] -= arj * x_row[c];
        }
        double* xr = x.row(r);
        for (index_t c = 0; c < k; ++c)
          xr[c] += beta * (gamma[c] * inv_diag[r]);
      }
      j += chunk;
      done += static_cast<index_t>(chunk);
    }
    report.sweeps_done = sweep;
    report.updates += n;

    if (options.track_history || options.rel_tol > 0.0) {
      const double rel = block_relative_residual(a, b, x);
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
