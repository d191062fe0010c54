#include "asyrgs/core/async_jacobi.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "asyrgs/support/atomics.hpp"
#include "asyrgs/support/timer.hpp"

namespace asyrgs {

SolveOutcome async_jacobi_solve(ThreadPool& pool, const CsrMatrix& a,
                                const std::vector<double>& b,
                                std::vector<double>& x,
                                const AsyncJacobiOptions& options) {
  require(a.square(), "async_jacobi: matrix must be square");
  require(static_cast<index_t>(b.size()) == a.rows() && x.size() == b.size(),
          "async_jacobi: shape mismatch");
  require(options.sweeps >= 0, "async_jacobi: sweeps must be non-negative");
  require(options.damping > 0.0 && options.damping <= 1.0,
          "async_jacobi: damping must be in (0, 1]");
  const index_t n = a.rows();

  std::vector<double> inv_diag = a.diagonal();
  for (double& d : inv_diag) {
    require(d != 0.0, "async_jacobi: zero diagonal entry");
    d = 1.0 / d;
  }

  // Position of the (structurally present, nonzero) diagonal entry within
  // each sorted row, precomputed so the relaxation kernel can skip it with
  // two tight loops instead of a per-nonzero comparison.
  std::vector<nnz_t> diag_pos(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    const auto cols = a.row_cols(i);
    const auto* it = std::lower_bound(cols.data(), cols.data() + cols.size(), i);
    ASYRGS_ASSERT(it != cols.data() + cols.size() && *it == i);
    diag_pos[static_cast<std::size_t>(i)] =
        a.row_ptr()[i] + static_cast<nnz_t>(it - cols.data());
  }

  int workers = options.workers > 0 ? options.workers : pool.size();
  if (workers > pool.size()) workers = pool.size();

  SolveOutcome out;
  out.status = SolveStatus::kBudgetCompleted;
  out.workers = workers;
  const double omega = options.damping;

  WallTimer timer;
  pool.run_team(workers, [&](int id, int team) {
    // Worker id relaxes its owned rows over and over; neighbours' values
    // stream in asynchronously.
    const index_t chunk = (n + team - 1) / team;
    const index_t lo = std::min<index_t>(static_cast<index_t>(id) * chunk, n);
    const index_t hi = std::min<index_t>(lo + chunk, n);
    const nnz_t* __restrict rp = a.row_ptr().data();
    const index_t* __restrict ci = a.col_idx().data();
    const double* __restrict av = a.values().data();
    const double* __restrict bp = b.data();
    const double* __restrict inv = inv_diag.data();
    const nnz_t* __restrict dp = diag_pos.data();
    double* xp = x.data();
    auto relax_row = [&](index_t i) {
      // Same subtraction sequence as the branchy scan (off-diagonal terms in
      // column order); only the per-nonzero diagonal test is gone.  x_i is
      // written solely by this row's owner, so reading it out of scan order
      // observes the identical value.
      double acc = bp[i];
      const nnz_t row_end = rp[i + 1];
      const nnz_t diag = dp[i];
      for (nnz_t t = rp[i]; t < diag; ++t)
        acc -= av[t] * atomic_load_relaxed(xp[ci[t]]);
      for (nnz_t t = diag + 1; t < row_end; ++t)
        acc -= av[t] * atomic_load_relaxed(xp[ci[t]]);
      const double diag_x = atomic_load_relaxed(xp[i]);
      const double target = acc * inv[i];
      atomic_store_relaxed(xp[i], (1.0 - omega) * diag_x + omega * target);
    };
    for (int sweep = 0; sweep < options.sweeps; ++sweep) {
      if (options.ownership == JacobiOwnership::kContiguous) {
        for (index_t i = lo; i < hi; ++i) relax_row(i);
      } else {
        for (index_t i = id; i < n; i += team) relax_row(i);
      }
      // On oversubscribed hosts (threads > cores) a free-running worker can
      // otherwise burn its entire sweep budget in one scheduling quantum
      // against frozen neighbour values — unbounded effective delay, exactly
      // what breaks chaotic relaxation. One yield per sweep keeps the
      // interleaving near round-robin and the staleness near one sweep.
      if (team > 1) std::this_thread::yield();
    }
  });
  out.iterations = options.sweeps;
  out.updates = static_cast<long long>(options.sweeps) *
                   static_cast<long long>(n);
  out.seconds = timer.seconds();
  return out;
}

}  // namespace asyrgs
