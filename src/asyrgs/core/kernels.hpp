// Shared coordinate-update and residual kernels (internal).
//
// The compile-time-specialized update functors and the team-parallel
// residual functors used by the asynchronous solvers.  Like core/engine.hpp,
// nothing in asyrgs::detail is a stable public API.
//
// Every functor is templated over the stored column-index width with a
// full-width default, so the prepared handles can run the identical update
// logic against CsrMatrix or CsrMatrix32; values are double for both.  Call
// sites deduce the width from the matrix argument (CTAD for the residual
// classes, explicit arguments for the aggregate update functors).
//
// Residual functors borrow their TeamReduce (barrier + partial slots) from
// the caller instead of owning one, so a prepared handle can keep the
// reduction scratch alive across solves.
//
// Staged lookahead.  A least-squares column update re-reads about 32
// random rows of A, and each row's loads form a chain: the row index gives
// the row header (row_ptr[i] and b[i]), and the header gives the row body
// (its column indices and values).  LsqUpdate walks its column in one stage
// per link, each stage reading only memory that the stage before it
// prefetched, and stages the upcoming columns' rows of A^T the same way
// along the engine's Lookahead.  The SPD, block and Kaczmarz kernels read
// one row per update and keep a single stage, kRowAhead picks ahead.  No
// stage changes the arithmetic.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "asyrgs/core/async_rgs.hpp"
#include "asyrgs/core/engine.hpp"
#include "asyrgs/linalg/multivector.hpp"
#include "asyrgs/linalg/vector_ops.hpp"
#include "asyrgs/sparse/csr.hpp"
#include "asyrgs/support/atomics.hpp"
#include "asyrgs/support/prefetch.hpp"

namespace asyrgs::detail {

/// b_r and 1/A_rr interleaved so the two per-update row constants share one
/// cache line (and usually one 16-byte load pair).
struct RhsDiagPair {
  double b;
  double inv_diag;
};

/// Refills `packed` (resized, allocation reused across calls) with the
/// interleaved (b, 1/diag) pairs.
inline void pack_rhs_diag(const std::vector<double>& b,
                          const std::vector<double>& inv_diag,
                          std::vector<RhsDiagPair>& packed) {
  packed.resize(b.size());
  for (std::size_t i = 0; i < b.size(); ++i)
    packed[i] = {b[i], inv_diag[i]};
}

// Prefetch distances (above).  They are constants, not options: they size
// the prefetches to the latency they hide, not to the problem.
// docs/TUNING.md "Lookahead prefetch distances" gives the measurements they
// were chosen on.

/// Picks ahead that the one-row kernels prefetch their next row (its
/// constants, the heads of its indices and values, and x[r]).  Staging them
/// as LsqUpdate is staged (header 16 and body 8 picks ahead, with or without
/// the x entries the row gathers 4 ahead) cost perfbench's laplacian_2d
/// about 20% in latency_p50_s, 0 and 1 of 10 pairs won.
inline constexpr std::size_t kRowAhead = 4;

/// Picks ahead that LsqUpdate prefetches an upcoming column's header
/// (col_ptr[j] and its squared norm), and, half as far, reads that header
/// and prefetches the column's row indices and values.
inline constexpr std::size_t kHeaderAhead = 16;
inline constexpr std::size_t kBodyAhead = 8;

/// Rows of the column ahead of the one LsqUpdate scans: the header
/// (row_ptr[i], b[i]) kRowHeaderAhead rows ahead and the body kRowBodyAhead
/// rows ahead.  A column of the social_lsq corpus factor has about 32 rows
/// of about 8 nonzeros; with these stages the workload's latency_p50_s fell
/// 0.201 -> 0.180 s (10 of 10 pairs) and 0.190 -> 0.168 s (9 of 10).
inline constexpr nnz_t kRowHeaderAhead = 8;
inline constexpr nnz_t kRowBodyAhead = 4;

/// The body stage of a row scan over CSR arrays: row r's column indices and
/// values.
template <class Index>
inline void prefetch_row(const nnz_t* row_ptr, const Index* cols,
                         const double* vals, index_t r) noexcept {
  prefetch_span(cols, row_ptr[r], row_ptr[r + 1]);
  prefetch_span(vals, row_ptr[r], row_ptr[r + 1]);
}

/// One asynchronous coordinate update on the shared single-RHS iterate,
/// specialized at compile time on the atomicity mode so the hot loop carries
/// no per-update branch.  The row scan reads x with relaxed-atomic loads and
/// subtracts once per nonzero in column order — identical arithmetic to the
/// sequential solver, so a one-worker run reproduces it bit for bit (and
/// identically across the int64/int32 index policies).
template <bool kAtomicWrites, class Index = index_t>
struct SingleRhsUpdate {
  const nnz_t* row_ptr;
  const Index* cols;
  const double* vals;
  const RhsDiagPair* rhs_diag;
  double* x;
  double beta;

  /// The relaxation increment beta * gamma_r = beta * (b_r - A_r x) / A_rr
  /// computed from the current contents of x — the *compute* half of one
  /// coordinate update, exposed as a seam so the deterministic virtual
  /// engine (simulate/virtual_engine.hpp) can evaluate the identical kernel
  /// arithmetic against a materialized stale snapshot, outside the
  /// thread-pool loop.  operator() below is compute + apply; splitting the
  /// two must not perturb the hot path (inlined back together, gated by the
  /// pre-refactor golden hashes in tests/test_storage.cpp).
  [[nodiscard]] double delta(index_t r) const noexcept {
    const nnz_t* __restrict rp = row_ptr;
    const Index* __restrict ci = cols;
    const double* __restrict av = vals;
    const RhsDiagPair* __restrict bd = rhs_diag;
    double acc = bd[r].b;
    const nnz_t hi = rp[r + 1];
    for (nnz_t t = rp[r]; t < hi; ++t)
      acc -= av[t] * atomic_load_relaxed(x[ci[t]]);
    return beta * (acc * bd[r].inv_diag);
  }

  /// The *apply* half: commits a previously computed increment onto the
  /// shared iterate with this kernel's atomicity mode.
  void apply(index_t r, double d) const noexcept {
    if constexpr (kAtomicWrites)
      atomic_add_relaxed(x[r], d);
    else
      racy_add(x[r], d);
  }

  void operator()(int, index_t r, Lookahead ahead) const noexcept {
    // Pull an upcoming row's constants and the head of its index/value
    // arrays into cache while this row's scan chain retires.
    const index_t next = ahead.at(kRowAhead);
    const nnz_t next_lo = row_ptr[next];
    __builtin_prefetch(&rhs_diag[next]);
    __builtin_prefetch(&vals[next_lo]);
    __builtin_prefetch(&cols[next_lo]);
    __builtin_prefetch(&x[next]);
    apply(r, delta(r));
  }
};

/// One asynchronous update applied to every column of the block iterate.
/// `gamma` is per-worker scratch of k doubles (cache-line separated slab).
/// One subtraction per nonzero per column, in column order — the block
/// analogue of SingleRhsUpdate's row scan.
template <bool kAtomicWrites, class Index = index_t>
struct BlockRhsUpdate {
  const CsrMatrixT<Index>* a;
  const MultiVector* b;
  MultiVector* x;
  const double* inv_diag;
  double beta;
  double* gamma_base;
  std::size_t gamma_stride;

  void operator()(int worker, index_t r, Lookahead ahead) const noexcept {
    const index_t next = ahead.at(kRowAhead);
    __builtin_prefetch(x->row(next));
    __builtin_prefetch(b->row(next));
    double* __restrict gamma =
        gamma_base + static_cast<std::size_t>(worker) * gamma_stride;
    const index_t k = b->cols();
    const double* b_row = b->row(r);
    for (index_t c = 0; c < k; ++c) gamma[c] = b_row[c];
    const auto cols = a->row_cols(r);
    const auto vals = a->row_vals(r);
    for (std::size_t t = 0; t < cols.size(); ++t) {
      const double arj = vals[t];
      const double* x_row = x->row(cols[t]);
      for (index_t c = 0; c < k; ++c)
        gamma[c] -= arj * atomic_load_relaxed(x_row[c]);
    }
    const double inv = inv_diag[r];
    double* xr = x->row(r);
    if constexpr (kAtomicWrites) {
      for (index_t c = 0; c < k; ++c)
        atomic_add_relaxed(xr[c], beta * (gamma[c] * inv));
    } else {
      for (index_t c = 0; c < k; ++c)
        racy_add(xr[c], beta * (gamma[c] * inv));
    }
  }
};

/// ||b - A x|| / ||b|| evaluated as a team-parallel reduction over the
/// workers rendezvoused at the synchronization barrier (the denominator is
/// constant and precomputed).  b is read from the update's (b, 1/diag)
/// pairs, so the solve holds no second copy of it.
template <class Index = index_t>
class SingleRhsResidual {
 public:
  SingleRhsResidual(const CsrMatrixT<Index>& a,
                    const std::vector<RhsDiagPair>& rhs_diag, const double* x,
                    TeamReduce& reduce)
      : a_(a), bd_(rhs_diag), x_(x), reduce_(reduce),
        b_norm_(rhs_norm(rhs_diag)) {}

  double operator()(int id, int team) {
    const auto partial = [&](int w, int t) {
      const auto [lo, hi] = chunk_of(a_.rows(), w, t);
      // A local copy of the iterate pointer: read through the member, each
      // atomic load would force a reload of x_ whenever this lambda is not
      // inlined into its caller.
      const double* const x = x_;
      double acc = 0.0;
      for (index_t i = lo; i < hi; ++i) {
        double ri = bd_[static_cast<std::size_t>(i)].b;
        const auto cols = a_.row_cols(i);
        const auto vals = a_.row_vals(i);
        for (std::size_t s = 0; s < cols.size(); ++s)
          ri -= vals[s] * atomic_load_relaxed(x[cols[s]]);
        acc += ri * ri;
      }
      return acc;
    };
    const double num = reduce_.run(id, team, partial);
    if (id != 0) return 0.0;
    const double rn = std::sqrt(num);
    return b_norm_ > 0.0 ? rn / b_norm_ : rn;
  }

 private:
  /// ||b|| summed in index order, the association nrm2 uses, so the
  /// denominator is bit-identical to nrm2 of b itself.
  static double rhs_norm(const std::vector<RhsDiagPair>& rhs_diag) {
    double acc = 0.0;
    for (const RhsDiagPair& p : rhs_diag) acc += p.b * p.b;
    return std::sqrt(acc);
  }

  const CsrMatrixT<Index>& a_;
  const std::vector<RhsDiagPair>& bd_;
  const double* x_;
  TeamReduce& reduce_;
  double b_norm_;
};

/// ||B - A X||_F / ||B||_F, team-parallel over rows.
template <class Index = index_t>
class BlockResidual {
 public:
  BlockResidual(const CsrMatrixT<Index>& a, const MultiVector& b,
                const MultiVector& x, TeamReduce& reduce)
      : a_(a), b_(b), x_(x), reduce_(reduce), b_norm_(frobenius_norm(b)) {}

  double operator()(int id, int team) {
    const auto partial = [&](int w, int t) {
      const index_t k = b_.cols();
      std::vector<double> row(static_cast<std::size_t>(k));
      const auto [lo, hi] = chunk_of(a_.rows(), w, t);
      double acc = 0.0;
      for (index_t i = lo; i < hi; ++i) {
        std::fill(row.begin(), row.end(), 0.0);
        const auto cols = a_.row_cols(i);
        const auto vals = a_.row_vals(i);
        for (std::size_t s = 0; s < cols.size(); ++s) {
          const double aij = vals[s];
          const double* x_row = x_.row(cols[s]);
          for (index_t c = 0; c < k; ++c)
            row[c] += aij * atomic_load_relaxed(x_row[c]);
        }
        const double* b_row = b_.row(i);
        for (index_t c = 0; c < k; ++c) {
          const double r_ic = b_row[c] - row[c];
          acc += r_ic * r_ic;
        }
      }
      return acc;
    };
    const double num = reduce_.run(id, team, partial);
    if (id != 0) return 0.0;
    const double rn = std::sqrt(num);
    return b_norm_ > 0.0 ? rn / b_norm_ : rn;
  }

 private:
  const CsrMatrixT<Index>& a_;
  const MultiVector& b_;
  const MultiVector& x_;
  TeamReduce& reduce_;
  double b_norm_;
};

/// One asynchronous column update (iteration (21)): the residual entries for
/// the column's rows are recomputed from shared x on every step.  Column j
/// of A is row j of A^T (`col_ptr`, `col_rows`, `col_vals`).  Specialized
/// at compile time on the atomicity mode.
template <bool kAtomicWrites, class Index = index_t>
struct LsqUpdate {
  const nnz_t* row_ptr;
  const Index* cols;
  const double* vals;
  const nnz_t* col_ptr;
  const Index* col_rows;
  const double* col_vals;
  const double* b;
  const double* col_sq;
  double* x;
  double beta;

  void operator()(int, index_t j, Lookahead ahead) const noexcept {
    // The upcoming columns' A^T rows: header, then body.
    const index_t header = ahead.at(kHeaderAhead);
    __builtin_prefetch(&col_ptr[header]);
    __builtin_prefetch(&col_sq[header]);
    prefetch_row(col_ptr, col_rows, col_vals, ahead.at(kBodyAhead));

    const nnz_t* __restrict rp = row_ptr;
    const Index* __restrict ci = cols;
    const double* __restrict av = vals;
    const nnz_t end = col_ptr[j + 1];
    double gamma = 0.0;
    for (nnz_t s = col_ptr[j]; s < end; ++s) {
      // The column's later rows, staged as the engine stages directions.
      if (s + kRowHeaderAhead < end) {
        const Index ih = col_rows[s + kRowHeaderAhead];
        __builtin_prefetch(&rp[ih]);
        __builtin_prefetch(&b[ih]);
      }
      if (s + kRowBodyAhead < end)
        prefetch_row(rp, ci, av, col_rows[s + kRowBodyAhead]);
      const Index i = col_rows[s];
      // r_i = b_i - A_i x, reading the shared iterate with relaxed-atomic
      // loads.
      double ri = b[i];
      const nnz_t hi = rp[i + 1];
      for (nnz_t q = rp[i]; q < hi; ++q)
        ri -= av[q] * atomic_load_relaxed(x[ci[q]]);
      gamma += col_vals[s] * ri;
    }
    const double delta = beta * gamma / col_sq[j];
    if constexpr (kAtomicWrites)
      atomic_add_relaxed(x[j], delta);
    else
      racy_add(x[j], delta);
  }
};

/// One asynchronous row-action (Kaczmarz) update on the shared iterate:
/// project x onto the hyperplane A_i x = b_i, relaxed by beta —
///   gamma = beta * (b_i - A_i x) / ||A_i||^2;  x += gamma * A_i^T.
/// The row scan is the same compute seam as SingleRhsUpdate (relaxed-atomic
/// reads of x, one subtraction per nonzero in column order), but the apply
/// half scatters into every column the row touches rather than one diagonal
/// entry — which is why the asynchronous analysis of Liu, Wright & Sridhar
/// (arXiv:1401.4780) covers it: each update writes a sparse multiple of one
/// row.  `inv_row_sq` holds 1/||A_i||^2
/// precomputed at prepare time (zero rows get 0, making their update a
/// no-op rather than a NaN).
template <bool kAtomicWrites, class Index = index_t>
struct KaczmarzUpdate {
  const nnz_t* row_ptr;
  const Index* cols;
  const double* vals;
  const double* b;
  const double* inv_row_sq;
  double* x;
  double beta;

  /// The compute half: gamma for row r from the current contents of x
  /// (virtual-engine seam, mirroring SingleRhsUpdate::delta).
  [[nodiscard]] double delta(index_t r) const noexcept {
    const nnz_t* __restrict rp = row_ptr;
    const Index* __restrict ci = cols;
    const double* __restrict av = vals;
    double acc = b[r];
    const nnz_t hi = rp[r + 1];
    for (nnz_t t = rp[r]; t < hi; ++t)
      acc -= av[t] * atomic_load_relaxed(x[ci[t]]);
    return beta * (acc * inv_row_sq[r]);
  }

  /// The apply half: x[cols of row r] += gamma * vals of row r, with this
  /// kernel's atomicity mode per component.
  void apply(index_t r, double gamma) const noexcept {
    const nnz_t* __restrict rp = row_ptr;
    const Index* __restrict ci = cols;
    const double* __restrict av = vals;
    const nnz_t lo = rp[r];
    const nnz_t hi = rp[r + 1];
    if constexpr (kAtomicWrites) {
      for (nnz_t t = lo; t < hi; ++t)
        atomic_add_relaxed(x[ci[t]], gamma * av[t]);
    } else {
      for (nnz_t t = lo; t < hi; ++t) racy_add(x[ci[t]], gamma * av[t]);
    }
  }

  void operator()(int, index_t r, Lookahead ahead) const noexcept {
    const index_t next = ahead.at(kRowAhead);
    const nnz_t next_lo = row_ptr[next];
    __builtin_prefetch(&b[next]);
    __builtin_prefetch(&inv_row_sq[next]);
    __builtin_prefetch(&vals[next_lo]);
    __builtin_prefetch(&cols[next_lo]);
    apply(r, delta(r));
  }
};

/// ||A^T (b - A x)|| / ||A^T b|| as a two-phase team-parallel reduction at
/// synchronization points: phase 1 materializes r = b - A x (row chunks),
/// phase 2 reduces ||A^T r||^2 (column chunks via the rows of A^T).  The
/// denominator ||A^T b|| is an invariant of the run and computed once at
/// construction; `r` is caller-provided scratch of a.rows() doubles so a
/// prepared handle re-uses the buffer across solves.
template <class Index = index_t>
class LsqResidual {
 public:
  LsqResidual(const CsrMatrixT<Index>& a, const CsrMatrixT<Index>& at,
              const std::vector<double>& b, const double* x,
              TeamReduce& reduce, double* r, bool enabled)
      : a_(a), at_(at), b_(b), x_(x), reduce_(reduce), r_(r) {
    if (!enabled) return;
    std::vector<double> g0(static_cast<std::size_t>(a.cols()));
    a.multiply_transpose(b.data(), g0.data());
    denom_ = nrm2(g0);
  }

  double operator()(int id, int team) {
    // Phase 1: r = b - A x over this worker's row chunk (the entries are
    // independent, so chunking does not affect their values).
    {
      const auto [lo, hi] = chunk_of(a_.rows(), id, team);
      const double* const x = x_;  // see SingleRhsResidual
      for (index_t i = lo; i < hi; ++i) {
        double ri = b_[i];
        const auto cols = a_.row_cols(i);
        const auto vals = a_.row_vals(i);
        for (std::size_t s = 0; s < cols.size(); ++s)
          ri -= vals[s] * atomic_load_relaxed(x[cols[s]]);
        r_[i] = ri;
      }
    }
    if (team > 1) reduce_.barrier().arrive_and_wait();
    // Phase 2: ||A^T r||^2 over this worker's chunk of A^T rows.
    const auto partial = [&](int w, int t) {
      const auto [lo, hi] = chunk_of(at_.rows(), w, t);
      double acc = 0.0;
      for (index_t j = lo; j < hi; ++j) {
        const auto rows = at_.row_cols(j);
        const auto vals = at_.row_vals(j);
        double g = 0.0;
        for (std::size_t s = 0; s < rows.size(); ++s)
          g += vals[s] * r_[rows[s]];
        acc += g * g;
      }
      return acc;
    };
    const double num = reduce_.run(id, team, partial);
    if (id != 0) return 0.0;
    const double rn = std::sqrt(num);
    return denom_ > 0.0 ? rn / denom_ : rn;
  }

 private:
  const CsrMatrixT<Index>& a_;
  const CsrMatrixT<Index>& at_;
  const std::vector<double>& b_;
  const double* x_;
  TeamReduce& reduce_;
  double* r_;
  double denom_ = 0.0;
};

/// Squared Euclidean norms of the columns of A, read off the rows of A^T.
template <class Index>
inline std::vector<double> column_sq_norms(const CsrMatrixT<Index>& at) {
  std::vector<double> sq(static_cast<std::size_t>(at.rows()), 0.0);
  for (index_t j = 0; j < at.rows(); ++j) {
    double acc = 0.0;
    for (double v : at.row_vals(j)) acc += v * v;
    sq[j] = acc;
  }
  return sq;
}

/// Squared Euclidean norms of the rows of A — the Strohmer-Vershynin
/// Kaczmarz sampling weights and the denominators of the row projections.
template <class Index>
inline std::vector<double> row_sq_norms(const CsrMatrixT<Index>& a) {
  std::vector<double> sq(static_cast<std::size_t>(a.rows()), 0.0);
  for (index_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (double v : a.row_vals(i)) acc += v * v;
    sq[i] = acc;
  }
  return sq;
}

}  // namespace asyrgs::detail
