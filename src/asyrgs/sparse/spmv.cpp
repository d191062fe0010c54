#include "asyrgs/sparse/spmv.hpp"

#include <algorithm>

namespace asyrgs {

namespace {

/// Picks a dynamic-scheduling grain so that a chunk is ~64 rows but at least
/// 1 and the whole loop yields a few chunks per worker even for tiny n.
index_t dynamic_grain(index_t rows, int workers) {
  const index_t target_chunks = static_cast<index_t>(workers) * 8;
  index_t grain = rows / std::max<index_t>(target_chunks, 1);
  return std::clamp<index_t>(grain, 1, 64);
}

}  // namespace

template <class Index, class Value>
void spmv(ThreadPool& pool, const CsrMatrixT<Index, Value>& a, const double* x,
          double* y, int workers, RowPartition partition) {
  const index_t n = a.rows();
  if (workers <= 0) workers = pool.size();
  switch (partition) {
    case RowPartition::kContiguous:
      pool.parallel_for(
          0, n,
          [&](index_t lo, index_t hi) {
            for (index_t i = lo; i < hi; ++i) y[i] = a.row_dot(i, x);
          },
          workers);
      break;
    case RowPartition::kRoundRobin:
      pool.run_team(workers, [&](int id, int team) {
        for (index_t i = id; i < n; i += team) y[i] = a.row_dot(i, x);
      });
      break;
    case RowPartition::kDynamic:
      pool.parallel_for_dynamic(
          0, n, dynamic_grain(n, workers),
          [&](index_t lo, index_t hi) {
            for (index_t i = lo; i < hi; ++i) y[i] = a.row_dot(i, x);
          },
          workers);
      break;
  }
}

template <class Index, class Value>
void spmv(ThreadPool& pool, const CsrMatrixT<Index, Value>& a,
          const std::vector<double>& x, std::vector<double>& y, int workers,
          RowPartition partition) {
  require(static_cast<index_t>(x.size()) == a.cols(),
          "spmv: x length must equal cols");
  y.resize(static_cast<std::size_t>(a.rows()));
  spmv(pool, a, x.data(), y.data(), workers, partition);
}

namespace {

/// One fused block row: y_row = A_i X over all block columns.
template <class Index, class Value>
inline void block_row_dot(const CsrMatrixT<Index, Value>& a,
                          const MultiVector& x, index_t i, double* y_row) {
  const index_t k = x.cols();
  std::fill(y_row, y_row + k, 0.0);
  const auto cols = a.row_cols(i);
  const auto vals = a.row_vals(i);
  for (std::size_t t = 0; t < cols.size(); ++t) {
    const double aij = vals[t];
    const double* x_row = x.row(cols[t]);
    for (index_t c = 0; c < k; ++c) y_row[c] += aij * x_row[c];
  }
}

}  // namespace

template <class Index, class Value>
void spmv_block(ThreadPool& pool, const CsrMatrixT<Index, Value>& a,
                const MultiVector& x, MultiVector& y, int workers,
                RowPartition partition) {
  require(x.rows() == a.cols(), "spmv_block: X row count must equal cols");
  require(y.rows() == a.rows() && y.cols() == x.cols(),
          "spmv_block: Y shape mismatch");
  const index_t n = a.rows();
  if (workers <= 0) workers = pool.size();
  auto body = [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) block_row_dot(a, x, i, y.row(i));
  };
  switch (partition) {
    case RowPartition::kContiguous:
      pool.parallel_for(0, n, body, workers);
      break;
    case RowPartition::kRoundRobin:
      pool.run_team(workers, [&](int id, int team) {
        for (index_t i = id; i < n; i += team)
          block_row_dot(a, x, i, y.row(i));
      });
      break;
    case RowPartition::kDynamic:
      pool.parallel_for_dynamic(0, n, dynamic_grain(n, workers), body,
                                workers);
      break;
  }
}

template <class Index, class Value>
void block_residual(ThreadPool& pool, const CsrMatrixT<Index, Value>& a,
                    const MultiVector& b, const MultiVector& x, MultiVector& r,
                    int workers) {
  require(b.rows() == a.rows() && x.rows() == a.cols(),
          "block_residual: shape mismatch");
  require(r.rows() == b.rows() && r.cols() == b.cols() &&
              x.cols() == b.cols(),
          "block_residual: shape mismatch");
  const index_t n = a.rows();
  const index_t k = b.cols();
  if (workers <= 0) workers = pool.size();
  pool.parallel_for_dynamic(
      0, n, dynamic_grain(n, workers),
      [&](index_t lo, index_t hi) {
        for (index_t i = lo; i < hi; ++i) {
          double* r_row = r.row(i);
          block_row_dot(a, x, i, r_row);
          const double* b_row = b.row(i);
          for (index_t c = 0; c < k; ++c) r_row[c] = b_row[c] - r_row[c];
        }
      },
      workers);
}

// Instantiate every entry point for the two supported storage policies
// (consumers see only the declarations in spmv.hpp).
#define ASYRGS_INSTANTIATE_SPMV(Index, Value)                                  \
  template void spmv<Index, Value>(ThreadPool&,                                \
                                   const CsrMatrixT<Index, Value>&,            \
                                   const double*, double*, int, RowPartition); \
  template void spmv<Index, Value>(                                            \
      ThreadPool&, const CsrMatrixT<Index, Value>&, const std::vector<double>&,\
      std::vector<double>&, int, RowPartition);                                \
  template void spmv_block<Index, Value>(                                      \
      ThreadPool&, const CsrMatrixT<Index, Value>&, const MultiVector&,        \
      MultiVector&, int, RowPartition);                                        \
  template void block_residual<Index, Value>(                                  \
      ThreadPool&, const CsrMatrixT<Index, Value>&, const MultiVector&,        \
      const MultiVector&, MultiVector&, int);

ASYRGS_INSTANTIATE_SPMV(std::int64_t, double)
ASYRGS_INSTANTIATE_SPMV(std::int32_t, double)

#undef ASYRGS_INSTANTIATE_SPMV

}  // namespace asyrgs
