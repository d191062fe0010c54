// Parallel sparse matrix-vector products.
//
// Three row-partitioning strategies are provided because the paper's test
// matrix has *highly skewed* row sizes (max 117,182 nonzeros vs mean 1,439):
//
//  * kContiguous  - classic blocked partition; best for balanced matrices
//                   (grid Laplacians).
//  * kRoundRobin  - "indices are assigned to threads in a round-robin
//                   manner" — the paper's choice for its unstructured CG
//                   baseline (Section 9).
//  * kDynamic     - work-stealing chunks; robust default for skewed rows.
//
// spmv is templated over the CSR index width (definitions in spmv.cpp,
// instantiated for CsrMatrix and CsrMatrix32); the block products take the
// full-width CsrMatrix their Krylov callers hold.
#pragma once

#include "asyrgs/linalg/multivector.hpp"
#include "asyrgs/sparse/csr.hpp"
#include "asyrgs/support/thread_pool.hpp"

namespace asyrgs {

/// Row distribution across SpMV workers.
enum class RowPartition { kContiguous, kRoundRobin, kDynamic };

/// y = A x using `workers` threads from `pool`.
///
/// Thread-safety: `a` and `x` are read-only; `y` is partitioned by row so
/// workers never write the same entry.  The pool runs one team at a time —
/// do not issue concurrent spmv calls against the same pool from different
/// threads (nested calls from inside a team degrade to 1 worker instead).
template <class Index>
void spmv(ThreadPool& pool, const CsrMatrixT<Index>& a, const double* x,
          double* y, int workers = 0,
          RowPartition partition = RowPartition::kDynamic);

/// Convenience overload over std::vector.
template <class Index>
void spmv(ThreadPool& pool, const CsrMatrixT<Index>& a,
          const std::vector<double>& x, std::vector<double>& y,
          int workers = 0, RowPartition partition = RowPartition::kDynamic);

/// Y = A X for a row-major block of vectors (fused over the block: each row
/// of A is scanned once and applied to all columns of X).
void spmv_block(ThreadPool& pool, const CsrMatrix& a, const MultiVector& x,
                MultiVector& y, int workers = 0,
                RowPartition partition = RowPartition::kDynamic);

/// R = B - A X (block residual, fused like spmv_block).
void block_residual(ThreadPool& pool, const CsrMatrix& a, const MultiVector& b,
                    const MultiVector& x, MultiVector& r, int workers = 0);

}  // namespace asyrgs
