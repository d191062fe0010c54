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
// Every entry point is templated over the CSR storage policy (definitions in
// spmv.cpp, instantiated for the two supported policies).
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
template <class Index, class Value>
void spmv(ThreadPool& pool, const CsrMatrixT<Index, Value>& a, const double* x,
          double* y, int workers = 0,
          RowPartition partition = RowPartition::kDynamic);

/// Convenience overload over std::vector.
template <class Index, class Value>
void spmv(ThreadPool& pool, const CsrMatrixT<Index, Value>& a,
          const std::vector<double>& x, std::vector<double>& y,
          int workers = 0, RowPartition partition = RowPartition::kDynamic);

/// Y = A X for a row-major block of vectors (fused over the block: each row
/// of A is scanned once and applied to all columns of X).
template <class Index, class Value>
void spmv_block(ThreadPool& pool, const CsrMatrixT<Index, Value>& a,
                const MultiVector& x, MultiVector& y, int workers = 0,
                RowPartition partition = RowPartition::kDynamic);

/// R = B - A X (block residual, fused like spmv_block).
template <class Index, class Value>
void block_residual(ThreadPool& pool, const CsrMatrixT<Index, Value>& a,
                    const MultiVector& b, const MultiVector& x, MultiVector& r,
                    int workers = 0);

}  // namespace asyrgs
