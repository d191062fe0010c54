// Structural and numerical matrix properties used by the convergence theory.
//
// Theorems 2-4 of the paper are driven by two matrix functionals:
//
//   rho   = ||A||_inf / n = max_l (1/n) sum_r |A_lr|     (Theorems 2 and 3)
//   rho2  = max_l (1/n) sum_r A_lr^2                      (Theorem 4)
//
// plus row-sparsity statistics (the paper's "reference scenario" assumes the
// per-row nonzero count lies in [C1, C2] with C2/C1 small, which controls
// the delay bound tau = O(P)).
#pragma once

#include <vector>

#include "asyrgs/sparse/csr.hpp"

namespace asyrgs {

/// Per-row nonzero statistics (the C1/C2 of the reference scenario).
struct RowNnzStats {
  nnz_t min = 0;       // C1
  nnz_t max = 0;       // C2
  double mean = 0.0;
  double ratio = 0.0;  // C2 / C1 (infinity mapped to max/1 when C1 == 0)
};

[[nodiscard]] RowNnzStats row_nnz_stats(const CsrMatrix& a);

/// Infinity norm: max_l sum_r |A_lr|.
[[nodiscard]] double inf_norm(const CsrMatrix& a);

/// Frobenius norm.
[[nodiscard]] double frobenius_norm(const CsrMatrix& a);

/// rho = ||A||_inf / n (Theorem 2).  Requires a square matrix.
[[nodiscard]] double rho(const CsrMatrix& a);

/// rho2 = max_l (1/n) sum_r A_lr^2 (Theorem 4).  Requires a square matrix.
[[nodiscard]] double rho2(const CsrMatrix& a);

/// True when A equals its transpose entrywise within `tol`: the verdict of
/// a.equals(a.transpose(), tol), from one merge over the sorted rows with
/// n cursors of scratch instead of an O(nnz) transpose.
[[nodiscard]] bool is_symmetric(const CsrMatrix& a, double tol = 0.0);

/// True when A is strictly (row) diagonally dominant:
/// |A_ii| > sum_{j != i} |A_ij| for every row.
[[nodiscard]] bool is_strictly_diagonally_dominant(const CsrMatrix& a);

/// Weak diagonal dominance (>=) with at least one strict row.
[[nodiscard]] bool is_weakly_diagonally_dominant(const CsrMatrix& a);

}  // namespace asyrgs
