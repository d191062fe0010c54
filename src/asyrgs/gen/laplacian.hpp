// Structured SPD model problems: grid Laplacians.
//
// These are the "reference scenario" matrices of the paper: sparse, with
// per-row nonzero counts between C1 and C2 and a small C2/C1 ratio.  The 1-D
// Laplacian additionally has a closed-form spectrum, which the tests use to
// validate the Lanczos estimator and the theory module end to end.
#pragma once

#include "asyrgs/sparse/csr.hpp"

namespace asyrgs {

/// 1-D Dirichlet Laplacian: tridiagonal (-1, 2, -1), size n.
/// Eigenvalues: 2 - 2 cos(k pi / (n+1)), k = 1..n.
[[nodiscard]] CsrMatrix laplacian_1d(index_t n);

/// 2-D 5-point Dirichlet Laplacian on an nx x ny grid with optional
/// anisotropy: -ax u_xx - ay u_yy discretized with unit mesh width.
[[nodiscard]] CsrMatrix laplacian_2d(index_t nx, index_t ny, double ax = 1.0,
                                     double ay = 1.0);

/// 3-D 7-point Dirichlet Laplacian on an nx x ny x nz grid.
[[nodiscard]] CsrMatrix laplacian_3d(index_t nx, index_t ny, index_t nz);

/// Exact k-th eigenvalue (1-based) of laplacian_1d(n).
[[nodiscard]] double laplacian_1d_eigenvalue(index_t n, index_t k);

}  // namespace asyrgs
