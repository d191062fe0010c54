// Sparse-layer tests: COO assembly, CSR invariants and ops, diagonal
// scaling, matrix properties.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/sparse/coo.hpp"
#include "asyrgs/sparse/csr.hpp"
#include "asyrgs/sparse/properties.hpp"
#include "asyrgs/sparse/scale.hpp"

namespace asyrgs {
namespace {

CsrMatrix small_matrix() {
  // [ 2 -1  0 ]
  // [-1  2 -1 ]
  // [ 0 -1  2 ]
  return laplacian_1d(3);
}

// --- CooBuilder ---------------------------------------------------------------

TEST(Coo, BuildsSortedCsr) {
  CooBuilder b(2, 3);
  b.add(1, 2, 5.0);
  b.add(0, 0, 1.0);
  b.add(1, 0, 4.0);
  const CsrMatrix m = b.to_csr();
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.0);
}

TEST(Coo, SumsDuplicates) {
  CooBuilder b(2, 2);
  b.add(0, 1, 1.5);
  b.add(0, 1, 2.5);
  b.add(0, 1, -1.0);
  const CsrMatrix m = b.to_csr();
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 3.0);
}

TEST(Coo, AddSymmetricMirrorsOffDiagonal) {
  CooBuilder b(3, 3);
  b.add_symmetric(2, 0, 7.0);
  b.add_symmetric(1, 1, 3.0);
  const CsrMatrix m = b.to_csr();
  EXPECT_DOUBLE_EQ(m.at(2, 0), 7.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 7.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 3.0);
  EXPECT_EQ(m.nnz(), 3);
}

TEST(Coo, RejectsOutOfRange) {
  CooBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0, 1.0), Error);
  EXPECT_THROW(b.add(0, -1, 1.0), Error);
  EXPECT_THROW(CooBuilder(0, 1), Error);
  // 2^40 rows: each row-offset array to_csr would allocate needs 8 TB, so
  // the constructor refuses the count before anything is allocated.
  EXPECT_THROW(CooBuilder(index_t{1} << 40, 1), Error);
}

// --- CsrMatrix -----------------------------------------------------------------

TEST(Csr, ValidatesStructure) {
  // row_ptr not starting at zero
  EXPECT_THROW(CsrMatrix(1, 1, {1, 1}, {}, {}), Error);
  // row_ptr wrong size
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0}), Error);
  // column out of range
  EXPECT_THROW(CsrMatrix(1, 1, {0, 1}, {1}, {1.0}), Error);
  // unsorted columns
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {2, 0}, {1.0, 2.0}), Error);
  // duplicate columns in a row
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {1, 1}, {1.0, 2.0}), Error);
  // value/col size mismatch
  EXPECT_THROW(CsrMatrix(1, 2, {0, 1}, {0}, {1.0, 2.0}), Error);
}

TEST(Csr, RejectsNonFiniteValues) {
  // An infinite ||A||_inf would make SpdProblem's symmetry tolerance
  // infinite, and a NaN column norm reads as a "zero column" in
  // LsqProblem, so every matrix refuses non-finite values at construction.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1, 2}, {0, 1}, {1.0, nan}), Error);
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1, 2}, {0, 1}, {inf, 1.0}), Error);
  EXPECT_THROW(CsrMatrix32(2, 2, {0, 1, 2}, {0, 1}, {1.0, -inf}), Error);
  EXPECT_NO_THROW(CsrMatrix(2, 2, {0, 1, 2}, {0, 1}, {1.0, 1e308}));
}

TEST(Coo, RejectsDuplicatesSummingToInfinity) {
  CooBuilder b(3, 3);
  b.add(0, 0, 4.0);
  b.add(0, 1, 1e308);
  b.add(0, 1, 1e308);  // folds to +inf
  b.add(1, 0, 1.0);
  b.add(1, 1, 4.0);
  b.add(2, 2, 4.0);
  EXPECT_THROW((void)b.to_csr(), Error);
}

TEST(Csr, RowAccessAndDot) {
  const CsrMatrix m = small_matrix();
  EXPECT_EQ(m.row_nnz(0), 2);
  EXPECT_EQ(m.row_nnz(1), 3);
  const double x[] = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(m.row_dot(0, x), 2.0 * 1 - 1.0 * 2);
  EXPECT_DOUBLE_EQ(m.row_dot(1, x), -1.0 + 4.0 - 3.0);
}

TEST(Csr, MultiplyMatchesDense) {
  const CsrMatrix m = small_matrix();
  const double x[] = {1.0, -1.0, 2.0};
  double y[3];
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], -5.0);
  EXPECT_DOUBLE_EQ(y[2], 5.0);
}

TEST(Csr, MultiplyTransposeMatchesTransposedMultiply) {
  CooBuilder b(2, 3);
  b.add(0, 0, 1.0);
  b.add(0, 2, 2.0);
  b.add(1, 1, 3.0);
  const CsrMatrix m = b.to_csr();
  const CsrMatrix mt = m.transpose();
  const double x[] = {4.0, 5.0};
  double y1[3], y2[3];
  m.multiply_transpose(x, y1);
  mt.multiply(x, y2);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(y1[i], y2[i]);
}

TEST(Csr, TransposeIsInvolution) {
  const CsrMatrix m = laplacian_2d(5, 4);
  EXPECT_TRUE(m.transpose().transpose().equals(m));
}

TEST(Csr, TransposeKeepsColumnsSorted) {
  CooBuilder b(3, 3);
  b.add(0, 2, 1.0);
  b.add(1, 2, 2.0);
  b.add(2, 0, 3.0);
  const CsrMatrix mt = b.to_csr().transpose();
  for (index_t i = 0; i < mt.rows(); ++i) {
    const auto cols = mt.row_cols(i);
    for (std::size_t t = 1; t < cols.size(); ++t)
      EXPECT_LT(cols[t - 1], cols[t]);
  }
}

TEST(Csr, DiagonalExtraction) {
  const CsrMatrix m = small_matrix();
  const std::vector<double> d = m.diagonal();
  EXPECT_EQ(d.size(), 3u);
  for (double v : d) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(Csr, EqualsWithTolerance) {
  const CsrMatrix a = small_matrix();
  CooBuilder b(3, 3);
  for (index_t i = 0; i < 3; ++i) {
    b.add(i, i, 2.0 + 1e-12);
    if (i + 1 < 3) b.add_symmetric(i + 1, i, -1.0);
  }
  const CsrMatrix a2 = b.to_csr();
  EXPECT_FALSE(a.equals(a2, 0.0));
  EXPECT_TRUE(a.equals(a2, 1e-10));
}

// --- scaling -------------------------------------------------------------------

TEST(Scale, ProducesUnitDiagonal) {
  CooBuilder b(3, 3);
  b.add(0, 0, 4.0);
  b.add(1, 1, 9.0);
  b.add(2, 2, 16.0);
  b.add_symmetric(1, 0, 2.0);
  b.add_symmetric(2, 1, -3.0);
  const CsrMatrix orig = b.to_csr();
  const UnitDiagonalScaling scaling(orig);
  const CsrMatrix scaled = scaling.scale_matrix(orig);
  EXPECT_TRUE(has_unit_diagonal(scaled));
  // Off-diagonal: A_ij = B_ij / sqrt(B_ii B_jj).
  EXPECT_NEAR(scaled.at(0, 1), 2.0 / (2.0 * 3.0), 1e-15);
  EXPECT_NEAR(scaled.at(2, 1), -3.0 / (4.0 * 3.0), 1e-15);
}

TEST(Scale, SolutionMappingRoundTrips) {
  // If x solves (DBD) x = D z then y = D x solves B y = z.
  CooBuilder b(2, 2);
  b.add(0, 0, 4.0);
  b.add(1, 1, 25.0);
  b.add_symmetric(1, 0, 1.0);
  const CsrMatrix orig = b.to_csr();
  const UnitDiagonalScaling scaling(orig);
  const CsrMatrix scaled = scaling.scale_matrix(orig);

  const std::vector<double> y_true = {1.0, -2.0};
  std::vector<double> z(2);
  orig.multiply(y_true.data(), z.data());

  // Solve the 2x2 scaled system directly.
  const std::vector<double> dz = scaling.scale_rhs(z);
  const double a11 = scaled.at(0, 0), a12 = scaled.at(0, 1),
               a22 = scaled.at(1, 1);
  const double det = a11 * a22 - a12 * a12;
  const std::vector<double> x = {(a22 * dz[0] - a12 * dz[1]) / det,
                                 (a11 * dz[1] - a12 * dz[0]) / det};
  const std::vector<double> y = scaling.unscale_solution(x);
  EXPECT_NEAR(y[0], y_true[0], 1e-12);
  EXPECT_NEAR(y[1], y_true[1], 1e-12);

  // scale_solution inverts unscale_solution.
  const std::vector<double> x_back = scaling.scale_solution(y);
  EXPECT_NEAR(x_back[0], x[0], 1e-12);
  EXPECT_NEAR(x_back[1], x[1], 1e-12);
}

TEST(Scale, RejectsNonPositiveDiagonal) {
  CooBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(1, 1, -1.0);
  const CsrMatrix m = b.to_csr();
  EXPECT_THROW(UnitDiagonalScaling scaling(m), Error);
}

// --- properties ------------------------------------------------------------------

TEST(Properties, InfNormAndRho) {
  const CsrMatrix m = small_matrix();  // worst row sum = |-1| + 2 + |-1| = 4
  EXPECT_DOUBLE_EQ(inf_norm(m), 4.0);
  EXPECT_DOUBLE_EQ(rho(m), 4.0 / 3.0);
}

TEST(Properties, Rho2) {
  const CsrMatrix m = small_matrix();  // worst row: 1 + 4 + 1 = 6
  EXPECT_DOUBLE_EQ(rho2(m), 6.0 / 3.0);
}

TEST(Properties, FrobeniusNorm) {
  const CsrMatrix m = small_matrix();  // 3 diag (4) + 4 offdiag (1) = 16
  EXPECT_DOUBLE_EQ(frobenius_norm(m), 4.0);
}

TEST(Properties, SymmetryDetection) {
  EXPECT_TRUE(is_symmetric(small_matrix()));
  CooBuilder b(2, 2);
  b.add(0, 1, 1.0);
  EXPECT_FALSE(is_symmetric(b.to_csr()));
}

TEST(Properties, DiagonalDominance) {
  EXPECT_FALSE(is_strictly_diagonally_dominant(small_matrix()));
  EXPECT_TRUE(is_weakly_diagonally_dominant(small_matrix()));

  CooBuilder b(2, 2);
  b.add(0, 0, 3.0);
  b.add(1, 1, 3.0);
  b.add_symmetric(1, 0, -1.0);
  EXPECT_TRUE(is_strictly_diagonally_dominant(b.to_csr()));
}

TEST(Properties, RowNnzStats) {
  const RowNnzStats s = row_nnz_stats(small_matrix());
  EXPECT_EQ(s.min, 2);
  EXPECT_EQ(s.max, 3);
  EXPECT_NEAR(s.mean, 7.0 / 3.0, 1e-15);
  EXPECT_NEAR(s.ratio, 1.5, 1e-15);
}

}  // namespace
}  // namespace asyrgs
