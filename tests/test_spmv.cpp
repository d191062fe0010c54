// Parallel SpMV tests: every partition strategy must agree with the serial
// reference on balanced and heavily skewed matrices, at both index widths;
// block products must agree with column-by-column products.
#include <gtest/gtest.h>

#include <cstdint>

#include "asyrgs/gen/gram.hpp"
#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/sparse/spmv.hpp"

namespace asyrgs {
namespace {

class SpmvPartitionTest : public ::testing::TestWithParam<RowPartition> {};

/// spmv on `a` and on its int32 copy, the way perfbench's sparse.spmv_int32
/// probe narrows it, must both reproduce the serial product.  Both scan each
/// row in the same order, so the int32 result is bit-identical.
void expect_matches_serial(const CsrMatrix& a, std::uint64_t seed,
                           RowPartition partition) {
  ThreadPool pool(8);
  const std::vector<double> x = random_vector(a.cols(), seed);
  std::vector<double> expect(static_cast<std::size_t>(a.rows()));
  a.multiply(x.data(), expect.data());

  std::vector<double> y;
  spmv(pool, a, x, y, 8, partition);
  ASSERT_EQ(y.size(), expect.size());
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_DOUBLE_EQ(y[i], expect[i]) << "row " << i;

  std::vector<double> y32;
  spmv(pool, convert_storage<std::int32_t, double>(a), x, y32, 8, partition);
  ASSERT_EQ(y32.size(), expect.size());
  for (std::size_t i = 0; i < y32.size(); ++i)
    EXPECT_EQ(y32[i], expect[i]) << "int32 row " << i;
}

TEST_P(SpmvPartitionTest, MatchesSerialOnLaplacian) {
  expect_matches_serial(laplacian_2d(37, 23), 5, GetParam());
}

TEST_P(SpmvPartitionTest, MatchesSerialOnSkewedGram) {
  SocialGramOptions opt;
  opt.terms = 300;
  opt.documents = 1500;
  opt.mean_doc_length = 6;
  expect_matches_serial(make_social_gram(opt).gram, 6, GetParam());
}

TEST_P(SpmvPartitionTest, BlockMatchesColumnwise) {
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(19, 11);
  const MultiVector x = random_multivector(a.cols(), 5, 7);
  MultiVector y(a.rows(), 5);
  spmv_block(pool, a, x, y, 4, GetParam());

  for (index_t c = 0; c < 5; ++c) {
    const std::vector<double> xc = x.column(c);
    std::vector<double> yc(static_cast<std::size_t>(a.rows()));
    a.multiply(xc.data(), yc.data());
    for (index_t i = 0; i < a.rows(); ++i)
      EXPECT_DOUBLE_EQ(y.at(i, c), yc[i]) << "col " << c << " row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPartitions, SpmvPartitionTest,
                         ::testing::Values(RowPartition::kContiguous,
                                           RowPartition::kRoundRobin,
                                           RowPartition::kDynamic));

TEST(Spmv, WorksWithOneWorker) {
  ThreadPool pool(1);
  const CsrMatrix a = laplacian_1d(50);
  const std::vector<double> x = random_vector(50, 3);
  std::vector<double> y, expect(50);
  a.multiply(x.data(), expect.data());
  spmv(pool, a, x, y, 1);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(y[i], expect[i]);
}

TEST(Spmv, RejectsShapeMismatch) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_1d(10);
  std::vector<double> x(9), y;
  EXPECT_THROW(spmv(pool, a, x, y), Error);
}

TEST(BlockResidual, MatchesDefinition) {
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(8, 9);
  const MultiVector x = random_multivector(a.cols(), 3, 11);
  const MultiVector b = random_multivector(a.rows(), 3, 12);
  MultiVector r(a.rows(), 3);
  block_residual(pool, a, b, x, r);

  MultiVector ax(a.rows(), 3);
  spmv_block(pool, a, x, ax);
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(r.at(i, c), b.at(i, c) - ax.at(i, c));
}

}  // namespace
}  // namespace asyrgs
