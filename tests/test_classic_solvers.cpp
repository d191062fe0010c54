// Classic iterative solver tests: Jacobi, Gauss-Seidel/SOR, CG, flexible CG,
// preconditioners, block CG, and the iteration-budget contract every
// SolveOptions solver keeps (Kaczmarz and CGNR included), which the
// sequential randomized references keep for their sweep budget too.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "asyrgs/core/async_lsq.hpp"
#include "asyrgs/core/rgs.hpp"
#include "asyrgs/gen/gram.hpp"
#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/random_spd.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/iter/block_cg.hpp"
#include "asyrgs/iter/cg.hpp"
#include "asyrgs/iter/fcg.hpp"
#include "asyrgs/iter/gauss_seidel.hpp"
#include "asyrgs/iter/jacobi.hpp"
#include "asyrgs/iter/kaczmarz.hpp"
#include "asyrgs/iter/precond.hpp"
#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/linalg/vector_ops.hpp"
#include "asyrgs/sparse/coo.hpp"
#include "asyrgs/support/prng.hpp"

namespace asyrgs {
namespace {

struct Problem {
  CsrMatrix a;
  std::vector<double> x_star;
  std::vector<double> b;
};

Problem laplacian_problem(index_t nx, index_t ny, std::uint64_t seed) {
  Problem p;
  p.a = laplacian_2d(nx, ny);
  p.x_star = random_vector(p.a.rows(), seed);
  p.b = rhs_from_solution(p.a, p.x_star);
  return p;
}

// --- Jacobi ---------------------------------------------------------------------

TEST(Jacobi, ConvergesOnStrictlyDominantSystem) {
  ThreadPool pool(4);
  RandomBandedOptions opt;
  opt.n = 500;
  opt.seed = 2;
  const CsrMatrix a = random_sdd(opt);
  const std::vector<double> x_star = random_vector(a.rows(), 3);
  const std::vector<double> b = rhs_from_solution(a, x_star);

  std::vector<double> x(a.rows(), 0.0);
  SolveOptions so;
  so.max_iterations = 500;
  so.rel_tol = 1e-10;
  const SolveReport rep = jacobi_solve(pool, a, b, x, so);
  EXPECT_TRUE(rep.converged);
  EXPECT_LT(relative_residual(a, b, x), 1e-9);
  EXPECT_LT(nrm2(subtract(x, x_star)) / nrm2(x_star), 1e-8);
}

TEST(Jacobi, RejectsZeroDiagonal) {
  ThreadPool pool(2);
  CooBuilder builder(2, 2);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(0, 0, 1.0);
  const CsrMatrix a = builder.to_csr();
  std::vector<double> b(2, 1.0), x(2, 0.0);
  EXPECT_THROW(jacobi_solve(pool, a, b, x), Error);
}

// --- Gauss-Seidel / SOR ------------------------------------------------------------

TEST(GaussSeidel, ConvergesOnLaplacian) {
  Problem p = laplacian_problem(12, 12, 5);
  std::vector<double> x(p.a.rows(), 0.0);
  SolveOptions so;
  so.max_iterations = 5000;
  so.rel_tol = 1e-10;
  const SolveReport rep = gauss_seidel_solve(p.a, p.b, x, so);
  EXPECT_TRUE(rep.converged);
  EXPECT_LT(relative_residual(p.a, p.b, x), 1e-9);
}

TEST(GaussSeidel, SorAcceleratesOnLaplacian) {
  // Optimal SOR omega for the 2-D Laplacian is well above 1; omega = 1.5
  // must beat plain Gauss-Seidel on iteration count.
  Problem p = laplacian_problem(15, 15, 7);
  SolveOptions so;
  so.max_iterations = 20000;
  so.rel_tol = 1e-8;

  std::vector<double> x_gs(p.a.rows(), 0.0);
  const SolveReport gs = gauss_seidel_solve(p.a, p.b, x_gs, so, 1.0);
  std::vector<double> x_sor(p.a.rows(), 0.0);
  const SolveReport sor = gauss_seidel_solve(p.a, p.b, x_sor, so, 1.5);
  EXPECT_TRUE(gs.converged);
  EXPECT_TRUE(sor.converged);
  EXPECT_LT(sor.iterations, gs.iterations);
}

TEST(GaussSeidel, RejectsBadOmega) {
  Problem p = laplacian_problem(3, 3, 1);
  std::vector<double> x(p.a.rows(), 0.0);
  EXPECT_THROW(sor_sweep(p.a, p.b, x, 0.0), Error);
  EXPECT_THROW(sor_sweep(p.a, p.b, x, 2.0), Error);
}

// --- CG -------------------------------------------------------------------------------

TEST(Cg, SolvesToTightTolerance) {
  ThreadPool pool(4);
  Problem p = laplacian_problem(20, 20, 9);
  std::vector<double> x(p.a.rows(), 0.0);
  SolveOptions so;
  so.max_iterations = 2000;
  so.rel_tol = 1e-12;
  const SolveReport rep = cg_solve(pool, p.a, p.b, x, so);
  EXPECT_TRUE(rep.converged);
  EXPECT_LT(nrm2(subtract(x, p.x_star)) / nrm2(p.x_star), 1e-9);
  // CG on an n-dim SPD system cannot take more than n steps (exact arith.).
  EXPECT_LE(rep.iterations, static_cast<int>(p.a.rows()));
}

TEST(Cg, TracksMonotoneHistoryLength) {
  ThreadPool pool(4);
  Problem p = laplacian_problem(10, 10, 11);
  std::vector<double> x(p.a.rows(), 0.0);
  SolveOptions so;
  so.max_iterations = 300;
  so.rel_tol = 1e-10;
  so.track_history = true;
  const SolveReport rep = cg_solve(pool, p.a, p.b, x, so);
  EXPECT_EQ(static_cast<int>(rep.residual_history.size()), rep.iterations);
  EXPECT_LE(rep.residual_history.back(), so.rel_tol);
}

TEST(Cg, JacobiPreconditionerHelpsOnScaledSystem) {
  // Badly scaled diagonal: Jacobi preconditioning restores CG's behaviour.
  ThreadPool pool(4);
  CooBuilder builder(200, 200);
  Xoshiro256 rng(13);
  for (index_t i = 0; i < 200; ++i) {
    const double scale = std::pow(10.0, 4.0 * uniform_real(rng));
    builder.add(i, i, scale);
    if (i + 1 < 200) builder.add_symmetric(i + 1, i, 0.05);
  }
  const CsrMatrix a = builder.to_csr();
  const std::vector<double> x_star = random_vector(200, 17);
  const std::vector<double> b = rhs_from_solution(a, x_star);

  SolveOptions so;
  so.max_iterations = 400;
  so.rel_tol = 1e-10;

  std::vector<double> x_plain(200, 0.0);
  const SolveReport plain = cg_solve(pool, a, b, x_plain, so);

  JacobiPreconditioner jacobi(a);
  std::vector<double> x_pc(200, 0.0);
  const SolveReport pc = cg_solve(pool, a, b, x_pc, so, &jacobi);

  EXPECT_TRUE(pc.converged);
  EXPECT_LE(pc.iterations, plain.iterations);
}

TEST(Cg, ZeroRhsReturnsZero) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_1d(10);
  std::vector<double> b(10, 0.0), x(10, 1.0);
  const SolveReport rep = cg_solve(pool, a, b, x);
  EXPECT_TRUE(rep.converged);
  EXPECT_DOUBLE_EQ(nrm2(x), 0.0);
}

// --- Flexible CG -----------------------------------------------------------------------

TEST(Fcg, WithIdentityPreconditionerMatchesCgIterationCount) {
  ThreadPool pool(4);
  Problem p = laplacian_problem(14, 14, 19);
  SolveOptions so;
  so.max_iterations = 1000;
  so.rel_tol = 1e-10;

  std::vector<double> x_cg(p.a.rows(), 0.0);
  const SolveReport cg = cg_solve(pool, p.a, p.b, x_cg, so);

  IdentityPreconditioner identity;
  FcgOptions fo;
  fo.base = so;
  std::vector<double> x_fcg(p.a.rows(), 0.0);
  const FcgReport fcg = fcg_solve(pool, p.a, p.b, x_fcg, identity, fo);

  EXPECT_TRUE(fcg.base.converged);
  // Identity-preconditioned FCG is mathematically CG; allow small slack for
  // the different recurrence arithmetic.
  EXPECT_NEAR(fcg.base.iterations, cg.iterations, 2);
}

TEST(Fcg, RandomizedGaussSeidelPreconditionerCutsIterations) {
  ThreadPool pool(4);
  Problem p = laplacian_problem(16, 16, 23);
  SolveOptions so;
  so.max_iterations = 2000;
  so.rel_tol = 1e-10;

  IdentityPreconditioner identity;
  FcgOptions fo;
  fo.base = so;
  std::vector<double> x_plain(p.a.rows(), 0.0);
  const FcgReport plain = fcg_solve(pool, p.a, p.b, x_plain, identity, fo);

  RgsPreconditioner rgs_pc(p.a, /*sweeps=*/3, /*step_size=*/1.0, /*seed=*/5);
  std::vector<double> x_pc(p.a.rows(), 0.0);
  const FcgReport pc = fcg_solve(pool, p.a, p.b, x_pc, rgs_pc, fo);

  EXPECT_TRUE(plain.base.converged);
  EXPECT_TRUE(pc.base.converged);
  EXPECT_LT(pc.base.iterations, plain.base.iterations);
  EXPECT_EQ(pc.preconditioner_applications, pc.base.iterations);
}

TEST(Fcg, TruncationStillConverges) {
  ThreadPool pool(4);
  Problem p = laplacian_problem(12, 12, 29);
  RgsPreconditioner pc(p.a, 2, 1.0, 7);
  FcgOptions fo;
  fo.base.max_iterations = 2000;
  fo.base.rel_tol = 1e-9;
  fo.truncation = 4;
  std::vector<double> x(p.a.rows(), 0.0);
  const FcgReport rep = fcg_solve(pool, p.a, p.b, x, pc, fo);
  EXPECT_TRUE(rep.base.converged);
  EXPECT_LT(relative_residual(p.a, p.b, x), 1e-8);
}

// --- block CG -----------------------------------------------------------------------------

TEST(BlockCg, MatchesColumnwiseCg) {
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(12, 10);
  const MultiVector x_star = random_multivector(a.rows(), 5, 31);
  const MultiVector b = rhs_from_solution(a, x_star);

  SolveOptions so;
  so.max_iterations = 600;
  so.rel_tol = 1e-10;

  MultiVector x(a.rows(), 5);
  const BlockSolveReport rep = block_cg_solve(pool, a, b, x, so);
  EXPECT_TRUE(rep.all_converged(5));

  for (index_t c = 0; c < 5; ++c) {
    std::vector<double> xc(a.rows(), 0.0);
    const std::vector<double> bc = b.column(c);
    cg_solve(pool, a, bc, xc, so);
    const std::vector<double> x_col = x.column(c);
    EXPECT_LT(nrm2(subtract(x_col, xc)) / nrm2(xc), 1e-7) << "column " << c;
  }
}

TEST(BlockCg, PerColumnResidualsReported) {
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(8, 8);
  const MultiVector b = random_multivector(a.rows(), 3, 37);
  MultiVector x(a.rows(), 3);
  SolveOptions so;
  so.max_iterations = 400;
  so.rel_tol = 1e-9;
  so.track_history = true;
  const BlockSolveReport rep = block_cg_solve(pool, a, b, x, so);
  ASSERT_EQ(rep.column_relative_residuals.size(), 3u);
  for (double r : rep.column_relative_residuals) EXPECT_LE(r, 1e-9);
  EXPECT_FALSE(rep.residual_history.empty());
}

class BlockCgPartitionTest : public ::testing::TestWithParam<RowPartition> {};

TEST_P(BlockCgPartitionTest, AllPartitionsSolve) {
  ThreadPool pool(8);
  const CsrMatrix a = laplacian_2d(9, 9);
  const MultiVector x_star = random_multivector(a.rows(), 2, 41);
  const MultiVector b = rhs_from_solution(a, x_star);
  MultiVector x(a.rows(), 2);
  SolveOptions so;
  so.max_iterations = 400;
  so.rel_tol = 1e-10;
  const BlockSolveReport rep =
      block_cg_solve(pool, a, b, x, so, 8, GetParam());
  EXPECT_TRUE(rep.all_converged(2));
}

INSTANTIATE_TEST_SUITE_P(AllPartitions, BlockCgPartitionTest,
                         ::testing::Values(RowPartition::kContiguous,
                                           RowPartition::kRoundRobin,
                                           RowPartition::kDynamic));

// --- iteration budget ------------------------------------------------------------

/// The budget contract, checked through `solve(x, max_iterations)` from
/// x = 0 on laplacian_2d(8, 8): a zero budget returns x untouched and
/// reports its true metric, which from x = 0 is exactly 1 (every solver's
/// metric is a norm of b, or of A^T b, over itself); a negative budget
/// throws.
template <class Solve>
void expect_budget_contract(Solve&& solve) {
  const index_t n = 64;
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  const SolveReport report = solve(x, 0);
  EXPECT_EQ(report.iterations, 0);
  EXPECT_EQ(report.final_relative_residual, 1.0);
  EXPECT_FALSE(report.converged);
  EXPECT_EQ(x, std::vector<double>(static_cast<std::size_t>(n), 0.0));
  EXPECT_THROW(solve(x, -3), Error);
}

struct BudgetCase {
  CsrMatrix a = laplacian_2d(8, 8);
  std::vector<double> b = random_vector(a.rows(), 5);
  ThreadPool pool{2};

  [[nodiscard]] SolveOptions options(int max_iterations) const {
    SolveOptions so;
    so.max_iterations = max_iterations;
    return so;
  }
};

TEST(Budget, GaussSeidelZeroBudgetReportsTheResidualOfX0) {
  BudgetCase c;
  expect_budget_contract([&](std::vector<double>& x, int budget) {
    return gauss_seidel_solve(c.a, c.b, x, c.options(budget));
  });
}

TEST(Budget, JacobiZeroBudgetReportsTheResidualOfX0) {
  BudgetCase c;
  expect_budget_contract([&](std::vector<double>& x, int budget) {
    return jacobi_solve(c.pool, c.a, c.b, x, c.options(budget));
  });
}

TEST(Budget, CgZeroBudgetReportsTheResidualOfX0) {
  BudgetCase c;
  expect_budget_contract([&](std::vector<double>& x, int budget) {
    return cg_solve(c.pool, c.a, c.b, x, c.options(budget));
  });
}

TEST(Budget, FcgZeroBudgetReportsTheResidualOfX0) {
  BudgetCase c;
  IdentityPreconditioner identity;
  expect_budget_contract([&](std::vector<double>& x, int budget) {
    FcgOptions fo;
    fo.base = c.options(budget);
    const FcgReport report = fcg_solve(c.pool, c.a, c.b, x, identity, fo);
    EXPECT_EQ(report.preconditioner_applications, 0);
    return report.base;
  });
}

TEST(Budget, KaczmarzZeroBudgetReportsTheResidualOfX0) {
  BudgetCase c;
  expect_budget_contract([&](std::vector<double>& x, int budget) {
    return kaczmarz_solve(c.a, c.b, x, c.options(budget));
  });
}

TEST(Budget, CgnrZeroBudgetReportsTheNormalEquationsResidualOfX0) {
  BudgetCase c;
  expect_budget_contract([&](std::vector<double>& x, int budget) {
    return cgnr_solve(c.pool, c.a, c.b, x, c.options(budget));
  });
}

/// expect_budget_contract for the sequential randomized references, whose
/// budget is RgsOptions::sweeps.  `solve(sweeps)` runs from x0 = 0 (metric
/// 1) with rel_tol 1e-3 and returns its report and final iterate.
template <class Solve>
void expect_sweep_budget_contract(Solve&& solve) {
  const auto [report, x] = solve(0);
  EXPECT_EQ(report.sweeps_done, 0);
  EXPECT_EQ(report.updates, 0);
  EXPECT_EQ(report.final_relative_residual, 1.0);
  EXPECT_FALSE(report.converged);
  EXPECT_EQ(x, std::vector<double>(x.size(), 0.0));
  EXPECT_THROW((void)solve(-5), Error);
}

RgsOptions rgs_options(int sweeps) {
  RgsOptions ro;
  ro.sweeps = sweeps;
  ro.rel_tol = 1e-3;
  return ro;
}

TEST(Budget, RgsZeroSweepsReportTheResidualOfX0) {
  BudgetCase c;
  expect_sweep_budget_contract([&](int sweeps) {
    std::vector<double> x(c.b.size(), 0.0);
    const RgsReport report = rgs_solve(c.a, c.b, x, rgs_options(sweeps));
    return std::pair(report, x);
  });
}

TEST(Budget, RgsBlockZeroSweepsReportTheResidualOfX0) {
  BudgetCase c;
  const MultiVector b = random_multivector(c.a.rows(), 3, 5);
  expect_sweep_budget_contract([&](int sweeps) {
    MultiVector x(c.a.rows(), 3);
    const RgsReport report = rgs_solve_block(c.a, b, x, rgs_options(sweeps));
    return std::pair(report,
                     std::vector<double>(x.data(), x.data() + x.size()));
  });
}

TEST(Budget, RcdLsqZeroSweepsReportTheNormalEquationsResidualOfX0) {
  const CsrMatrix f = drop_empty_columns(make_social_gram({}).factor).matrix;
  const std::vector<double> b = random_vector(f.rows(), 5);
  expect_sweep_budget_contract([&](int sweeps) {
    std::vector<double> x(static_cast<std::size_t>(f.cols()), 0.0);
    const RgsReport report = rcd_lsq_solve(f, b, x, rgs_options(sweeps));
    return std::pair(report, x);
  });
}

TEST(Budget, RgsZeroSweepsAtTheSolutionReportConverged) {
  Problem p = laplacian_problem(8, 8, 3);
  std::vector<double> x = p.x_star;
  const RgsReport report = rgs_solve(p.a, p.b, x, rgs_options(0));
  EXPECT_TRUE(report.converged);
  EXPECT_LE(report.final_relative_residual, 1e-12);
}

TEST(Budget, ZeroBudgetAtTheSolutionReportsConverged) {
  // The other half of the rule: a zero budget whose x0 already meets
  // rel_tol is converged, not a missed tolerance.
  Problem p = laplacian_problem(8, 8, 3);
  SolveOptions so;
  so.max_iterations = 0;
  so.rel_tol = 1e-8;
  std::vector<double> x = p.x_star;
  const SolveReport report = gauss_seidel_solve(p.a, p.b, x, so);
  EXPECT_TRUE(report.converged);
  EXPECT_LE(report.final_relative_residual, 1e-12);
}

}  // namespace
}  // namespace asyrgs
