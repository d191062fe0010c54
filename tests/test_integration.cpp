// End-to-end integration tests: the full social-media regression pipeline
// (generate -> characterize -> scale -> solve by four methods -> verify),
// mirroring the structure of the paper's Section 9 experiments at test
// scale.
#include <gtest/gtest.h>

#include <cmath>

#include "asyrgs/asyrgs.hpp"

namespace asyrgs {
namespace {

class SocialPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SocialGramOptions opt;
    opt.terms = 500;
    opt.documents = 2500;
    opt.mean_doc_length = 6;
    opt.ridge = 2.0;
    opt.seed = 2024;
    system_ = make_social_gram(opt);
    x_star_ = random_vector(system_.gram.rows(), 7);
    b_ = rhs_from_solution(system_.gram, x_star_);
  }

  SocialGram system_;
  std::vector<double> x_star_;
  std::vector<double> b_;
};

TEST_F(SocialPipelineTest, MatrixHasTheAdvertisedShape) {
  const CsrMatrix& a = system_.gram;
  EXPECT_TRUE(is_symmetric(a, 1e-10));
  EXPECT_FALSE(is_strictly_diagonally_dominant(a));
  const RowNnzStats stats = row_nnz_stats(a);
  EXPECT_GT(stats.ratio, 3.0);  // skewed rows, like the paper's matrix
}

TEST_F(SocialPipelineTest, FourSolversAgreeOnTheSolution) {
  ThreadPool pool(8);
  const CsrMatrix& a = system_.gram;
  const double tol = 1e-8;

  // 1. CG.
  std::vector<double> x_cg(a.rows(), 0.0);
  SolveOptions cg_opt;
  cg_opt.max_iterations = 4000;
  cg_opt.rel_tol = tol;
  const SolveReport cg_rep = cg_solve(pool, a, b_, x_cg, cg_opt);
  ASSERT_TRUE(cg_rep.converged);

  // 2. Sequential randomized Gauss-Seidel.
  std::vector<double> x_rgs(a.rows(), 0.0);
  RgsOptions rgs_opt;
  rgs_opt.sweeps = 4000;
  rgs_opt.rel_tol = tol;
  const RgsReport rgs_rep = rgs_solve(a, b_, x_rgs, rgs_opt);
  ASSERT_TRUE(rgs_rep.converged);

  // 3. AsyRGS with occasional synchronization.
  std::vector<double> x_async(a.rows(), 0.0);
  SolveControls async_opt;
  async_opt.method = SpdMethod::kAsyncRgs;
  async_opt.sweeps = 4000;
  async_opt.workers = 8;
  async_opt.sync = SyncMode::kBarrierPerSweep;
  async_opt.rel_tol = tol;
  const SolveOutcome async_rep =
      SpdProblem(pool, a, /*check_input=*/false).solve(b_, x_async, async_opt);
  ASSERT_TRUE(async_rep.converged());

  // 4. FCG preconditioned by AsyRGS.
  std::vector<double> x_fcg(a.rows(), 0.0);
  AsyRgsPreconditioner pc(pool, a, 3, 8);
  FcgOptions fo;
  fo.base.max_iterations = 2000;
  fo.base.rel_tol = tol;
  const FcgReport fcg_rep = fcg_solve(pool, a, b_, x_fcg, pc, fo);
  ASSERT_TRUE(fcg_rep.base.converged);

  // All four must be close to the reference solution in relative 2-norm.
  for (const auto* x : {&x_cg, &x_rgs, &x_async, &x_fcg}) {
    EXPECT_LT(nrm2(subtract(*x, x_star_)) / nrm2(x_star_), 1e-4);
  }
}

TEST_F(SocialPipelineTest, ScaledSolveMapsBackToOriginalSystem) {
  // Solve through the unit-diagonal transformation (Section 3) and verify
  // the mapped-back solution solves the *original* system.
  const CsrMatrix& b_mat = system_.gram;
  const UnitDiagonalScaling scaling(b_mat);
  const CsrMatrix a = scaling.scale_matrix(b_mat);
  ASSERT_TRUE(has_unit_diagonal(a, 1e-10));

  const std::vector<double> dz = scaling.scale_rhs(b_);
  std::vector<double> x(a.rows(), 0.0);
  ThreadPool pool(8);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 6000;
  opt.workers = 8;
  opt.sync = SyncMode::kBarrierPerSweep;
  opt.rel_tol = 1e-9;
  const SolveOutcome rep =
      SpdProblem(pool, a, /*check_input=*/false).solve(dz, x, opt);
  ASSERT_TRUE(rep.converged());

  const std::vector<double> y = scaling.unscale_solution(x);
  EXPECT_LT(relative_residual(b_mat, b_, y), 1e-7);
}

TEST_F(SocialPipelineTest, MultiRhsRegressionLikeThePaper) {
  // The 51-label setting in miniature: a block of right-hand sides solved
  // together by block CG and by block AsyRGS; solutions must agree.
  ThreadPool pool(8);
  const CsrMatrix& a = system_.gram;
  const index_t k = 7;
  const MultiVector x_true = random_multivector(a.rows(), k, 31);
  const MultiVector rhs = rhs_from_solution(a, x_true);

  MultiVector x_bcg(a.rows(), k);
  SolveOptions so;
  so.max_iterations = 4000;
  so.rel_tol = 1e-9;
  const BlockSolveReport bcg = block_cg_solve(pool, a, rhs, x_bcg, so);
  ASSERT_TRUE(bcg.all_converged(k));

  MultiVector x_async(a.rows(), k);
  SolveControls ao;
  ao.method = SpdMethod::kAsyncRgs;
  ao.sweeps = 6000;
  ao.workers = 8;
  ao.sync = SyncMode::kBarrierPerSweep;
  ao.rel_tol = 1e-9;
  const SolveOutcome rep =
      SpdProblem(pool, a, /*check_input=*/false).solve(rhs, x_async, ao);
  ASSERT_TRUE(rep.converged());

  const auto diffs = column_diff_norms(x_bcg, x_async);
  const auto norms = column_norms(x_bcg);
  for (index_t c = 0; c < k; ++c)
    EXPECT_LT(diffs[c] / norms[c], 1e-4) << "column " << c;
}

TEST_F(SocialPipelineTest, LeastSquaresOnTheRawFactor) {
  // Section 8 end-to-end: regress labels directly on the document-term
  // matrix F (overdetermined LSQ) with the asynchronous solver, checked
  // against CGNR.  Terms that never occur give empty columns; drop them
  // first, as the paper did ("after removing rows and columns that were
  // identically zero").
  ThreadPool pool(8);
  const CsrMatrix f = drop_empty_columns(system_.factor).matrix;
  const std::vector<double> coeffs = random_vector(f.cols(), 41);
  std::vector<double> labels = rhs_from_solution(f, coeffs);

  std::vector<double> x_async(f.cols(), 0.0);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 4000;
  opt.workers = 8;
  opt.step_size = 0.9;
  opt.sync = SyncMode::kBarrierPerSweep;
  opt.rel_tol = 1e-8;
  const SolveOutcome rep = LsqProblem(pool, f).solve(labels, x_async, opt);
  ASSERT_TRUE(rep.converged());

  std::vector<double> x_cgnr(f.cols(), 0.0);
  SolveOptions so;
  so.max_iterations = 4000;
  so.rel_tol = 1e-10;
  const SolveReport cgnr = cgnr_solve(pool, f, labels, x_cgnr, so);
  ASSERT_TRUE(cgnr.converged);

  EXPECT_LT(nrm2(subtract(x_async, x_cgnr)) / nrm2(x_cgnr), 1e-3);
}

TEST(Integration, MatrixMarketRoundTripThroughSolver) {
  // Persist a generated system, reload it, and solve: exercises the IO path
  // a downstream user would take.
  const CsrMatrix a_orig = laplacian_2d(9, 9);
  const std::string path = "/tmp/asyrgs_integration.mtx";
  write_matrix_market_file(path, a_orig);
  const CsrMatrix a = read_matrix_market_file(path);
  ASSERT_TRUE(a.equals(a_orig, 0.0));

  const std::vector<double> x_star = random_vector(a.rows(), 3);
  const std::vector<double> b = rhs_from_solution(a, x_star);
  std::vector<double> x(a.rows(), 0.0);
  ThreadPool pool(4);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 3000;
  opt.workers = 4;
  opt.sync = SyncMode::kBarrierPerSweep;
  opt.rel_tol = 1e-9;
  const SolveOutcome rep =
      SpdProblem(pool, a, /*check_input=*/false).solve(b, x, opt);
  EXPECT_TRUE(rep.converged());
  EXPECT_LT(nrm2(subtract(x, x_star)) / nrm2(x_star), 1e-6);
}

}  // namespace
}  // namespace asyrgs
