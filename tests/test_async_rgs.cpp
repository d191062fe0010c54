// AsyRGS tests: single-worker equivalence with the sequential solver,
// multi-threaded convergence, atomic vs non-atomic writes, sync modes,
// block variant, and the fixed-direction-multiset methodology.  Each solve
// runs as a one-shot caller writes it: SpdMethod::kAsyncRgs on a fresh,
// unvalidated SpdProblem.
#include <gtest/gtest.h>

#include <cmath>

#include "asyrgs/core/rgs.hpp"
#include "asyrgs/gen/gram.hpp"
#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/linalg/vector_ops.hpp"
#include "asyrgs/problem.hpp"
#include "asyrgs/sparse/scale.hpp"
#include "asyrgs/support/prng.hpp"

namespace asyrgs {
namespace {

TEST(AsyncRgs, OneWorkerFreeRunningMatchesSequentialBitwise) {
  // With P = 1 the asynchronous solver executes the identical update
  // sequence as the sequential solver (same Philox stream), so the iterates
  // must agree to the last bit.
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(9, 9);
  const std::vector<double> b = random_vector(a.rows(), 3);

  std::vector<double> x_seq(a.rows(), 0.0);
  RgsOptions seq;
  seq.sweeps = 5;
  seq.seed = 11;
  rgs_solve(a, b, x_seq, seq);

  std::vector<double> x_async(a.rows(), 0.0);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 5;
  opt.seed = 11;
  opt.workers = 1;
  SpdProblem(pool, a, /*check_input=*/false).solve(b, x_async, opt);

  EXPECT_EQ(x_seq, x_async);
}

TEST(AsyncRgs, OneWorkerBarrierModeAlsoMatches) {
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(8, 7);
  const std::vector<double> b = random_vector(a.rows(), 5);

  std::vector<double> x_seq(a.rows(), 0.0);
  RgsOptions seq;
  seq.sweeps = 4;
  seq.seed = 23;
  rgs_solve(a, b, x_seq, seq);

  std::vector<double> x_async(a.rows(), 0.0);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 4;
  opt.seed = 23;
  opt.workers = 1;
  opt.sync = SyncMode::kBarrierPerSweep;
  SpdProblem(pool, a, /*check_input=*/false).solve(b, x_async, opt);

  EXPECT_EQ(x_seq, x_async);
}

class AsyncRgsThreadsTest : public ::testing::TestWithParam<int> {};

TEST_P(AsyncRgsThreadsTest, ConvergesWithManyWorkers) {
  const int workers = GetParam();
  ThreadPool pool(workers);
  const CsrMatrix a = laplacian_2d(16, 16);
  const std::vector<double> x_star = random_vector(a.rows(), 7);
  const std::vector<double> b = rhs_from_solution(a, x_star);

  std::vector<double> x(a.rows(), 0.0);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 3000;
  opt.seed = 31;
  opt.workers = workers;
  opt.sync = SyncMode::kBarrierPerSweep;
  opt.rel_tol = 1e-8;
  const SolveOutcome rep =
      SpdProblem(pool, a, /*check_input=*/false).solve(b, x, opt);
  EXPECT_TRUE(rep.converged()) << "workers=" << workers;
  EXPECT_LT(relative_residual(a, b, x), 1e-7);
  EXPECT_LT(nrm2(subtract(x, x_star)) / nrm2(x_star), 1e-5);
}

TEST_P(AsyncRgsThreadsTest, FreeRunningReachesSyncComparableResidual) {
  // The Figure 2 (center) claim: after the same number of sweeps the
  // asynchronous residual is of the same order of magnitude as the
  // synchronous one.
  const int workers = GetParam();
  ThreadPool pool(workers);
  const CsrMatrix a = laplacian_2d(14, 14);
  const std::vector<double> x_star = random_vector(a.rows(), 41);
  const std::vector<double> b = rhs_from_solution(a, x_star);

  const int sweeps = 60;
  std::vector<double> x_sync(a.rows(), 0.0);
  RgsOptions seq;
  seq.sweeps = sweeps;
  seq.seed = 43;
  rgs_solve(a, b, x_sync, seq);
  const double res_sync = relative_residual(a, b, x_sync);

  std::vector<double> x_async(a.rows(), 0.0);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = sweeps;
  opt.seed = 43;
  opt.workers = workers;
  const SolveOutcome rep =
      SpdProblem(pool, a, /*check_input=*/false).solve(b, x_async, opt);
  EXPECT_EQ(rep.workers, workers);
  const double res_async = relative_residual(a, b, x_async);

  EXPECT_LT(res_async, 50.0 * res_sync + 1e-12)
      << "sync " << res_sync << " async " << res_async;
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, AsyncRgsThreadsTest,
                         ::testing::Values(2, 4, 8));

TEST(AsyncRgs, NonAtomicVariantStillConverges) {
  // Figure 2's "non atomic" experiment: lost updates do not wreck
  // convergence in practice.
  ThreadPool pool(8);
  const CsrMatrix a = laplacian_2d(12, 12);
  const std::vector<double> x_star = random_vector(a.rows(), 51);
  const std::vector<double> b = rhs_from_solution(a, x_star);

  std::vector<double> x(a.rows(), 0.0);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 2000;
  opt.seed = 53;
  opt.workers = 8;
  opt.atomic_writes = false;
  opt.sync = SyncMode::kBarrierPerSweep;
  opt.rel_tol = 1e-7;
  const SolveOutcome rep =
      SpdProblem(pool, a, /*check_input=*/false).solve(b, x, opt);
  EXPECT_TRUE(rep.converged());
}

TEST(AsyncRgs, StepSizeDampensOnHostileDelay) {
  // beta < 1 must also converge (Theorem 3 regime).
  ThreadPool pool(8);
  const CsrMatrix a = laplacian_2d(10, 10);
  const std::vector<double> b = random_vector(a.rows(), 57);

  std::vector<double> x(a.rows(), 0.0);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 4000;
  opt.seed = 59;
  opt.workers = 8;
  opt.step_size = 0.5;
  opt.sync = SyncMode::kBarrierPerSweep;
  opt.rel_tol = 1e-7;
  const SolveOutcome rep =
      SpdProblem(pool, a, /*check_input=*/false).solve(b, x, opt);
  EXPECT_TRUE(rep.converged());
}

TEST(AsyncRgs, BarrierModeTracksHistory) {
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> b = random_vector(a.rows(), 61);
  std::vector<double> x(a.rows(), 0.0);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 10;
  opt.workers = 4;
  opt.sync = SyncMode::kBarrierPerSweep;
  opt.track_history = true;
  const SolveOutcome rep =
      SpdProblem(pool, a, /*check_input=*/false).solve(b, x, opt);
  EXPECT_EQ(rep.iterations, 10);
  EXPECT_EQ(rep.residual_history.size(), 10u);
  // Residuals should broadly decrease over sweeps.
  EXPECT_LT(rep.residual_history.back(), rep.residual_history.front());
}

TEST(AsyncRgs, EarlyStopOnTolerance) {
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> x_star = random_vector(a.rows(), 67);
  const std::vector<double> b = rhs_from_solution(a, x_star);
  std::vector<double> x(a.rows(), 0.0);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 100000;
  opt.workers = 4;
  opt.sync = SyncMode::kBarrierPerSweep;
  opt.rel_tol = 1e-6;
  const SolveOutcome rep =
      SpdProblem(pool, a, /*check_input=*/false).solve(b, x, opt);
  EXPECT_TRUE(rep.converged());
  EXPECT_LT(rep.iterations, 100000);
}

TEST(AsyncRgs, BlockOneColumnMatchesSingle) {
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(7, 6);
  const std::vector<double> b = random_vector(a.rows(), 71);

  std::vector<double> x_single(a.rows(), 0.0);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 6;
  opt.seed = 73;
  opt.workers = 1;
  SpdProblem(pool, a, /*check_input=*/false).solve(b, x_single, opt);

  MultiVector b_block(a.rows(), 1);
  b_block.set_column(0, b);
  MultiVector x_block(a.rows(), 1);
  SpdProblem(pool, a, /*check_input=*/false).solve(b_block, x_block, opt);

  for (index_t i = 0; i < a.rows(); ++i)
    EXPECT_DOUBLE_EQ(x_single[i], x_block.at(i, 0));
}

TEST(AsyncRgs, BlockMultiThreadedSolvesSkewedGram) {
  // The paper's actual workload shape: multi-RHS on a skewed Gram matrix.
  ThreadPool pool(8);
  SocialGramOptions gopt;
  gopt.terms = 400;
  gopt.documents = 1600;
  gopt.mean_doc_length = 5;
  gopt.ridge = 2.0;
  gopt.seed = 79;
  const CsrMatrix a = make_social_gram(gopt).gram;
  const MultiVector x_star = random_multivector(a.rows(), 4, 83);
  const MultiVector b = rhs_from_solution(a, x_star);

  MultiVector x(a.rows(), 4);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 400;
  opt.workers = 8;
  opt.sync = SyncMode::kBarrierPerSweep;
  opt.rel_tol = 1e-6;
  const SolveOutcome rep =
      SpdProblem(pool, a, /*check_input=*/false).solve(b, x, opt);
  EXPECT_TRUE(rep.converged());
}

TEST(AsyncRgs, DirectionMultisetIsThreadCountInvariant) {
  // Count how many times each coordinate is chosen during 3 sweeps; the
  // histogram is a pure function of (seed, n, sweeps), not of P — this is
  // what makes the async-vs-sync comparison fair.
  const index_t n = 257;
  const int sweeps = 3;
  const Philox4x32 dirs(12345);
  std::vector<int> histogram(static_cast<std::size_t>(n), 0);
  for (std::uint64_t j = 0; j < static_cast<std::uint64_t>(n) * sweeps; ++j)
    histogram[dirs.index_at(j, n)]++;

  for (int workers : {2, 5, 16}) {
    std::vector<int> h2(static_cast<std::size_t>(n), 0);
    for (int w = 0; w < workers; ++w)
      for (std::uint64_t j = static_cast<std::uint64_t>(w);
           j < static_cast<std::uint64_t>(n) * sweeps;
           j += static_cast<std::uint64_t>(workers))
        h2[dirs.index_at(j, n)]++;
    EXPECT_EQ(histogram, h2) << "workers=" << workers;
  }
}

TEST(AsyncRgs, RejectsBadOptions) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_1d(10);
  const std::vector<double> b = random_vector(10, 1);
  std::vector<double> x(10, 0.0);
  SpdProblem problem(pool, a, /*check_input=*/false);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.step_size = 2.5;
  EXPECT_THROW(problem.solve(b, x, opt), Error);
  opt.step_size = 1.0;
  opt.sweeps = -1;
  EXPECT_THROW(problem.solve(b, x, opt), Error);
}

}  // namespace
}  // namespace asyrgs
