// Prepared-solver handle suite (PR 4): SpdProblem / LsqProblem pay matrix
// analysis once and solve many times, with results bit-identical to the
// one-shot free functions at equal seed.
//
//  (a) Handle solves equal the free functions bit for bit: at 1 worker in
//      the shared scope for all three sync modes, and at 1/2/4 workers for
//      all three sync modes under owner-computes randomization on a
//      block-diagonal matrix whose blocks align with every tested worker
//      partition (no cross-partition reads -> every interleaving produces
//      the same iterate, so multi-worker runs are deterministic).
//  (b) Preparation is amortized: symmetry/diagonal/rank validation runs
//      once per problem (not per solve), the LSQ transpose is built once
//      and shared through the CsrMatrix cache, and a repeat solve performs
//      no new scratch allocations.
//  (c) The unified SolveOutcome: status semantics and the thread-safety
//      contract (concurrent solve() on distinct x).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "asyrgs/core/async_lsq.hpp"
#include "asyrgs/core/async_rgs.hpp"
#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/iter/precond.hpp"
#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/problem.hpp"
#include "asyrgs/solve.hpp"
#include "asyrgs/sparse/coo.hpp"
#include "asyrgs/support/prng.hpp"

namespace asyrgs {
namespace {

/// Block-diagonal SPD matrix: `blocks` tridiagonal (2, -1) blocks of
/// `block_size` rows each.  With n = blocks * block_size and worker counts
/// that divide `blocks`, owner-computes partitions never straddle a block,
/// so no worker ever reads another worker's coordinates and the solve is
/// bit-deterministic at any team size.
CsrMatrix block_diag_tridiagonal(int blocks, index_t block_size) {
  const index_t n = blocks * block_size;
  CooBuilder builder(n, n);
  for (int blk = 0; blk < blocks; ++blk) {
    const index_t lo = blk * block_size;
    for (index_t i = 0; i < block_size; ++i) {
      builder.add(lo + i, lo + i, 2.0);
      if (i + 1 < block_size) {
        builder.add(lo + i, lo + i + 1, -1.0);
        builder.add(lo + i + 1, lo + i, -1.0);
      }
    }
  }
  return builder.to_csr();
}

/// Tall full-column-rank matrix for the least-squares handle tests.
CsrMatrix tall_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  CooBuilder builder(rows, cols);
  Xoshiro256 rng(seed);
  for (index_t j = 0; j < cols; ++j)
    builder.add(j, j, 2.0 + 0.01 * static_cast<double>(j));
  for (index_t i = cols; i < rows; ++i) {
    const index_t j = uniform_index(rng, cols);
    builder.add(i, j, normal(rng));
  }
  return builder.to_csr();
}

SolveControls async_controls(const AsyncRgsOptions& opt) {
  return to_controls(opt);
}

// --- (a) bit-identity with the free functions --------------------------------

TEST(PreparedSpd, SecondSolveBitIdenticalToFreeFunctionOneWorker) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(9, 9);
  const std::vector<double> b = random_vector(a.rows(), 3);

  for (SyncMode sync : {SyncMode::kFreeRunning, SyncMode::kBarrierPerSweep,
                        SyncMode::kTimedBarrier}) {
    AsyncRgsOptions opt;
    opt.sweeps = 25;
    opt.seed = 17;
    opt.workers = 1;
    opt.sync = sync;
    opt.sync_interval_seconds = 0.002;

    std::vector<double> x_free(a.rows(), 0.0);
    async_rgs_solve(pool, a, b, x_free, opt);

    SpdProblem problem(pool, a);
    std::vector<double> x1(a.rows(), 0.0);
    std::vector<double> x2(a.rows(), 0.0);
    const SolveOutcome out1 = problem.solve(b, x1, async_controls(opt));
    const SolveOutcome out2 = problem.solve(b, x2, async_controls(opt));
    EXPECT_EQ(x_free, x1) << "sync=" << static_cast<int>(sync);
    EXPECT_EQ(x_free, x2) << "sync=" << static_cast<int>(sync);
    EXPECT_EQ(out1.method_used, SpdMethod::kAsyncRgs);
    EXPECT_EQ(out2.workers, 1);
  }
}

TEST(PreparedSpd, OwnerComputesBitIdenticalAcrossWorkersAndSyncModes) {
  // Block-diagonal + owner-computes: partitions at 1/2/4 workers align with
  // block boundaries, so multi-worker runs are fully deterministic and the
  // handle/free-function comparison is exact even on a racy shared iterate.
  ThreadPool pool(4);
  const CsrMatrix a = block_diag_tridiagonal(/*blocks=*/4, /*block_size=*/12);
  const std::vector<double> b = random_vector(a.rows(), 5);

  SpdProblem problem(pool, a);
  for (SyncMode sync : {SyncMode::kFreeRunning, SyncMode::kBarrierPerSweep,
                        SyncMode::kTimedBarrier}) {
    for (int workers : {1, 2, 4}) {
      AsyncRgsOptions opt;
      opt.sweeps = 30;
      opt.seed = 23;
      opt.workers = workers;
      opt.sync = sync;
      opt.scope = RandomizationScope::kOwnerComputes;
      opt.sync_interval_seconds = 0.002;

      std::vector<double> x_free(a.rows(), 0.0);
      async_rgs_solve(pool, a, b, x_free, opt);

      std::vector<double> x1(a.rows(), 0.0);
      std::vector<double> x2(a.rows(), 0.0);
      problem.solve(b, x1, async_controls(opt));
      problem.solve(b, x2, async_controls(opt));
      EXPECT_EQ(x_free, x1)
          << "sync=" << static_cast<int>(sync) << " workers=" << workers;
      EXPECT_EQ(x_free, x2)
          << "sync=" << static_cast<int>(sync) << " workers=" << workers;
    }
  }
}

TEST(PreparedSpd, SolveSpdWrapperMatchesHandle) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> x_star = random_vector(a.rows(), 7);
  const std::vector<double> b = rhs_from_solution(a, x_star);

  SpdSolveOptions sopt;
  sopt.method = SpdMethod::kAsyncRgs;
  sopt.rel_tol = 1e-8;
  sopt.threads = 1;
  sopt.max_iterations = 4000;
  std::vector<double> x_wrapper(a.rows(), 0.0);
  const SpdSolveSummary summary = solve_spd(pool, a, b, x_wrapper, sopt);

  SpdProblem problem(pool, a);
  SolveControls controls;
  controls.method = SpdMethod::kAsyncRgs;
  controls.sweeps = 4000;
  controls.rel_tol = 1e-8;
  controls.workers = 1;
  controls.sync = SyncMode::kBarrierPerSweep;
  std::vector<double> x_handle(a.rows(), 0.0);
  const SolveOutcome out = problem.solve(b, x_handle, controls);

  EXPECT_EQ(x_wrapper, x_handle);
  EXPECT_EQ(summary.converged, out.converged());
  EXPECT_EQ(summary.status, out.status);
  EXPECT_EQ(summary.iterations, out.iterations);
}

TEST(PreparedLsq, SecondSolveBitIdenticalToFreeFunction) {
  ThreadPool pool(2);
  const CsrMatrix a = tall_matrix(160, 50, 11);
  const std::vector<double> b = random_vector(a.rows(), 13);

  AsyncRgsOptions opt;
  opt.sweeps = 20;
  opt.seed = 31;
  opt.workers = 1;
  opt.step_size = 0.9;

  std::vector<double> x_free(static_cast<std::size_t>(a.cols()), 0.0);
  async_lsq_solve(pool, a, b, x_free, opt);

  LsqProblem problem(pool, a);
  std::vector<double> x1(static_cast<std::size_t>(a.cols()), 0.0);
  std::vector<double> x2(static_cast<std::size_t>(a.cols()), 0.0);
  problem.solve(b, x1, async_controls(opt));
  problem.solve(b, x2, async_controls(opt));
  EXPECT_EQ(x_free, x1);
  EXPECT_EQ(x_free, x2);
}

// --- (b) analysis amortization -----------------------------------------------

TEST(PreparedSpd, ValidationRunsOncePerProblemNotPerSolve) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(7, 7);
  const std::vector<double> b = random_vector(a.rows(), 2);

  SpdProblem problem(pool, a, /*check_input=*/true);
  EXPECT_EQ(problem.stats().validation_passes, 1);

  AsyncRgsOptions opt;
  opt.sweeps = 5;
  opt.workers = 1;
  std::vector<double> x(a.rows(), 0.0);
  problem.solve(b, x, async_controls(opt));
  problem.solve(b, x, async_controls(opt));
  const ProblemStats stats = problem.stats();
  EXPECT_EQ(stats.validation_passes, 1);  // not re-run per solve
  EXPECT_EQ(stats.solves, 2);
}

TEST(PreparedSpd, SymmetryCheckBuildsNoTranspose) {
  // The SPD check merges each entry with its mirror in place; no SPD kernel
  // reads A^T, so the handle must not leave one behind in the matrix cache.
  ThreadPool pool(1);
  const CsrMatrix a = laplacian_2d(7, 7);
  SpdProblem problem(pool, a, /*check_input=*/true);
  EXPECT_FALSE(a.transpose_cached());
  EXPECT_EQ(problem.stats().transpose_builds, 0);
  EXPECT_EQ(problem.stats().validation_passes, 1);

  // The check still rejects a one-sided entry, and still builds nothing.
  CooBuilder builder(3, 3);
  for (index_t i = 0; i < 3; ++i) builder.add(i, i, 2.0);
  builder.add(0, 2, -1.0);
  const CsrMatrix lopsided = builder.to_csr();
  EXPECT_THROW(SpdProblem(pool, lopsided, /*check_input=*/true), Error);
  EXPECT_FALSE(lopsided.transpose_cached());
}

TEST(PreparedSpd, RepeatSolvePerformsNoNewScratchAllocations) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> b = random_vector(a.rows(), 4);

  SpdProblem problem(pool, a);
  AsyncRgsOptions opt;
  opt.sweeps = 8;
  opt.workers = 2;
  opt.sync = SyncMode::kBarrierPerSweep;
  opt.track_history = true;
  std::vector<double> x(a.rows(), 0.0);
  problem.solve(b, x, async_controls(opt));
  const long long after_first = problem.stats().scratch_allocations;
  EXPECT_GT(after_first, 0);
  problem.solve(b, x, async_controls(opt));
  problem.solve(b, x, async_controls(opt));
  EXPECT_EQ(problem.stats().scratch_allocations, after_first);
}

TEST(PreparedLsq, TransposeBuiltOncePerMatrix) {
  ThreadPool pool(2);
  const CsrMatrix a = tall_matrix(120, 40, 19);
  EXPECT_FALSE(a.transpose_cached());

  LsqProblem first(pool, a);
  EXPECT_TRUE(a.transpose_cached());
  EXPECT_EQ(first.stats().transpose_builds, 1);

  // A second handle against the same matrix shares the cached transpose.
  LsqProblem second(pool, a);
  EXPECT_EQ(second.stats().transpose_builds, 0);
  EXPECT_EQ(&first.transpose(), &second.transpose());

  // Repeat solves build nothing further.
  const std::vector<double> b = random_vector(a.rows(), 21);
  std::vector<double> x(static_cast<std::size_t>(a.cols()), 0.0);
  AsyncRgsOptions opt;
  opt.sweeps = 5;
  opt.workers = 1;
  opt.step_size = 0.9;
  first.solve(b, x, async_controls(opt));
  first.solve(b, x, async_controls(opt));
  EXPECT_EQ(first.stats().transpose_builds, 1);
}

TEST(PreparedLsq, ConvenienceOverloadUsesSharedTransposeCache) {
  // The async_lsq_solve overload that materializes A^T internally now goes
  // through the matrix's cache: repeated calls build the transpose once.
  ThreadPool pool(2);
  const CsrMatrix a = tall_matrix(120, 40, 23);
  const std::vector<double> b = random_vector(a.rows(), 8);
  AsyncRgsOptions opt;
  opt.sweeps = 5;
  opt.workers = 1;
  opt.step_size = 0.9;

  EXPECT_FALSE(a.transpose_cached());
  std::vector<double> x1(static_cast<std::size_t>(a.cols()), 0.0);
  async_lsq_solve(pool, a, b, x1, opt);
  EXPECT_TRUE(a.transpose_cached());
  const CsrMatrix* cached = a.transpose_shared().get();

  std::vector<double> x2(static_cast<std::size_t>(a.cols()), 0.0);
  async_lsq_solve(pool, a, b, x2, opt);
  EXPECT_EQ(a.transpose_shared().get(), cached);  // same instance, not rebuilt
  EXPECT_EQ(x1, x2);
}

// --- (c) unified outcome and contracts ---------------------------------------

TEST(SolveOutcomeStatus, ConvergedToleranceMissedAndBudgetCompleted) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(6, 6);
  const std::vector<double> x_star = random_vector(a.rows(), 9);
  const std::vector<double> b = rhs_from_solution(a, x_star);
  SpdProblem problem(pool, a);

  SolveControls controls;
  controls.method = SpdMethod::kAsyncRgs;
  controls.workers = 1;

  // Loose tolerance under a synchronizing mode: converged.
  controls.sweeps = 5000;
  controls.rel_tol = 1e-3;
  controls.sync = SyncMode::kBarrierPerSweep;
  std::vector<double> x(a.rows(), 0.0);
  SolveOutcome out = problem.solve(b, x, controls);
  EXPECT_EQ(out.status, SolveStatus::kConverged);
  EXPECT_TRUE(out.converged());
  EXPECT_EQ(std::string(to_string(out.status)), "converged");

  // Unreachable tolerance with a tiny budget: tolerance not reached.
  controls.sweeps = 2;
  controls.rel_tol = 1e-14;
  std::fill(x.begin(), x.end(), 0.0);
  out = problem.solve(b, x, controls);
  EXPECT_EQ(out.status, SolveStatus::kToleranceNotReached);
  EXPECT_FALSE(out.converged());

  // Free-running runs never evaluate residuals: a fixed budget completes.
  controls.sweeps = 3;
  controls.rel_tol = 0.0;
  controls.sync = SyncMode::kFreeRunning;
  std::fill(x.begin(), x.end(), 0.0);
  out = problem.solve(b, x, controls);
  EXPECT_EQ(out.status, SolveStatus::kBudgetCompleted);
  EXPECT_EQ(std::string(to_string(out.status)), "budget-completed");
}

TEST(PreparedSpd, ConcurrentSolvesOnDistinctIteratesAreSerializedSafely) {
  // The documented contract: concurrent solve() calls on one handle are
  // safe (internally serialized) and produce the same results as running
  // them one after another.
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> b1 = random_vector(a.rows(), 41);
  const std::vector<double> b2 = random_vector(a.rows(), 43);
  SpdProblem problem(pool, a);

  AsyncRgsOptions opt;
  opt.sweeps = 20;
  opt.workers = 1;
  opt.seed = 3;

  std::vector<double> ref1(a.rows(), 0.0);
  std::vector<double> ref2(a.rows(), 0.0);
  problem.solve(b1, ref1, async_controls(opt));
  problem.solve(b2, ref2, async_controls(opt));

  std::vector<double> x1(a.rows(), 0.0);
  std::vector<double> x2(a.rows(), 0.0);
  std::thread t1([&] { problem.solve(b1, x1, async_controls(opt)); });
  std::thread t2([&] { problem.solve(b2, x2, async_controls(opt)); });
  t1.join();
  t2.join();
  EXPECT_EQ(ref1, x1);
  EXPECT_EQ(ref2, x2);
}

TEST(PreparedSpd, FcgMethodReusesThePreparedHandle) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> x_star = random_vector(a.rows(), 15);
  const std::vector<double> b = rhs_from_solution(a, x_star);

  SpdProblem problem(pool, a);
  SolveControls controls;
  controls.method = SpdMethod::kFcgAsyRgs;
  controls.rel_tol = 1e-8;
  controls.workers = 1;
  controls.inner_sweeps = 2;
  controls.seed = 1;
  std::vector<double> x(a.rows(), 0.0);
  const SolveOutcome out = problem.solve(b, x, controls);
  EXPECT_EQ(out.status, SolveStatus::kConverged);
  EXPECT_LE(relative_residual(a, b, x), 1e-7);
  // Inner preconditioner applications run through this same handle, so the
  // per-matrix validation stayed at construction-time count.
  EXPECT_EQ(problem.stats().validation_passes, 1);

  // Bit-identical to the one-shot wrapper at equal seed and one worker.
  SpdSolveOptions sopt;
  sopt.method = SpdMethod::kFcgAsyRgs;
  sopt.rel_tol = 1e-8;
  sopt.threads = 1;
  sopt.inner_sweeps = 2;
  sopt.seed = 1;
  std::vector<double> x_wrapper(a.rows(), 0.0);
  const SpdSolveSummary summary = solve_spd(pool, a, b, x_wrapper, sopt);
  EXPECT_TRUE(summary.converged);
  EXPECT_EQ(x, x_wrapper);
}

TEST(PreparedSpd, BorrowedPreconditionerStaysVariable) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  SpdProblem problem(pool, a);
  AsyRgsPreconditioner pc(problem, /*sweeps=*/2, /*workers=*/1);
  EXPECT_TRUE(pc.is_variable());

  const std::vector<double> r = random_vector(a.rows(), 3);
  std::vector<double> z1, z2;
  const long long solves_before = problem.stats().solves;
  pc.apply(r, z1);
  pc.apply(r, z2);
  EXPECT_NE(z1, z2);  // fresh random directions per application
  EXPECT_EQ(problem.stats().solves, solves_before + 2);
}

}  // namespace
}  // namespace asyrgs
