// Prepared-solver handle suite: SpdProblem / LsqProblem pay matrix analysis
// once and solve many times, with results bit-identical to a fresh
// one-shot handle at equal seed.
//
//  (a) Reused-handle solves equal fresh-handle solves bit for bit: at 1
//      worker in the shared scope for all three sync modes, and at 1/2/4
//      workers for all three sync modes under owner-computes randomization
//      on a block-diagonal matrix whose blocks align with every tested
//      worker partition (no cross-partition reads -> every interleaving
//      produces the same iterate, so multi-worker runs are deterministic).
//      A solve nested inside a running team of the same pool runs on one
//      worker, equals the 1-worker solve, and says so.
//  (b) Preparation is amortized: symmetry/diagonal/rank validation runs
//      once per problem (not per solve), the LSQ transpose is built once
//      and shared through the CsrMatrix cache, and a repeat solve performs
//      no new scratch allocations.
//  (c) The unified SolveOutcome: the engine's status rule on every
//      asynchronous path and sync mode, rejection of malformed controls on
//      every method, and the thread-safety contract (concurrent solve() on
//      distinct x).
//  (d) Exact stopping on the predicted check schedule: on every
//      kBarrierPerSweep path the reported residual is the exact metric at
//      the returned iterate, and kConverged means it is <= rel_tol.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/iter/precond.hpp"
#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/linalg/vector_ops.hpp"
#include "asyrgs/problem.hpp"
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

constexpr SyncMode kSyncModes[] = {SyncMode::kFreeRunning,
                                   SyncMode::kBarrierPerSweep,
                                   SyncMode::kTimedBarrier};

// --- (a) bit-identity of fresh and reused handles ----------------------------

TEST(PreparedSpd, SecondSolveBitIdenticalToFreshHandleOneWorker) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(9, 9);
  const std::vector<double> b = random_vector(a.rows(), 3);

  for (SyncMode sync : kSyncModes) {
    SolveControls controls;
    controls.method = SpdMethod::kAsyncRgs;
    controls.sweeps = 25;
    controls.seed = 17;
    controls.workers = 1;
    controls.sync = sync;
    controls.sync_interval_seconds = 0.002;

    // A one-shot solve on a fresh, unvalidated handle...
    std::vector<double> x_fresh(a.rows(), 0.0);
    SpdProblem(pool, a, /*check_input=*/false).solve(b, x_fresh, controls);

    // ...equals every solve on a validated handle that is reused.
    SpdProblem problem(pool, a);
    std::vector<double> x1(a.rows(), 0.0);
    std::vector<double> x2(a.rows(), 0.0);
    const SolveOutcome out1 = problem.solve(b, x1, controls);
    const SolveOutcome out2 = problem.solve(b, x2, controls);
    EXPECT_EQ(x_fresh, x1) << "sync=" << static_cast<int>(sync);
    EXPECT_EQ(x_fresh, x2) << "sync=" << static_cast<int>(sync);
    EXPECT_EQ(out1.method_used, SpdMethod::kAsyncRgs);
    EXPECT_EQ(out2.workers, 1);
  }
}

TEST(PreparedSpd, OwnerComputesBitIdenticalAcrossWorkersAndSyncModes) {
  // Block-diagonal + owner-computes: partitions at 1/2/4 workers align with
  // block boundaries, so multi-worker runs are fully deterministic and the
  // fresh/reused-handle comparison is exact even on a racy shared iterate.
  ThreadPool pool(4);
  const CsrMatrix a = block_diag_tridiagonal(/*blocks=*/4, /*block_size=*/12);
  const std::vector<double> b = random_vector(a.rows(), 5);

  SpdProblem problem(pool, a);
  for (SyncMode sync : kSyncModes) {
    for (int workers : {1, 2, 4}) {
      SolveControls controls;
      controls.method = SpdMethod::kAsyncRgs;
      controls.sweeps = 30;
      controls.seed = 23;
      controls.workers = workers;
      controls.sync = sync;
      controls.scope = RandomizationScope::kOwnerComputes;
      controls.sync_interval_seconds = 0.002;

      std::vector<double> x_fresh(a.rows(), 0.0);
      SpdProblem(pool, a, /*check_input=*/false).solve(b, x_fresh, controls);

      std::vector<double> x1(a.rows(), 0.0);
      std::vector<double> x2(a.rows(), 0.0);
      problem.solve(b, x1, controls);
      problem.solve(b, x2, controls);
      EXPECT_EQ(x_fresh, x1)
          << "sync=" << static_cast<int>(sync) << " workers=" << workers;
      EXPECT_EQ(x_fresh, x2)
          << "sync=" << static_cast<int>(sync) << " workers=" << workers;
    }
  }
}

TEST(PreparedLsq, SecondSolveBitIdenticalToFreshHandle) {
  // A fresh handle over a caller-built transpose equals every solve of a
  // reused handle over the matrix's cached transpose.
  ThreadPool pool(2);
  const CsrMatrix a = tall_matrix(160, 50, 11);
  const std::vector<double> b = random_vector(a.rows(), 13);

  SolveControls controls;
  controls.method = SpdMethod::kAsyncRgs;
  controls.sweeps = 20;
  controls.seed = 31;
  controls.workers = 1;
  controls.step_size = 0.9;

  const CsrMatrix at = a.transpose();
  std::vector<double> x_fresh(static_cast<std::size_t>(a.cols()), 0.0);
  LsqProblem(pool, a, at).solve(b, x_fresh, controls);

  LsqProblem problem(pool, a);
  std::vector<double> x1(static_cast<std::size_t>(a.cols()), 0.0);
  std::vector<double> x2(static_cast<std::size_t>(a.cols()), 0.0);
  problem.solve(b, x1, controls);
  problem.solve(b, x2, controls);
  EXPECT_EQ(x_fresh, x1);
  EXPECT_EQ(x_fresh, x2);
}

TEST(PreparedSpd, NestedSolveRunsOnOneWorkerAndReportsIt) {
  // A solve issued from inside a running team of the same pool runs on a
  // team of one.  Its iterate must equal the 1-worker solve bit for bit in
  // every sync mode and scope, and its outcome must report that one worker
  // rather than the team it asked for.
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(16, 16);
  const std::vector<double> b = random_vector(a.rows(), 29);
  SpdProblem problem(pool, a);

  struct Scope {
    const char* name;
    RandomizationScope scope;
    int partitions;
  };
  const Scope scopes[] = {
      {"shared", RandomizationScope::kShared, 0},
      {"owner", RandomizationScope::kOwnerComputes, 0},
      {"6 partitions", RandomizationScope::kShared, 6}};
  for (const Scope& sc : scopes) {
    for (SyncMode sync : kSyncModes) {
      const std::string label = std::string(sc.name) + " sync=" +
                                std::to_string(static_cast<int>(sync));
      SolveControls controls;
      controls.method = SpdMethod::kAsyncRgs;
      controls.sweeps = 20;
      controls.seed = 37;
      controls.sync = sync;
      controls.scope = sc.scope;
      controls.partitions = sc.partitions;
      controls.sync_interval_seconds = 0.002;

      controls.workers = 1;
      std::vector<double> x_one(a.rows(), 0.0);
      problem.solve(b, x_one, controls);

      controls.workers = 4;
      std::vector<double> x_nested(a.rows(), 0.0);
      SolveOutcome nested;
      pool.run_team(2, [&](int id, int) {
        if (id == 0) nested = problem.solve(b, x_nested, controls);
      });
      EXPECT_EQ(x_nested, x_one) << label;
      EXPECT_EQ(nested.workers, 1) << label;
      EXPECT_NE(nested.description.find("1 threads"), std::string::npos)
          << label << ": " << nested.description;
    }
  }
}

// --- (b) analysis amortization -----------------------------------------------

TEST(PreparedSpd, ValidationRunsOncePerProblemNotPerSolve) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(7, 7);
  const std::vector<double> b = random_vector(a.rows(), 2);

  SpdProblem problem(pool, a, /*check_input=*/true);
  EXPECT_EQ(problem.stats().validation_passes, 1);

  SolveControls controls;
  controls.method = SpdMethod::kAsyncRgs;
  controls.sweeps = 5;
  controls.workers = 1;
  std::vector<double> x(a.rows(), 0.0);
  problem.solve(b, x, controls);
  problem.solve(b, x, controls);
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
  SolveControls controls;
  controls.method = SpdMethod::kAsyncRgs;
  controls.sweeps = 8;
  controls.workers = 2;
  controls.sync = SyncMode::kBarrierPerSweep;
  controls.track_history = true;
  std::vector<double> x(a.rows(), 0.0);
  problem.solve(b, x, controls);
  const long long after_first = problem.stats().scratch_allocations;
  EXPECT_GT(after_first, 0);
  problem.solve(b, x, controls);
  problem.solve(b, x, controls);
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
  SolveControls controls;
  controls.method = SpdMethod::kAsyncRgs;
  controls.sweeps = 5;
  controls.workers = 1;
  controls.step_size = 0.9;
  first.solve(b, x, controls);
  first.solve(b, x, controls);
  EXPECT_EQ(first.stats().transpose_builds, 1);
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

TEST(SolveOutcomeStatus, ZeroSweepBudgetReportsTheResidualOfX0) {
  // Both synchronizing modes return x0 untouched and report its residual.
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> x_star = random_vector(a.rows(), 9);
  const std::vector<double> b = rhs_from_solution(a, x_star);
  SpdProblem problem(pool, a);
  for (SyncMode sync : {SyncMode::kBarrierPerSweep, SyncMode::kTimedBarrier}) {
    for (int workers : {1, 2}) {
      SolveControls controls;
      controls.method = SpdMethod::kAsyncRgs;
      controls.workers = workers;
      controls.sweeps = 0;
      controls.rel_tol = 1e-3;
      controls.sync = sync;
      std::vector<double> x(a.rows(), 0.0);
      SolveOutcome out = problem.solve(b, x, controls);
      EXPECT_EQ(out.status, SolveStatus::kToleranceNotReached);
      EXPECT_EQ(out.iterations, 0);
      EXPECT_EQ(out.updates, 0);
      EXPECT_NEAR(out.relative_residual, 1.0, 1e-14)
          << "sync=" << static_cast<int>(sync) << " workers=" << workers;
      EXPECT_EQ(x, std::vector<double>(a.rows(), 0.0));

      // Started at the solution, a zero budget has already converged.
      x = x_star;
      out = problem.solve(b, x, controls);
      EXPECT_EQ(out.status, SolveStatus::kConverged);
      EXPECT_LE(out.relative_residual, 1e-12);
    }
  }
}

// Each case below is accepted by no handle solve, whatever the method: the
// handle validates its controls before it resolves the method or starts a
// team, so the iterate is left untouched.

/// Expects every listed method of an SPD handle to reject `controls`.
void expect_spd_rejects(SpdProblem& problem, SolveControls controls,
                        std::initializer_list<SpdMethod> methods,
                        const char* label) {
  const std::vector<double> b = random_vector(problem.dimension(), 3);
  for (SpdMethod method : methods) {
    controls.method = method;
    std::vector<double> x(b.size(), 0.0);
    EXPECT_THROW(problem.solve(b, x, controls), Error)
        << label << " method=" << static_cast<int>(method);
    EXPECT_EQ(x, std::vector<double>(b.size(), 0.0)) << label;
  }
}

SolveControls barrier_controls() {
  SolveControls controls;
  controls.workers = 1;
  controls.sync = SyncMode::kBarrierPerSweep;
  controls.sweeps = 200;
  return controls;
}

TEST(ControlsValidation, NanToleranceRejectedByTheAsynchronousPaths) {
  // A NaN rel_tol fails every `rel <= rel_tol` check, so a run would spend
  // its whole budget and report a residual no check ever measured.
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(16, 16);
  SpdProblem problem(pool, a);
  SolveControls controls = barrier_controls();
  controls.rel_tol = std::nan("");
  expect_spd_rejects(problem, controls, {SpdMethod::kAsyncRgs}, "single");

  controls.method = SpdMethod::kAsyncRgs;
  const MultiVector bb = random_multivector(a.rows(), 2, 5);
  MultiVector xb(a.rows(), 2);
  EXPECT_THROW(problem.solve(bb, xb, controls), Error);

  const CsrMatrix tall = tall_matrix(120, 40, 3);
  LsqProblem lsq(pool, tall);
  const std::vector<double> b = random_vector(tall.rows(), 4);
  for (SpdMethod method : {SpdMethod::kAsyncRgs, SpdMethod::kAsyncKaczmarz}) {
    controls.method = method;
    std::vector<double> x(static_cast<std::size_t>(tall.cols()), 0.0);
    EXPECT_THROW(lsq.solve(b, x, controls), Error)
        << "method=" << static_cast<int>(method);
  }
}

TEST(ControlsValidation, NanToleranceRejectedByTheKrylovMethods) {
  // kAuto would resolve a NaN to FCG, and the Krylov methods would swap it
  // for their 1e-8 default.
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(16, 16);
  SpdProblem problem(pool, a);
  SolveControls controls = barrier_controls();
  controls.rel_tol = std::nan("");
  expect_spd_rejects(problem, controls,
                     {SpdMethod::kAuto, SpdMethod::kFcgAsyRgs, SpdMethod::kCg},
                     "nan");
  controls.rel_tol = std::numeric_limits<double>::infinity();
  expect_spd_rejects(problem, controls,
                     {SpdMethod::kAsyncRgs, SpdMethod::kCg}, "inf");
}

TEST(ControlsValidation, NegativeWorkersRejected) {
  // workers = -3 would otherwise run on the pool's full capacity.
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(16, 16);
  SpdProblem problem(pool, a);
  SolveControls controls = barrier_controls();
  controls.workers = -3;
  expect_spd_rejects(problem, controls,
                     {SpdMethod::kAsyncRgs, SpdMethod::kFcgAsyRgs,
                      SpdMethod::kCg},
                     "workers");
  const CsrMatrix tall = tall_matrix(120, 40, 3);
  LsqProblem lsq(pool, tall);
  const std::vector<double> b = random_vector(tall.rows(), 4);
  std::vector<double> x(static_cast<std::size_t>(tall.cols()), 0.0);
  EXPECT_THROW(lsq.solve(b, x, controls), Error);
}

TEST(ControlsValidation, NegativeIterationCapRejected) {
  // max_iterations = -5 would otherwise fall back to the 10000 default.
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(16, 16);
  SpdProblem problem(pool, a);
  SolveControls controls = barrier_controls();
  controls.max_iterations = -5;
  controls.rel_tol = 1e-8;
  expect_spd_rejects(problem, controls,
                     {SpdMethod::kCg, SpdMethod::kFcgAsyRgs,
                      SpdMethod::kAsyncRgs},
                     "max_iterations");
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

  SolveControls controls;
  controls.method = SpdMethod::kAsyncRgs;
  controls.sweeps = 20;
  controls.workers = 1;
  controls.seed = 3;

  std::vector<double> ref1(a.rows(), 0.0);
  std::vector<double> ref2(a.rows(), 0.0);
  problem.solve(b1, ref1, controls);
  problem.solve(b2, ref2, controls);

  std::vector<double> x1(a.rows(), 0.0);
  std::vector<double> x2(a.rows(), 0.0);
  std::thread t1([&] { problem.solve(b1, x1, controls); });
  std::thread t2([&] { problem.solve(b2, x2, controls); });
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

// --- (d) exact stopping on the predicted check schedule ----------------------

enum class CheckedPath { kSingle, kPartitioned, kBlock, kLsq, kKaczmarz };

const char* path_name(CheckedPath path) {
  constexpr const char* kNames[] = {"single", "partitioned", "block",
                                    "least-squares", "kaczmarz"};
  return kNames[static_cast<int>(path)];
}

// Serial recomputations of each path's metric at an iterate.  They form
// every residual entry in the association the engine's residual functors
// use (core/kernels.hpp), so they differ from a reported value only by the
// team reduction's summation order, even where b - A x cancels to a few
// significant digits.

/// b - A x, subtracting each row's terms from b_i in column order.
std::vector<double> residual_vector(const CsrMatrix& a,
                                    const std::vector<double>& b,
                                    const std::vector<double>& x) {
  std::vector<double> r(b.size());
  for (index_t i = 0; i < a.rows(); ++i) {
    double ri = b[static_cast<std::size_t>(i)];
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t s = 0; s < cols.size(); ++s)
      ri -= vals[s] * x[static_cast<std::size_t>(cols[s])];
    r[static_cast<std::size_t>(i)] = ri;
  }
  return r;
}

/// ||A^T (b - A x)|| / ||A^T b||, the least-squares paths' metric.
double normal_equations_residual(const CsrMatrix& a,
                                 const std::vector<double>& b,
                                 const std::vector<double>& x) {
  const std::vector<double> r = residual_vector(a, b, x);
  std::vector<double> g(static_cast<std::size_t>(a.cols()));
  std::vector<double> g0(g.size());
  a.multiply_transpose(r.data(), g.data());
  a.multiply_transpose(b.data(), g0.data());
  return nrm2(g) / nrm2(g0);
}

/// ||B - A X||_F / ||B||_F, the block path's metric: each row's A X terms
/// are summed before B's entry is subtracted, as the block kernel does.
double block_residual(const CsrMatrix& a, const MultiVector& b,
                      const MultiVector& x) {
  double num = 0.0;
  double den = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (index_t c = 0; c < b.cols(); ++c) {
      double ax = 0.0;
      for (std::size_t s = 0; s < cols.size(); ++s)
        ax += vals[s] * x.at(cols[s], c);
      const double r = b.at(i, c) - ax;
      num += r * r;
      den += b.at(i, c) * b.at(i, c);
    }
  }
  return std::sqrt(num) / std::sqrt(den);
}

/// Tall full-column-rank matrix with four nonzeros per row, coupled enough
/// that neither least-squares method finishes in the two fitting sweeps.
CsrMatrix coupled_tall_matrix(index_t rows, index_t cols,
                              std::uint64_t seed) {
  CooBuilder builder(rows, cols);
  Xoshiro256 rng(seed);
  for (index_t i = 0; i < rows; ++i) {
    builder.add(i, i % cols, 1.0);
    for (int t = 0; t < 3; ++t)
      builder.add(i, uniform_index(rng, cols), normal(rng));
  }
  return builder.to_csr();
}

struct CheckedSolve {
  SolveOutcome out;
  double recomputed = 0.0;  ///< the path's metric, serially, at the iterate
  std::vector<double> x;    ///< the returned iterate (block: row-major)
};

/// One solve from x0 = 0 on `path`, on a fresh handle, in the sync mode
/// `controls` names.
CheckedSolve solve_checked(CheckedPath path, ThreadPool& pool,
                           SolveControls controls) {
  CheckedSolve s;
  if (path == CheckedPath::kLsq || path == CheckedPath::kKaczmarz) {
    // Consistent, so Kaczmarz converges in the normal-equations metric too.
    const CsrMatrix a = coupled_tall_matrix(240, 60, 5);
    const std::vector<double> b =
        rhs_from_solution(a, random_vector(a.cols(), 7));
    LsqProblem problem(pool, a);
    controls.method = path == CheckedPath::kKaczmarz ? SpdMethod::kAsyncKaczmarz
                                                     : SpdMethod::kAsyncRgs;
    s.x.assign(static_cast<std::size_t>(a.cols()), 0.0);
    s.out = problem.solve(b, s.x, controls);
    s.recomputed = normal_equations_residual(a, b, s.x);
    return s;
  }
  const CsrMatrix a = laplacian_2d(12, 12);
  SpdProblem problem(pool, a);
  controls.method = SpdMethod::kAsyncRgs;
  if (path == CheckedPath::kBlock) {
    const MultiVector b = random_multivector(a.rows(), 3, 11);
    MultiVector x(a.rows(), 3);
    s.out = problem.solve(b, x, controls);
    s.recomputed = block_residual(a, b, x);
    s.x.assign(x.data(), x.data() + x.size());
    return s;
  }
  if (path == CheckedPath::kPartitioned) {
    controls.partitions = 4;
    controls.steal_rate = 0.05;
  }
  const std::vector<double> b =
      rhs_from_solution(a, random_vector(a.rows(), 9));
  s.x.assign(static_cast<std::size_t>(a.rows()), 0.0);
  s.out = problem.solve(b, s.x, controls);
  s.recomputed = nrm2(residual_vector(a, b, s.x)) / nrm2(b);
  return s;
}

constexpr CheckedPath kCheckedPaths[] = {
    CheckedPath::kSingle, CheckedPath::kPartitioned, CheckedPath::kBlock,
    CheckedPath::kLsq, CheckedPath::kKaczmarz};

TEST(ExactChecks, ReportedResidualIsExactAtTheReturnedIterate) {
  ThreadPool pool(2);
  for (CheckedPath path : kCheckedPaths) {
    for (int workers : {1, 2}) {
      const std::string label = std::string(path_name(path)) +
                                " workers=" + std::to_string(workers);
      SolveControls controls;
      controls.workers = workers;
      controls.seed = 3;
      controls.sync = SyncMode::kBarrierPerSweep;

      // Converged: the stop is an exact check at or below rel_tol, past
      // the two fitting checks.
      controls.sweeps = 5000;
      controls.rel_tol = 1e-3;
      CheckedSolve s = solve_checked(path, pool, controls);
      EXPECT_EQ(s.out.status, SolveStatus::kConverged) << label;
      EXPECT_GT(s.out.iterations, 2) << label;
      EXPECT_NEAR(s.out.relative_residual, s.recomputed,
                  1e-12 * s.recomputed)
          << label;
      EXPECT_LE(s.out.relative_residual, controls.rel_tol) << label;

      // Not reached: 23 sweeps fall between the scheduled checks (1, 2,
      // then at most 16 apart), so the budget's last sweep must be checked
      // for the report to match the iterate.
      controls.sweeps = 23;
      controls.rel_tol = 1e-14;
      s = solve_checked(path, pool, controls);
      EXPECT_EQ(s.out.status, SolveStatus::kToleranceNotReached) << label;
      EXPECT_EQ(s.out.iterations, 23) << label;
      EXPECT_NEAR(s.out.relative_residual, s.recomputed,
                  1e-12 * s.recomputed)
          << label;
      EXPECT_GT(s.out.relative_residual, controls.rel_tol) << label;
    }
  }
}

TEST(ExactChecks, OneWorkerToleranceRunRepeatsBitForBit) {
  ThreadPool pool(2);
  SolveControls controls;
  controls.workers = 1;
  controls.seed = 17;
  controls.sweeps = 5000;
  controls.rel_tol = 1e-3;
  controls.sync = SyncMode::kBarrierPerSweep;
  for (CheckedPath path : kCheckedPaths) {
    const CheckedSolve first = solve_checked(path, pool, controls);
    const CheckedSolve again = solve_checked(path, pool, controls);
    EXPECT_EQ(first.out.status, SolveStatus::kConverged) << path_name(path);
    EXPECT_EQ(first.out.iterations, again.out.iterations) << path_name(path);
    EXPECT_EQ(first.out.relative_residual, again.out.relative_residual)
        << path_name(path);
    EXPECT_EQ(first.x, again.x) << path_name(path);
  }
}

TEST(StatusRule, EveryAsynchronousPathAndSyncMode) {
  // The engine decides the status once, for every path: kConverged when a
  // check met rel_tol, kToleranceNotReached when rel_tol > 0 under a
  // synchronizing mode, kBudgetCompleted otherwise — in particular for
  // rel_tol > 0 under free running, which never checks.
  struct Case {
    const char* name;
    int sweeps;
    double rel_tol;
    SolveStatus synchronized;  ///< expected under both synchronizing modes
  };
  constexpr Case kCases[] = {
      {"met", 5000, 1e-3, SolveStatus::kConverged},
      {"missed", 23, 1e-14, SolveStatus::kToleranceNotReached},
      {"none", 23, 0.0, SolveStatus::kBudgetCompleted}};
  ThreadPool pool(2);
  for (CheckedPath path : kCheckedPaths) {
    for (SyncMode sync : kSyncModes) {
      for (const Case& c : kCases) {
        const std::string label = std::string(path_name(path)) + " sync=" +
                                  std::to_string(static_cast<int>(sync)) +
                                  " " + c.name;
        SolveControls controls;
        controls.workers = 2;
        controls.seed = 5;
        controls.sync = sync;
        controls.sync_interval_seconds = 0.002;
        controls.sweeps = c.sweeps;
        controls.rel_tol = c.rel_tol;
        const CheckedSolve s = solve_checked(path, pool, controls);
        const SolveStatus expected = sync == SyncMode::kFreeRunning
                                         ? SolveStatus::kBudgetCompleted
                                         : c.synchronized;
        EXPECT_EQ(s.out.status, expected)
            << label << ": " << to_string(s.out.status);
        EXPECT_EQ(s.out.workers, 2) << label;
        if (expected != SolveStatus::kConverged) {
          EXPECT_EQ(s.out.iterations, c.sweeps) << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace asyrgs
