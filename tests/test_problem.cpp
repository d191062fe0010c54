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
//      worker, equals the 1-worker solve, and says so.  One-worker chaotic
//      relaxation is forward SOR, sweep for sweep.
//  (b) Preparation is amortized: symmetry/diagonal/rank validation runs
//      once per problem (not per solve), the LSQ transpose is built once
//      and shared through the CsrMatrix cache, and a repeat solve performs
//      no new scratch allocations.  The SPD operators built on demand (the
//      compact copy and the partition analysis) wait for their hook or
//      first reader, and are built once across a prototype and its clones
//      — clones taken before the build, and clones racing to first use —
//      and so are the kWeighted alias tables of both handles.
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
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/iter/gauss_seidel.hpp"
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
                                   SyncMode::kBarrierPerSweep};

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
  // A fresh handle equals every solve of a reused one; each handle builds
  // its own A^T.
  ThreadPool pool(2);
  const CsrMatrix a = tall_matrix(160, 50, 11);
  const std::vector<double> b = random_vector(a.rows(), 13);

  SolveControls controls;
  controls.method = SpdMethod::kAsyncRgs;
  controls.sweeps = 20;
  controls.seed = 31;
  controls.workers = 1;
  controls.step_size = 0.9;

  std::vector<double> x_fresh(static_cast<std::size_t>(a.cols()), 0.0);
  LsqProblem(pool, a).solve(b, x_fresh, controls);

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
  // reads A^T, so the handle builds none.
  ThreadPool pool(1);
  const CsrMatrix a = laplacian_2d(7, 7);
  SpdProblem problem(pool, a, /*check_input=*/true);
  EXPECT_EQ(problem.stats().transpose_builds, 0);
  EXPECT_EQ(problem.stats().validation_passes, 1);

  // The check still rejects a one-sided entry, and still builds nothing.
  CooBuilder builder(3, 3);
  for (index_t i = 0; i < 3; ++i) builder.add(i, i, 2.0);
  builder.add(0, 2, -1.0);
  const CsrMatrix lopsided = builder.to_csr();
  EXPECT_THROW(SpdProblem(pool, lopsided, /*check_input=*/true), Error);
}

/// The message SpdProblem's constructor throws, or "" when it accepts `a`.
std::string construction_error(const CsrMatrix& a, bool check_input) {
  ThreadPool pool(1);
  try {
    SpdProblem problem(pool, a, check_input);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

constexpr const char* kNotSymmetric = "SpdProblem: matrix is not symmetric";
constexpr const char* kNotPositiveDiagonal =
    "SpdProblem: diagonal must be strictly positive (matrix cannot be SPD)";

TEST(SpdValidation, MirrorGapAtTheToleranceIsAcceptedAndOneUlpAboveRejected) {
  // Symmetry is judged at 1e-12 * ||A||_inf.  Row 2 fixes ||A||_inf = 8,
  // and a zero entry facing its mirror makes the gap exactly the mirror.
  const double tol = 1e-12 * 8.0;
  const auto with_mirror = [](double mirror) {
    CooBuilder b(3, 3);
    b.add(0, 0, 4.0);
    b.add(0, 1, 0.0);
    b.add(1, 0, mirror);
    b.add(1, 1, 4.0);
    b.add(2, 2, 8.0);
    return b.to_csr();
  };
  EXPECT_EQ(construction_error(with_mirror(tol), true), "");
  EXPECT_EQ(construction_error(with_mirror(-tol), true), "");
  const double above = std::nextafter(tol, 1.0);
  EXPECT_EQ(construction_error(with_mirror(above), true), kNotSymmetric);
  EXPECT_EQ(construction_error(with_mirror(-above), true), kNotSymmetric);
  EXPECT_EQ(construction_error(with_mirror(above), false), "");
}

TEST(SpdValidation, OneSidedEntryRejectedOnlyWhenInputIsChecked) {
  CooBuilder b(3, 3);
  for (index_t i = 0; i < 3; ++i) b.add(i, i, 2.0);
  b.add(2, 0, -1.0);  // below the diagonal: its mirror's row comes first
  const CsrMatrix lopsided = b.to_csr();
  EXPECT_EQ(construction_error(lopsided, true), kNotSymmetric);
  EXPECT_EQ(construction_error(lopsided, false), "");
}

TEST(SpdValidation, BadDiagonalIsReportedBeforeAsymmetry) {
  // Row 1's diagonal entry is missing, zero or negative; the asymmetric
  // variant adds a one-sided entry in row 0, met before row 1 is.
  for (const bool symmetric : {true, false}) {
    for (const int bad : {0, 1, 2}) {
      CooBuilder b(3, 3);
      b.add(0, 0, 4.0);
      b.add(2, 2, 4.0);
      if (bad == 1) b.add(1, 1, 0.0);
      if (bad == 2) b.add(1, 1, -4.0);
      b.add_symmetric(2, 1, -1.0);
      if (!symmetric) b.add(0, 2, -1.0);
      const CsrMatrix a = b.to_csr();
      for (const bool check_input : {true, false})
        EXPECT_EQ(construction_error(a, check_input), kNotPositiveDiagonal)
            << "symmetric " << symmetric << ", case " << bad
            << ", check_input " << check_input;
    }
  }
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

/// A 1-worker partitioned AsyRGS solve (or unpartitioned with partitions 0).
SolveControls one_worker_controls(int partitions) {
  SolveControls controls;
  controls.method = SpdMethod::kAsyncRgs;
  controls.sweeps = 6;
  controls.workers = 1;
  controls.seed = 5;
  controls.partitions = partitions;
  return controls;
}

TEST(PreparedSpd, OperatorsWaitForTheirHookOrFirstSolve) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> b = random_vector(a.rows(), 6);
  std::vector<double> x(a.rows(), 0.0);

  // Construction validates and computes reciprocals only.
  SpdProblem hooked(pool, a);
  ASSERT_EQ(hooked.storage(), StoragePolicy::kInt32Double);
  EXPECT_EQ(hooked.stats().compact_builds, 0);
  EXPECT_EQ(hooked.stats().partition_builds, 0);
  hooked.prepare_compact();
  hooked.prepare_compact();  // idempotent
  hooked.solve(b, x, one_worker_controls(0));
  EXPECT_EQ(hooked.stats().compact_builds, 1);
  EXPECT_EQ(hooked.stats().partition_builds, 0);

  // Without a hook the first reader builds; a partitioned solve reads only
  // the partition analysis.
  SpdProblem lazy(pool, a);
  lazy.solve(b, x, one_worker_controls(2));
  EXPECT_EQ(lazy.stats().compact_builds, 0);
  EXPECT_EQ(lazy.stats().partition_builds, 1);
  lazy.solve(b, x, one_worker_controls(0));
  lazy.solve(b, x, one_worker_controls(0));
  EXPECT_EQ(lazy.stats().compact_builds, 1);

  // A full-width policy has no compact copy to build.
  SpdProblem wide(pool, a, /*check_input=*/true, StorageMode::kInt64Double);
  wide.prepare_compact();
  wide.solve(b, x, one_worker_controls(0));
  EXPECT_EQ(wide.stats().compact_builds, 0);
}

TEST(PreparedSpd, ClonesTakenBeforeABuildShareIt) {
  ThreadPool pool_a(2), pool_b(2);
  const CsrMatrix a = laplacian_2d(9, 9);
  const std::vector<double> b = random_vector(a.rows(), 8);

  // References from a handle that shares nothing with the pair below.
  SpdProblem fresh(pool_a, a);
  std::vector<double> x_flat(a.rows(), 0.0), x_part(a.rows(), 0.0);
  fresh.solve(b, x_flat, one_worker_controls(0));
  fresh.solve(b, x_part, one_worker_controls(3));

  SpdProblem prototype(pool_a, a);
  SpdProblem clone(pool_b, prototype);  // before either operator exists
  std::vector<double> x(a.rows(), 0.0);
  clone.solve(b, x, one_worker_controls(0));  // the clone builds...
  EXPECT_EQ(x, x_flat);
  x.assign(a.rows(), 0.0);
  prototype.solve(b, x, one_worker_controls(0));  // ...the prototype reads
  EXPECT_EQ(x, x_flat);
  EXPECT_EQ(clone.stats().compact_builds, 1);
  EXPECT_EQ(prototype.stats().compact_builds, 0);

  prototype.prepare_partitions();  // and the other way round
  x.assign(a.rows(), 0.0);
  clone.solve(b, x, one_worker_controls(3));
  EXPECT_EQ(x, x_part);
  EXPECT_EQ(prototype.stats().partition_builds, 1);
  EXPECT_EQ(clone.stats().partition_builds, 0);
}

/// A prototype handle on `a` and three shard clones, each on its own
/// one-worker pool, every handle h running `solves(handle, h)` on its own
/// thread — so the handles race to the first use of whatever their solves
/// share.  Returns each handle's stats.
template <class Problem, class Solves>
std::vector<ProblemStats> race_prototype_and_clones(const CsrMatrix& a,
                                                    Solves&& solves) {
  constexpr int kHandles = 4;
  std::vector<std::unique_ptr<ThreadPool>> pools;
  std::vector<std::unique_ptr<Problem>> handles;
  for (int h = 0; h < kHandles; ++h) {
    pools.push_back(std::make_unique<ThreadPool>(1));
    handles.push_back(h == 0 ? std::make_unique<Problem>(*pools[0], a)
                             : std::make_unique<Problem>(*pools[h],
                                                         *handles[0]));
  }
  std::vector<std::thread> threads;
  for (int h = 0; h < kHandles; ++h)
    threads.emplace_back([&, h] { solves(*handles[h], h); });
  for (std::thread& t : threads) t.join();
  std::vector<ProblemStats> stats;
  for (const auto& handle : handles) stats.push_back(handle->stats());
  return stats;
}

TEST(PreparedSpd, ClonesRacingToFirstUseBuildEachOperatorOnce) {
  // Each handle's two solves read one operator each, half of them in either
  // order, so the handles race on both slots at once: whichever reaches a
  // slot first builds it, the rest wait for and read that build (a
  // TSan-gated hand-off).
  const CsrMatrix a = laplacian_2d(10, 10);
  const std::vector<double> b = random_vector(a.rows(), 9);
  ThreadPool reference_pool(1);
  SpdProblem reference(reference_pool, a);
  std::vector<double> x_flat(a.rows(), 0.0), x_part(a.rows(), 0.0);
  reference.solve(b, x_flat, one_worker_controls(0));
  reference.solve(b, x_part, one_worker_controls(2));

  std::vector<std::vector<double>> flat(4), part(4);
  const std::vector<ProblemStats> stats = race_prototype_and_clones<
      SpdProblem>(a, [&](SpdProblem& handle, int h) {
    flat[h].assign(a.rows(), 0.0);
    part[h].assign(a.rows(), 0.0);
    // Half the handles take the operators in the other order.
    const int first = h % 2 == 0 ? 0 : 2;
    handle.solve(b, first == 0 ? flat[h] : part[h],
                 one_worker_controls(first));
    handle.solve(b, first == 0 ? part[h] : flat[h],
                 one_worker_controls(2 - first));
  });
  int compact_builds = 0, partition_builds = 0;
  for (std::size_t h = 0; h < stats.size(); ++h) {
    EXPECT_EQ(flat[h], x_flat) << "handle " << h;
    EXPECT_EQ(part[h], x_part) << "handle " << h;
    compact_builds += stats[h].compact_builds;
    partition_builds += stats[h].partition_builds;
  }
  EXPECT_EQ(compact_builds, 1);
  EXPECT_EQ(partition_builds, 1);
}

TEST(PreparedSpd, ClonesRacingToAWeightedSolveBuildOneSampler) {
  // The kWeighted alias table is per-matrix state, shared like the compact
  // copy: whichever handle solves first builds it, and the rest draw from
  // that build.
  const CsrMatrix a = laplacian_2d(10, 10);
  const std::vector<double> b = random_vector(a.rows(), 12);
  SolveControls controls = one_worker_controls(0);
  controls.sampling = SamplingPolicy::kWeighted;
  ThreadPool reference_pool(1);
  std::vector<double> reference(a.rows(), 0.0);
  SpdProblem(reference_pool, a).solve(b, reference, controls);

  std::vector<std::vector<double>> xs(4, std::vector<double>(a.rows(), 0.0));
  long long builds = 0;
  for (const ProblemStats& s : race_prototype_and_clones<SpdProblem>(
           a, [&](SpdProblem& handle, int h) {
             handle.solve(b, xs[static_cast<std::size_t>(h)], controls);
           }))
    builds += s.sampler_builds;
  EXPECT_EQ(builds, 1);
  for (const std::vector<double>& x : xs) EXPECT_EQ(x, reference);
}

TEST(PreparedLsq, ClonesRacingToWeightedSolvesBuildEachSamplerOnce) {
  // Coordinate descent draws columns and Kaczmarz rows, each from its own
  // shared table; half the handles take the methods in the other order, so
  // the handles race on both tables at once.
  const CsrMatrix a = tall_matrix(120, 40, 23);
  const std::vector<double> b = random_vector(a.rows(), 24);
  SolveControls rcd = one_worker_controls(0);
  rcd.sampling = SamplingPolicy::kWeighted;
  SolveControls kaczmarz = rcd;
  kaczmarz.method = SpdMethod::kAsyncKaczmarz;
  ThreadPool reference_pool(1);
  LsqProblem reference(reference_pool, a);
  std::vector<double> x_rcd(static_cast<std::size_t>(a.cols()), 0.0);
  std::vector<double> x_kaczmarz = x_rcd;
  reference.solve(b, x_rcd, rcd);
  reference.solve(b, x_kaczmarz, kaczmarz);

  std::vector<std::vector<double>> rcd_xs(4), kaczmarz_xs(4);
  long long builds = 0;
  for (const ProblemStats& s : race_prototype_and_clones<LsqProblem>(
           a, [&](LsqProblem& handle, int h) {
             rcd_xs[h].assign(static_cast<std::size_t>(a.cols()), 0.0);
             kaczmarz_xs[h] = rcd_xs[h];
             if (h % 2 == 0) handle.solve(b, rcd_xs[h], rcd);
             handle.solve(b, kaczmarz_xs[h], kaczmarz);
             if (h % 2 == 1) handle.solve(b, rcd_xs[h], rcd);
           }))
    builds += s.sampler_builds;
  EXPECT_EQ(builds, 2);
  for (int h = 0; h < 4; ++h) {
    EXPECT_EQ(rcd_xs[static_cast<std::size_t>(h)], x_rcd) << "handle " << h;
    EXPECT_EQ(kaczmarz_xs[static_cast<std::size_t>(h)], x_kaczmarz)
        << "handle " << h;
  }
}

TEST(PreparedLsq, TransposeBuiltOncePerMatrix) {
  // A bound handle builds A^T once; its shard clones share that build.
  // Independent handles share nothing, each building its own: a service
  // shares A^T by cloning one handle.
  ThreadPool pool(2);
  const CsrMatrix a = tall_matrix(120, 40, 19);
  LsqProblem first(pool, a);
  EXPECT_EQ(first.stats().transpose_builds, 1);
  LsqProblem clone(pool, first);
  EXPECT_EQ(clone.stats().transpose_builds, 0);
  LsqProblem second(pool, a);
  EXPECT_EQ(second.stats().transpose_builds, 1);

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
  // The synchronizing mode returns x0 untouched and reports its residual.
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> x_star = random_vector(a.rows(), 9);
  const std::vector<double> b = rhs_from_solution(a, x_star);
  SpdProblem problem(pool, a);
  for (int workers : {1, 2}) {
    SolveControls controls;
    controls.method = SpdMethod::kAsyncRgs;
    controls.workers = workers;
    controls.sweeps = 0;
    controls.rel_tol = 1e-3;
    controls.sync = SyncMode::kBarrierPerSweep;
    std::vector<double> x(a.rows(), 0.0);
    SolveOutcome out = problem.solve(b, x, controls);
    EXPECT_EQ(out.status, SolveStatus::kToleranceNotReached);
    EXPECT_EQ(out.iterations, 0);
    EXPECT_EQ(out.updates, 0);
    EXPECT_NEAR(out.relative_residual, 1.0, 1e-14) << "workers=" << workers;
    EXPECT_EQ(x, std::vector<double>(a.rows(), 0.0));

    // Started at the solution, a zero budget has already converged.
    x = x_star;
    out = problem.solve(b, x, controls);
    EXPECT_EQ(out.status, SolveStatus::kConverged);
    EXPECT_LE(out.relative_residual, 1e-12);
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

TEST(ControlsValidation, InnerSweepsBelowOneRejectedBeforeAnyBuild) {
  // FCG's preconditioner refuses a sweep count below 1, but only after the
  // solve has built the compact copy its inner sweeps read; every solve now
  // refuses it first, whichever method the request resolves to.
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(16, 16);
  const std::vector<double> b = random_vector(a.rows(), 3);
  for (SpdMethod method : {SpdMethod::kFcgAsyRgs, SpdMethod::kAuto}) {
    SpdProblem problem(pool, a, /*check_input=*/false);
    ASSERT_EQ(problem.storage(), StoragePolicy::kInt32Double);
    SolveControls controls;
    controls.method = method;  // kAuto resolves to FCG at this tolerance
    controls.rel_tol = 1e-6;
    controls.inner_sweeps = 0;
    std::vector<double> x(b.size(), 0.0);
    EXPECT_THROW(problem.solve(b, x, controls), Error)
        << "method=" << static_cast<int>(method);
    EXPECT_EQ(problem.stats().compact_builds, 0)
        << "method=" << static_cast<int>(method);
  }
  const CsrMatrix tall = tall_matrix(120, 40, 3);
  LsqProblem lsq(pool, tall);
  const std::vector<double> lsq_b = random_vector(tall.rows(), 4);
  std::vector<double> x(static_cast<std::size_t>(tall.cols()), 0.0);
  SolveControls controls;
  controls.inner_sweeps = -1;
  EXPECT_THROW(lsq.solve(lsq_b, x, controls), Error);
}

TEST(ControlsValidation, ChaoticRelaxationRejectsWhatItCannotHonour) {
  // kAsyncJacobi draws nothing to sample or partition, serves one
  // right-hand side on the SPD handle, and keeps Jacobi's damping range.
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(16, 16);
  SpdProblem problem(pool, a);
  SolveControls controls = barrier_controls();
  controls.method = SpdMethod::kAsyncJacobi;

  {
    SolveControls c = controls;
    c.sampling = SamplingPolicy::kWeighted;
    expect_spd_rejects(problem, c, {SpdMethod::kAsyncJacobi}, "sampling");
    // The message names the method it rejects.
    const std::vector<double> b = random_vector(a.rows(), 3);
    std::vector<double> x(b.size(), 0.0);
    try {
      problem.solve(b, x, c);
      ADD_FAILURE() << "non-uniform sampling accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("chaotic relaxation"),
                std::string::npos)
          << e.what();
    }
  }
  SolveControls c = controls;
  c.partitions = 2;
  expect_spd_rejects(problem, c, {SpdMethod::kAsyncJacobi}, "partitions");
  c = controls;
  c.step_size = 1.5;
  expect_spd_rejects(problem, c, {SpdMethod::kAsyncJacobi}, "step_size");

  const MultiVector bb = random_multivector(a.rows(), 2, 5);
  MultiVector xb(a.rows(), 2);
  EXPECT_THROW(problem.solve(bb, xb, controls), Error);

  const CsrMatrix tall = tall_matrix(120, 40, 3);
  LsqProblem lsq(pool, tall);
  const std::vector<double> b = random_vector(tall.rows(), 4);
  std::vector<double> x(static_cast<std::size_t>(tall.cols()), 0.0);
  EXPECT_THROW(lsq.solve(b, x, controls), Error);
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

TEST(PreparedSpd, OneWorkerChaoticRelaxationIsSorSweepForSweep) {
  // One worker relaxes rows 0..n-1 in order under either scope: forward SOR
  // with omega = step_size, in the residual form x_i += omega * r_i / A_ii
  // instead of SOR's (1 - omega) x_i + omega * (b_i - sum_{j != i}) / A_ii,
  // so the two agree to rounding, sweep for sweep.
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(9, 9);
  const std::vector<double> b = random_vector(a.rows(), 21);
  SpdProblem problem(pool, a);
  for (RandomizationScope scope :
       {RandomizationScope::kShared, RandomizationScope::kOwnerComputes}) {
    for (double omega : {0.7, 1.0}) {
      SolveControls controls;
      controls.method = SpdMethod::kAsyncJacobi;
      controls.sweeps = 1;
      controls.workers = 1;
      controls.scope = scope;
      controls.step_size = omega;
      std::vector<double> x(a.rows(), 0.0);
      std::vector<double> x_sor(a.rows(), 0.0);
      for (int sweep = 1; sweep <= 25; ++sweep) {
        problem.solve(b, x, controls);
        sor_sweep(a, b, x_sor, omega);
        ASSERT_LE(nrm2(subtract(x, x_sor)), 1e-12 * nrm2(x_sor))
            << "scope=" << static_cast<int>(scope) << " omega=" << omega
            << " sweep=" << sweep;
      }
    }
  }
}

// --- (d) exact stopping on the predicted check schedule ----------------------

enum class CheckedPath {
  kSingle,
  kPartitioned,
  kBlock,
  kLsq,
  kKaczmarz,
  kJacobi
};

const char* path_name(CheckedPath path) {
  constexpr const char* kNames[] = {"single",   "partitioned",
                                    "block",    "least-squares",
                                    "kaczmarz", "chaotic relaxation"};
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
  controls.method = path == CheckedPath::kJacobi ? SpdMethod::kAsyncJacobi
                                                 : SpdMethod::kAsyncRgs;
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
    CheckedPath::kLsq,    CheckedPath::kKaczmarz,    CheckedPath::kJacobi};

/// The exact description of a 2-worker solve_checked run: every shape there
/// fits the int32 compact storage that StorageMode::kAuto picks.
std::string expected_description(CheckedPath path, SyncMode sync,
                                 SamplingPolicy sampling) {
  const std::string mode = sync == SyncMode::kFreeRunning ? "free running"
                                                          : "barrier per sweep";
  const std::string tail =
      std::string(sampling == SamplingPolicy::kWeighted ? ", weighted sampling"
                                                        : "") +
      ", int32_double storage";
  switch (path) {
    case CheckedPath::kSingle:
      return "AsyRGS, 2 threads, " + mode + tail;
    case CheckedPath::kPartitioned:
      return "AsyRGS, 2 threads, " + mode + ", 4 partitions (RCM, steal 0.05)" +
             tail;
    case CheckedPath::kBlock:
      return "AsyRGS block, 2 threads, 3 rhs, " + mode + tail;
    case CheckedPath::kLsq:
      return "AsyRCD least squares, 2 threads, " + mode + tail;
    case CheckedPath::kKaczmarz:
      return "AsyKaczmarz least squares, 2 threads, " + mode + tail;
    case CheckedPath::kJacobi:
      return "chaotic relaxation, 2 threads, " + mode + tail;
  }
  return "?";
}

/// Everything but the status and counts that a 2-worker solve_checked run
/// reports: the description, storage, sampling, method and partitioning.
void expect_reported_run(const SolveOutcome& out, CheckedPath path,
                         SyncMode sync, SamplingPolicy sampling,
                         const std::string& label) {
  EXPECT_EQ(out.description, expected_description(path, sync, sampling))
      << label;
  EXPECT_EQ(out.storage_used, StoragePolicy::kInt32Double) << label;
  EXPECT_EQ(out.sampling_used, sampling) << label;
  const SpdMethod method = path == CheckedPath::kKaczmarz
                               ? SpdMethod::kAsyncKaczmarz
                           : path == CheckedPath::kJacobi
                               ? SpdMethod::kAsyncJacobi
                               : SpdMethod::kAsyncRgs;
  EXPECT_EQ(out.method_used, method) << label;
  const bool partitioned = path == CheckedPath::kPartitioned;
  EXPECT_EQ(out.partitions_used, partitioned ? 4 : 0) << label;
  EXPECT_EQ(out.steal_rate_used, partitioned ? 0.05 : 0.0) << label;
}

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
    SolveStatus synchronized;  ///< expected under kBarrierPerSweep
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
        expect_reported_run(s.out, path, sync, SamplingPolicy::kUniform,
                            label);
      }
    }
    // One weighted run on each path that draws from a sampler.
    if (path == CheckedPath::kPartitioned || path == CheckedPath::kJacobi)
      continue;
    const std::string label = std::string(path_name(path)) + " weighted";
    SolveControls controls;
    controls.workers = 2;
    controls.seed = 5;
    controls.sync = SyncMode::kBarrierPerSweep;
    controls.sweeps = 23;
    controls.sampling = SamplingPolicy::kWeighted;
    const CheckedSolve s = solve_checked(path, pool, controls);
    EXPECT_EQ(s.out.status, SolveStatus::kBudgetCompleted) << label;
    EXPECT_EQ(s.out.workers, 2) << label;
    EXPECT_EQ(s.out.iterations, 23) << label;
    expect_reported_run(s.out, path, SyncMode::kBarrierPerSweep,
                        SamplingPolicy::kWeighted, label);
  }
}

}  // namespace
}  // namespace asyrgs
