// Compact CSR storage policy suite: int32 column indices, resolved at
// handle preparation and plumbed through every kernel.
//
//  (a) Golden bit-exactness: deterministic solves through the default
//      CsrMatrix interface hash to the exact values captured on the
//      pre-refactor code — the automatic kAuto -> int32 narrowing changes
//      no double and no association, across 1/2/4 workers x sync modes.
//  (b) The overflow guard, by shape arithmetic alone: resolve_storage_policy
//      at a > 2^31 widest coordinate or nonzero count, convert_storage's
//      throw, and the full-width Matrix Market loader accepting a wide
//      declaration — none of which require materializing a multi-gigabyte
//      operator.
//  (c) Policy equivalence and surfacing: int32/double storage reproduces
//      full-width solves bit for bit and reports itself in
//      SolveOutcome::storage_used / ProblemStats::storage / description;
//      the Krylov outer methods stay full width.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <sstream>
#include <vector>

#include "asyrgs/gen/gram.hpp"
#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/problem.hpp"
#include "asyrgs/sparse/coo.hpp"
#include "asyrgs/sparse/io.hpp"
#include "asyrgs/support/thread_pool.hpp"

namespace asyrgs {
namespace {

/// FNV-1a over the byte representation of the iterate — the same digest the
/// pre-refactor capture used, so the constants below gate bit-for-bit
/// equality of every double in x.
std::uint64_t fnv1a(const std::vector<double>& x) {
  std::uint64_t h = 1469598103934665603ull;
  for (double v : x) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Same block-diagonal construction as test_problem.cpp: blocks align with
/// every tested worker partition, so owner-computes runs are deterministic
/// at any team size.
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

const SyncMode kSyncModes[] = {SyncMode::kFreeRunning,
                               SyncMode::kBarrierPerSweep};

// ---------------------------------------------------------------------------
// (a) Golden bit-exactness against the pre-refactor pinned path
// ---------------------------------------------------------------------------
//
// The hashes were captured by running exactly these recipes on the commit
// preceding the storage refactor (full-width CsrMatrix, no narrowing).
// Today the same solves run on a fresh SpdProblem handle whose kAuto policy
// narrows to int32/double — the test is the gate that the narrowing is
// invisible: same indices addressed, same doubles, same association, so the
// iterate is byte-identical.

TEST(StorageGolden, SharedScopeSingleWorkerMatchesPreRefactor) {
  constexpr std::uint64_t kGolden = 0x6578521c82f8302dull;
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(9, 9);
  const std::vector<double> b = random_vector(a.rows(), 3);
  for (SyncMode sync : kSyncModes) {
    SolveControls opt;
    opt.method = SpdMethod::kAsyncRgs;
    opt.sweeps = 25;
    opt.seed = 17;
    opt.workers = 1;
    opt.sync = sync;
    std::vector<double> x(static_cast<std::size_t>(a.rows()), 0.0);
    SpdProblem(pool, a, /*check_input=*/false).solve(b, x, opt);
    EXPECT_EQ(fnv1a(x), kGolden) << "sync mode " << static_cast<int>(sync);
  }
}

TEST(StorageGolden, OwnerComputesMultiWorkerMatchesPreRefactor) {
  struct Case {
    int workers;
    std::uint64_t hash;
  };
  const Case cases[] = {{1, 0x2ec0494299f96491ull},
                        {2, 0xf942a77f57fa9520ull},
                        {4, 0x875f6e413e210de5ull}};
  ThreadPool pool(4);
  const CsrMatrix a = block_diag_tridiagonal(4, 12);
  const std::vector<double> b = random_vector(a.rows(), 5);
  for (SyncMode sync : kSyncModes) {
    for (const Case& c : cases) {
      SolveControls opt;
      opt.method = SpdMethod::kAsyncRgs;
      opt.sweeps = 30;
      opt.seed = 23;
      opt.workers = c.workers;
      opt.sync = sync;
      opt.scope = RandomizationScope::kOwnerComputes;
      std::vector<double> x(static_cast<std::size_t>(a.rows()), 0.0);
      SpdProblem(pool, a, /*check_input=*/false).solve(b, x, opt);
      EXPECT_EQ(fnv1a(x), c.hash)
          << "workers " << c.workers << " sync " << static_cast<int>(sync);
    }
  }
}

TEST(StorageGolden, PartitionedSingleWorkerPinnedAtEveryWidth) {
  // Partitioned solves run on the RCM-permuted operator held at the handle's
  // index width.  At one worker the iterate is a function of the recipe
  // alone; the hash was captured before the permuted operator was built
  // straight at int32, and both widths must reproduce it bit for bit.
  constexpr std::uint64_t kGolden = 0xba6e70890ae85ee5ull;
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(64, 64);
  const std::vector<double> b = random_vector(a.rows(), 7);
  SolveControls controls;
  controls.method = SpdMethod::kAsyncRgs;
  controls.sweeps = 12;
  controls.seed = 29;
  controls.workers = 1;
  controls.sync = SyncMode::kBarrierPerSweep;
  controls.partitions = 8;
  controls.steal_rate = 0.05;
  for (const StorageMode mode :
       {StorageMode::kAuto, StorageMode::kInt64Double}) {
    SpdProblem problem(pool, a, /*check_input=*/true, mode);
    std::vector<double> x(static_cast<std::size_t>(a.rows()), 0.0);
    const SolveOutcome outcome = problem.solve(b, x, controls);
    EXPECT_EQ(outcome.partitions_used, 8);
    EXPECT_EQ(outcome.storage_used, mode == StorageMode::kAuto
                                        ? StoragePolicy::kInt32Double
                                        : StoragePolicy::kInt64Double);
    EXPECT_EQ(fnv1a(x), kGolden) << "storage mode " << to_string(mode);
  }
}

TEST(StorageGolden, LeastSquaresSingleWorkerPinnedAtEveryWidth) {
  // Coordinate descent reads column j of A through row j of A^T, Kaczmarz
  // reads rows of A.  At one worker each iterate is a function of the
  // recipe alone.  The hashes were captured while the handle narrowed a
  // full-width A^T into its compact pair; both widths must reproduce them
  // bit for bit, in both sync modes.
  struct Case {
    SpdMethod method;
    SamplingPolicy sampling;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {SpdMethod::kAsyncRgs, SamplingPolicy::kUniform,
       0xa1fdd89add68767bull},
      {SpdMethod::kAsyncRgs, SamplingPolicy::kWeighted,
       0xd7572f111a14949aull},
      {SpdMethod::kAsyncKaczmarz, SamplingPolicy::kUniform,
       0x4509418fdf9ad8f4ull},
      {SpdMethod::kAsyncKaczmarz, SamplingPolicy::kWeighted,
       0xf5d5760103ff1022ull}};
  SocialGramOptions corpus;
  corpus.terms = 300;
  corpus.documents = 1200;
  corpus.mean_doc_length = 6;
  corpus.topics = 8;
  corpus.seed = 47;
  const CsrMatrix f = drop_empty_columns(make_social_gram(corpus).factor)
                          .matrix;
  const std::vector<double> b = random_vector(f.rows(), 41);
  ThreadPool pool(2);
  for (const StorageMode mode :
       {StorageMode::kAuto, StorageMode::kInt64Double}) {
    LsqProblem problem(pool, f, mode);
    for (const Case& c : cases) {
      for (SyncMode sync : kSyncModes) {
        SolveControls controls;
        controls.method = c.method;
        controls.sampling = c.sampling;
        controls.sweeps = 15;
        controls.seed = 53;
        controls.workers = 1;
        controls.step_size = 0.9;
        controls.sync = sync;
        std::vector<double> x(static_cast<std::size_t>(f.cols()), 0.0);
        const SolveOutcome out = problem.solve(b, x, controls);
        EXPECT_EQ(out.storage_used, mode == StorageMode::kAuto
                                        ? StoragePolicy::kInt32Double
                                        : StoragePolicy::kInt64Double);
        EXPECT_EQ(fnv1a(x), c.hash)
            << to_string(mode) << ": " << out.description;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// (b) Overflow guard by shape arithmetic
// ---------------------------------------------------------------------------

constexpr index_t kTooWide = (index_t{1} << 31) + 10;  // > int32 range

constexpr nnz_t kSmallNnz = 1000;  // well within every guard

TEST(StorageOverflow, ResolvePolicyStaysWideAboveInt32Range) {
  EXPECT_EQ(resolve_storage_policy(StorageMode::kAuto, kTooWide, kSmallNnz),
            StoragePolicy::kInt64Double);
  EXPECT_EQ(
      resolve_storage_policy(StorageMode::kInt64Double, kTooWide, kSmallNnz),
      StoragePolicy::kInt64Double);
}

TEST(StorageOverflow, ResolvePolicyNarrowsWhenShapeFits) {
  EXPECT_EQ(resolve_storage_policy(StorageMode::kAuto, 1000, kSmallNnz),
            StoragePolicy::kInt32Double);
  EXPECT_EQ(resolve_storage_policy(StorageMode::kInt64Double, 1000, kSmallNnz),
            StoragePolicy::kInt64Double);
  // Boundary: int32 admits exactly 2^31 columns (indices 0 .. 2^31 - 1).
  EXPECT_EQ(
      resolve_storage_policy(StorageMode::kAuto, index_t{1} << 31, kSmallNnz),
      StoragePolicy::kInt32Double);
  EXPECT_EQ(resolve_storage_policy(StorageMode::kAuto,
                                   (index_t{1} << 31) + 1, kSmallNnz),
            StoragePolicy::kInt64Double);
}

TEST(StorageOverflow, ResolvePolicyGuardsNnzAtTheInt32Edge) {
  // A dimension that fits int32 must still refuse to narrow when the
  // nonzero count overflows it — nnz-derived arithmetic on the compact
  // copy stays inside 32 bits only up to 2^31 - 1 entries.
  constexpr nnz_t kEdge = (nnz_t{1} << 31) - 1;  // last admissible count
  EXPECT_EQ(resolve_storage_policy(StorageMode::kAuto, 1000, kEdge),
            StoragePolicy::kInt32Double);
  EXPECT_EQ(resolve_storage_policy(StorageMode::kAuto, 1000, kEdge + 1),
            StoragePolicy::kInt64Double);
  EXPECT_EQ(resolve_storage_policy(StorageMode::kInt64Double, 1000, kEdge),
            StoragePolicy::kInt64Double);
}

TEST(StorageOverflow, ConvertStorageThrowsBeyondIndexWidth) {
  // 2 rows x (2^31 + 10) columns with one stored entry per row: row_ptr
  // arithmetic makes the shape wide while the arrays stay tiny.
  const CsrMatrix wide(2, kTooWide, {0, 1, 2}, {0, 5}, {1.0, 2.0});
  EXPECT_THROW((convert_storage<std::int32_t, double>(wide)), Error);
  // Full width accepts the same shape.
  const CsrMatrix same = convert_storage<std::int64_t, double>(wide);
  EXPECT_EQ(same.cols(), kTooWide);
  EXPECT_FALSE(index_width_fits<std::int32_t>(wide.cols()));
}

TEST(StorageOverflow, MatrixMarketLoaderRejectsWideDeclarationEarly) {
  // The loader reads at full width, so a declaration wider than int32
  // loads; narrowing is the handles' job, guarded by convert_storage.
  std::istringstream wide(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2147483658 2\n"
      "1 1 1.0\n"
      "2 6 2.0\n");
  const CsrMatrix full = read_matrix_market(wide);
  EXPECT_EQ(full.cols(), kTooWide);
}

// ---------------------------------------------------------------------------
// (c) Policy equivalence and surfacing
// ---------------------------------------------------------------------------

TEST(StoragePolicyTest, AutoNarrowsAndSurfacesEverywhere) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  SpdProblem problem(pool, a);
  EXPECT_EQ(problem.storage(), StoragePolicy::kInt32Double);
  EXPECT_EQ(problem.stats().storage, StoragePolicy::kInt32Double);

  const std::vector<double> b = random_vector(a.rows(), 11);
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 0.0);
  SolveControls controls;
  controls.sweeps = 10;
  controls.workers = 1;
  const SolveOutcome out = problem.solve(b, x, controls);
  EXPECT_EQ(out.storage_used, StoragePolicy::kInt32Double);
  EXPECT_NE(out.description.find("int32_double storage"), std::string::npos)
      << out.description;
}

TEST(StoragePolicyTest, ExplicitFullWidthStaysDefault) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  SpdProblem problem(pool, a, /*check_input=*/true, StorageMode::kInt64Double);
  EXPECT_EQ(problem.storage(), StoragePolicy::kInt64Double);

  const std::vector<double> b = random_vector(a.rows(), 11);
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 0.0);
  SolveControls controls;
  controls.sweeps = 10;
  controls.workers = 1;
  const SolveOutcome out = problem.solve(b, x, controls);
  EXPECT_EQ(out.storage_used, StoragePolicy::kInt64Double);
  EXPECT_EQ(out.description.find("storage"), std::string::npos)
      << out.description;
}

TEST(StoragePolicyTest, Int32SolveBitIdenticalToFullWidth) {
  ThreadPool pool(4);
  const CsrMatrix a = block_diag_tridiagonal(4, 12);
  const std::vector<double> b = random_vector(a.rows(), 7);
  SpdProblem wide(pool, a, true, StorageMode::kInt64Double);
  SpdProblem narrow(pool, a);  // kAuto -> int32
  ASSERT_EQ(narrow.storage(), StoragePolicy::kInt32Double);
  for (int workers : {1, 2, 4}) {
    SolveControls controls;
    controls.sweeps = 20;
    controls.seed = 29;
    controls.workers = workers;
    controls.scope = RandomizationScope::kOwnerComputes;
    controls.sync = SyncMode::kBarrierPerSweep;
    std::vector<double> x_wide(static_cast<std::size_t>(a.rows()), 0.0);
    std::vector<double> x_narrow = x_wide;
    wide.solve(b, x_wide, controls);
    narrow.solve(b, x_narrow, controls);
    EXPECT_EQ(fnv1a(x_wide), fnv1a(x_narrow)) << workers << " workers";
  }
}

TEST(StoragePolicyTest, KrylovOuterMethodsStayFullWidth) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  SpdProblem problem(pool, a);  // kAuto -> int32 for the asynchronous paths
  const std::vector<double> b = random_vector(a.rows(), 13);
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 0.0);
  SolveControls controls;
  controls.method = SpdMethod::kCg;
  controls.rel_tol = 1e-10;
  const SolveOutcome out = problem.solve(b, x, controls);
  EXPECT_TRUE(out.converged());
  EXPECT_EQ(out.storage_used, StoragePolicy::kInt64Double);
}

TEST(StoragePolicyTest, BlockSolveRunsNarrowStorage) {
  ThreadPool pool(2);
  const CsrMatrix a = block_diag_tridiagonal(4, 12);
  SpdProblem wide(pool, a, true, StorageMode::kInt64Double);
  SpdProblem narrow(pool, a);  // kAuto -> int32
  MultiVector ones(a.rows(), 3);
  ones.fill(1.0);
  const MultiVector b = rhs_from_solution(a, ones);
  SolveControls controls;
  controls.sweeps = 25;
  controls.seed = 31;
  controls.workers = 1;
  MultiVector x_wide(a.rows(), 3);
  MultiVector x_narrow(a.rows(), 3);
  const SolveOutcome out_wide = wide.solve(b, x_wide, controls);
  const SolveOutcome out_narrow = narrow.solve(b, x_narrow, controls);
  EXPECT_EQ(out_wide.storage_used, StoragePolicy::kInt64Double);
  EXPECT_EQ(out_narrow.storage_used, StoragePolicy::kInt32Double);
  for (index_t k = 0; k < 3; ++k)
    for (index_t i = 0; i < a.rows(); ++i)
      EXPECT_EQ(x_wide.at(i, k), x_narrow.at(i, k));
}

TEST(StoragePolicyTest, LsqHandleNarrowsBothFactors) {
  ThreadPool pool(2);
  const SocialGramOptions small_corpus = [] {
    SocialGramOptions o;
    o.terms = 96;
    o.documents = 512;
    o.topics = 0;
    return o;
  }();
  const SocialGram sys = make_social_gram(small_corpus);
  LsqProblem problem(pool, sys.factor);
  EXPECT_EQ(problem.storage(), StoragePolicy::kInt32Double);

  const std::vector<double> b = random_vector(sys.factor.rows(), 19);
  std::vector<double> x(static_cast<std::size_t>(sys.factor.cols()), 0.0);
  SolveControls controls;
  controls.sweeps = 60;
  controls.step_size = 0.95;
  controls.sync = SyncMode::kBarrierPerSweep;
  controls.rel_tol = 1e-6;
  controls.workers = 2;
  const SolveOutcome out = problem.solve(b, x, controls);
  EXPECT_EQ(out.storage_used, StoragePolicy::kInt32Double);
  EXPECT_LT(out.relative_residual, 1e-4);
}

}  // namespace
}  // namespace asyrgs
