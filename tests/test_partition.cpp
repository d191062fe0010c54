// Topology-aware partitioned scheduling suite (PR 10).
//
// The locality layer replaced the paper's any-worker-any-coordinate draws
// with RCM-ordered, cache-line-aligned partitions and partition-keyed Philox
// streams.  These tests pin the contracts that layer promises:
//  (a) rcm_order is a valid, bandwidth-reducing permutation and
//      permute_symmetric applies it faithfully;
//  (b) cut_rows covers every row exactly once, aligns interior boundaries
//      to kPartitionAlignRows, and computes exact halos;
//  (c) the partitioned DirectionPlan keeps the shared stream's
//      obligations: bulk fills reproduce the per-pick primitives, and the
//      direction multiset for a fixed (seed, partition, steal_rate) is
//      invariant across team sizes (the test_engine_determinism analogue);
//  (d) partitioned solves are bit-reproducible at one worker, converge on a
//      consistent Laplacian, surface the policy in SolveOutcome, inherit
//      the analysis through clones, and reject invalid controls;
//  (e) the Laplacian generators throw (rather than wrap) when grid products
//      or nonzero estimates overflow the index type.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "asyrgs/core/engine.hpp"
#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/partition.hpp"
#include "asyrgs/gen/random_spd.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/problem.hpp"
#include "asyrgs/sparse/coo.hpp"

namespace asyrgs {
namespace {

/// max |i - j| over the nonzeros of a.
index_t bandwidth_of(const CsrMatrix& a) {
  index_t bw = 0;
  for (index_t i = 0; i < a.rows(); ++i)
    for (const std::int64_t j : a.row_cols(i))
      bw = std::max(bw, std::abs(i - static_cast<index_t>(j)));
  return bw;
}

bool is_permutation_of_range(const std::vector<index_t>& perm, index_t n) {
  if (perm.size() != static_cast<std::size_t>(n)) return false;
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (const index_t p : perm) {
    if (p < 0 || p >= n || seen[static_cast<std::size_t>(p)]) return false;
    seen[static_cast<std::size_t>(p)] = 1;
  }
  return true;
}

// --- (a) RCM ordering and symmetric permutation ------------------------------

TEST(RcmOrder, IsAPermutation) {
  const CsrMatrix a = laplacian_2d(13, 7);
  const std::vector<index_t> perm = rcm_order(a);
  EXPECT_TRUE(is_permutation_of_range(perm, a.rows()));
}

TEST(RcmOrder, RecoversBandStructureFromAShuffledLaplacian) {
  // Scramble a 2D Laplacian with a random symmetric permutation, then ask
  // RCM to undo the damage: the reordered bandwidth must come back to the
  // same order of magnitude as the natural (nx-banded) ordering.
  const index_t nx = 16, ny = 16;
  const CsrMatrix natural = laplacian_2d(nx, ny);
  std::vector<index_t> shuffle(static_cast<std::size_t>(natural.rows()));
  std::iota(shuffle.begin(), shuffle.end(), index_t{0});
  std::mt19937 rng(12345);
  std::shuffle(shuffle.begin(), shuffle.end(), rng);
  const CsrMatrix scrambled = permute_symmetric(natural, shuffle);
  EXPECT_GT(bandwidth_of(scrambled), 4 * nx);  // the shuffle did damage

  const CsrMatrix recovered =
      permute_symmetric(scrambled, rcm_order(scrambled));
  EXPECT_LE(bandwidth_of(recovered), 2 * nx);
  EXPECT_EQ(recovered.nnz(), natural.nnz());
}

TEST(RcmOrder, IsDeterministic) {
  const CsrMatrix a = laplacian_3d(5, 4, 3);
  EXPECT_EQ(rcm_order(a), rcm_order(a));
}

TEST(RcmOrder, HandlesIsolatedVertices) {
  // A diagonal matrix is all isolated vertices — the ordering must still be
  // a permutation (the isolated shortcut path).
  CooBuilder b(6, 6);
  for (index_t i = 0; i < 6; ++i) b.add(i, i, 2.0);
  const CsrMatrix a = b.to_csr();
  EXPECT_TRUE(is_permutation_of_range(rcm_order(a), 6));
}

TEST(RcmOrder, PinnedOnSeveralMultiVertexComponents) {
  // Five components with interleaved labels: a 5-vertex path, a triangle
  // with a tail, an edge, an isolated vertex and a 3-leaf star.  Every
  // multi-vertex component runs both pseudo-peripheral probes, so this pins
  // the probe bookkeeping across components (expected order captured before
  // the probes stopped copying the visited array).
  CooBuilder b(16, 16);
  for (index_t i = 0; i < 16; ++i) b.add(i, i, 4.0);
  const index_t edges[][2] = {{0, 3},  {3, 7},  {7, 9},  {9, 12},   // path
                              {1, 5},  {5, 10}, {10, 1}, {10, 13},  // tri
                              {2, 11},                              // edge
                              {8, 6},  {8, 14}, {8, 15}};           // star
  for (const auto& e : edges) b.add_symmetric(e[0], e[1], -1.0);
  const std::vector<index_t> expected = {15, 6, 8,  14, 4, 2, 11, 5,
                                         1,  10, 13, 0, 3, 7, 9,  12};
  EXPECT_EQ(rcm_order(b.to_csr()), expected);
}

TEST(PermuteSymmetric, AppliesPAPTransposeEntrywise) {
  const CsrMatrix a = laplacian_2d(4, 3, 1.0, 2.5);
  std::vector<index_t> perm(static_cast<std::size_t>(a.rows()));
  std::iota(perm.begin(), perm.end(), index_t{0});
  std::reverse(perm.begin(), perm.end());
  const CsrMatrix p = permute_symmetric(a, perm);
  ASSERT_EQ(p.rows(), a.rows());
  ASSERT_EQ(p.nnz(), a.nnz());
  for (index_t i = 0; i < p.rows(); ++i)
    for (index_t j = 0; j < p.cols(); ++j)
      ASSERT_EQ(p.at(i, j), a.at(perm[static_cast<std::size_t>(i)],
                                 perm[static_cast<std::size_t>(j)]))
          << i << "," << j;
}

TEST(PermuteSymmetric, NarrowAnalysisHoldsTheConvertedWideOperator) {
  // A narrow analysis builds P A P^T straight at int32; it must equal the
  // full-width permutation narrowed afterwards, array for array, and it is
  // the only permuted operator the analysis holds.
  RandomSpdOptions spd;
  spd.n = 300;
  spd.seed = 5;
  for (const CsrMatrix& a : {laplacian_2d(40, 40), random_spd_product(spd)}) {
    const PartitionAnalysis narrow(a, StoragePolicy::kInt32Double);
    ASSERT_EQ(narrow.storage(), StoragePolicy::kInt32Double);
    const CsrMatrix32 reference = convert_storage<std::int32_t, double>(
        permute_symmetric(a, narrow.perm()));
    const CsrMatrix32& held = narrow.permuted<std::int32_t>();
    EXPECT_EQ(held.row_ptr(), reference.row_ptr());
    EXPECT_EQ(held.col_idx(), reference.col_idx());
    EXPECT_EQ(held.values(), reference.values());
    EXPECT_THROW((void)narrow.permuted(), Error);  // no full-width twin

    const PartitionAnalysis wide(a);
    ASSERT_EQ(wide.storage(), StoragePolicy::kInt64Double);
    EXPECT_EQ(wide.perm(), narrow.perm());
    EXPECT_THROW((void)wide.permuted<std::int32_t>(), Error);
    const std::shared_ptr<const GraphPartition> wide_cut = wide.cut(8);
    const std::shared_ptr<const GraphPartition> narrow_cut = narrow.cut(8);
    EXPECT_EQ(wide_cut->lo, narrow_cut->lo);
    EXPECT_EQ(wide_cut->halo, narrow_cut->halo);
  }
}

/// FNV-1a over the 8-byte representation of each value in turn, the digest
/// test_storage.cpp pins iterates with.  Indices hash widened to 64 bits, so
/// both index widths of one operator share a digest.
class Fnv1a {
 public:
  void add(std::uint64_t bits) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (bits >> (8 * b)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  template <class Int>
  void add_all(const std::vector<Int>& xs) {
    add(static_cast<std::uint64_t>(xs.size()));
    for (const Int x : xs) add(static_cast<std::uint64_t>(x));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

template <class Index>
std::uint64_t digest(const CsrMatrixT<Index>& m) {
  Fnv1a h;
  h.add_all(m.row_ptr());
  h.add_all(m.col_idx());
  for (const double v : m.values()) h.add(v);
  return h.value();
}

std::uint64_t digest(const GraphPartition& part) {
  Fnv1a h;
  h.add_all(part.lo);
  for (const std::vector<index_t>& halo : part.halo) h.add_all(halo);
  return h.value();
}

struct AnalysisDigests {
  std::uint64_t order;     ///< rcm_order
  std::uint64_t permuted;  ///< permute_symmetric, at either width
  std::uint64_t cut8;      ///< PartitionAnalysis::cut(8): lo and halos
};

/// Checks the whole prepare-time analysis of `a` against digests captured
/// before its passes were rewritten for speed: the analysis is a pure
/// function of the matrix, so every bit must survive any such rewrite.
void expect_analysis_pinned(const CsrMatrix& a, const AnalysisDigests& want) {
  const std::vector<index_t> perm = rcm_order(a);
  ASSERT_TRUE(is_permutation_of_range(perm, a.rows()));
  Fnv1a order;
  order.add_all(perm);
  EXPECT_EQ(order.value(), want.order);
  EXPECT_EQ(digest(permute_symmetric(a, perm)), want.permuted);
  EXPECT_EQ(digest(permute_symmetric<std::int32_t>(a, perm)), want.permuted);
  for (const StoragePolicy storage :
       {StoragePolicy::kInt64Double, StoragePolicy::kInt32Double}) {
    const PartitionAnalysis analysis(a, storage);
    EXPECT_EQ(analysis.perm(), perm);
    EXPECT_EQ(digest(*analysis.cut(8)), want.cut8) << to_string(storage);
  }
}

TEST(AnalysisGolden, GridWhoseSecondProbeDoesNotDeepen) {
  // The first probe runs from corner 0 to the opposite corner; the second,
  // from there, finds the same 498 levels, so the final breadth-first
  // search starts where the second probe did.  Nonuniform weights make the
  // permuted values carry the permutation too.
  expect_analysis_pinned(laplacian_2d(300, 200, 1.0, 2.5),
                         {0xac0e58705075b99dull, 0x2ee92e469e8020daull,
                          0x984ef1677f1fa556ull});
}

TEST(AnalysisGolden, PathLabelledFromItsMiddleRunsAThirdSearch) {
  // A 1001-vertex path whose label 0 sits in the middle: the first probe
  // reaches an end in 500 levels, the second, from that end, deepens to
  // 1000, and the final search starts from the other end.  Labels
  // alternate sides of the middle (..., 3, 1, 0, 2, 4, ...), so the order
  // is no relabelling of the identity.
  constexpr index_t n = 1001;
  std::vector<index_t> along(static_cast<std::size_t>(n));  // path -> label
  for (index_t p = 0; p < n; ++p) {
    const index_t offset = p - n / 2;
    along[static_cast<std::size_t>(p)] =
        offset <= 0 ? -2 * offset - (offset < 0 ? 1 : 0) : 2 * offset;
  }
  CooBuilder b(n, n);
  for (index_t i = 0; i < n; ++i)
    b.add(i, i, 4.0 + 0.001 * static_cast<double>(i));
  for (index_t p = 0; p + 1 < n; ++p)
    b.add_symmetric(along[static_cast<std::size_t>(p)],
                    along[static_cast<std::size_t>(p) + 1],
                    -1.0 - 0.0001 * static_cast<double>(p));
  const CsrMatrix a = b.to_csr();
  ASSERT_TRUE(is_permutation_of_range(along, n));
  expect_analysis_pinned(a, {0x5da80f89055f2f1aull, 0x037d75ca0a3d47b3ull,
                             0x0307d6b4bb6475bcull});
}

// --- (b) cut_rows: coverage, alignment, halos --------------------------------

TEST(CutRows, CoversAllRowsWithAlignedBoundaries) {
  const PartitionAnalysis analysis(laplacian_2d(32, 32));
  for (int count : {1, 2, 4, 7}) {
    const std::shared_ptr<const GraphPartition> cut = analysis.cut(count);
    ASSERT_EQ(cut->count(), count);
    EXPECT_EQ(cut->lo.front(), 0);
    EXPECT_EQ(cut->lo.back(), analysis.permuted().rows());
    for (int p = 0; p < count; ++p) {
      EXPECT_LE(cut->lo_of(p), cut->lo[static_cast<std::size_t>(p) + 1]);
      if (p > 0) {
        EXPECT_EQ(cut->lo_of(p) % kPartitionAlignRows, 0)
            << "interior boundary " << p << " unaligned";
      }
    }
  }
}

TEST(CutRows, BalancesNonzerosAcrossPartitions) {
  const PartitionAnalysis analysis(laplacian_2d(64, 64));
  const CsrMatrix& a = analysis.permuted();
  const int count = 8;
  const std::shared_ptr<const GraphPartition> cut = analysis.cut(count);
  const nnz_t ideal = a.nnz() / count;
  for (int p = 0; p < count; ++p) {
    nnz_t nnz = 0;
    for (index_t i = cut->lo_of(p); i < cut->lo_of(p) + cut->size_of(p); ++i)
      nnz += a.row_nnz(i);
    // Alignment rounding moves boundaries by < kPartitionAlignRows rows;
    // with a 5-point stencil that is a small perturbation of the target.
    EXPECT_NEAR(static_cast<double>(nnz), static_cast<double>(ideal),
                static_cast<double>(ideal) * 0.25)
        << "partition " << p;
  }
}

TEST(CutRows, HalosAreExactlyTheAdjacentForeignRows) {
  const PartitionAnalysis analysis(laplacian_2d(24, 24));
  const CsrMatrix& a = analysis.permuted();
  const std::shared_ptr<const GraphPartition> cut = analysis.cut(4);
  for (int p = 0; p < cut->count(); ++p) {
    const index_t lo = cut->lo_of(p);
    const index_t hi = lo + cut->size_of(p);
    // Reference halo: every foreign row adjacent to an owned row.
    std::vector<index_t> expected;
    for (index_t i = lo; i < hi; ++i)
      for (const std::int64_t jj : a.row_cols(i)) {
        const index_t j = static_cast<index_t>(jj);
        if (j < lo || j >= hi) expected.push_back(j);
      }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    EXPECT_EQ(cut->halo[static_cast<std::size_t>(p)], expected)
        << "partition " << p;
  }
}

TEST(CutRows, TinyMatrixClampsCountAndAllowsEmptyPartitions) {
  const PartitionAnalysis analysis(laplacian_2d(4, 4));  // n = 16, align = 8
  const std::shared_ptr<const GraphPartition> many = analysis.cut(5);
  index_t total = 0;
  for (int p = 0; p < many->count(); ++p) total += many->size_of(p);
  EXPECT_EQ(total, 16);  // empty partitions allowed, coverage exact
  // Counts beyond the row count clamp rather than throw.
  const std::shared_ptr<const GraphPartition> clamped = analysis.cut(1000);
  EXPECT_LE(clamped->count(), 16);
  EXPECT_EQ(clamped->lo.back(), 16);
}

// --- (c) partitioned DirectionPlan: fills, multiset invariance --------------

TEST(PartitionedPlan, FillMatchesPick) {
  const PartitionAnalysis analysis(laplacian_2d(16, 16));
  const std::shared_ptr<const GraphPartition> cut = analysis.cut(4);
  for (double steal : {0.0, 0.25}) {
    for (int team : {1, 2, 3, 4}) {
      const detail::DirectionPlan plan(91, cut, steal, team);
      for (int w = 0; w < team; ++w) {
        if (plan.per_sweep(w) == 0) continue;
        // fill_in_sweep takes within-sweep positions: t0 + count must stay
        // inside the worker's per-sweep quota (the engine's usage).
        const std::size_t in_sweep =
            static_cast<std::size_t>(plan.per_sweep(w)) - 1;
        std::vector<index_t> got(in_sweep);
        plan.fill_in_sweep(w, 2, 1, in_sweep, got.data());
        for (std::size_t i = 0; i < in_sweep; ++i)
          ASSERT_EQ(got[i],
                    plan.pick_in_sweep(w, 2, 1 + static_cast<index_t>(i)))
              << "steal=" << steal << " team=" << team << " w=" << w;
      }
    }
  }
}

/// Worker w's first `count` directions of `plan`, sweep after sweep: the
/// order the engine executes them in either sync mode.  Requires
/// plan.per_sweep(w) > 0.
std::vector<index_t> sweep_draws(const detail::DirectionPlan& plan, int w,
                                 std::size_t count) {
  const std::size_t mine = static_cast<std::size_t>(plan.per_sweep(w));
  std::vector<index_t> out((count + mine - 1) / mine * mine);
  for (std::size_t k = 0; k < out.size(); k += mine)
    plan.fill_in_sweep(w, static_cast<int>(k / mine), 0, mine, out.data() + k);
  out.resize(count);
  return out;
}

TEST(PartitionedPlan, PerSweepTilesTheDimension) {
  const PartitionAnalysis analysis(laplacian_2d(16, 16));
  for (int count : {1, 3, 4}) {
    const std::shared_ptr<const GraphPartition> cut = analysis.cut(count);
    for (int team : {1, 2, 3, 4, 5}) {
      const detail::DirectionPlan plan(7, cut, 0.0, team);
      index_t total = 0;
      for (int w = 0; w < team; ++w) total += plan.per_sweep(w);
      EXPECT_EQ(total, analysis.permuted().rows())
          << "count=" << count << " team=" << team;
    }
  }
}

TEST(PartitionedPlan, DirectionMultisetInvariantAcrossTeamSizes) {
  // The partitioned analogue of DirectionMultiset.PlanTilesTheSequentialStream:
  // partition-keyed streams make the union of all workers' draws a function
  // of (seed, partition, steal_rate) alone, not of the team size.
  const PartitionAnalysis analysis(laplacian_2d(16, 16));
  const std::shared_ptr<const GraphPartition> cut = analysis.cut(4);
  const int sweeps = 6;
  for (double steal : {0.0, 0.25}) {
    std::vector<index_t> reference;
    for (int team : {1, 2, 4}) {
      const detail::DirectionPlan plan(33, cut, steal, team);
      std::vector<index_t> all;
      for (int w = 0; w < team; ++w) {
        if (plan.per_sweep(w) == 0) continue;
        const std::vector<index_t> picks = sweep_draws(
            plan, w, static_cast<std::size_t>(sweeps * plan.per_sweep(w)));
        all.insert(all.end(), picks.begin(), picks.end());
      }
      std::sort(all.begin(), all.end());
      if (team == 1)
        reference = all;
      else
        EXPECT_EQ(all, reference) << "steal=" << steal << " team=" << team;
    }
    EXPECT_EQ(reference.size(),
              static_cast<std::size_t>(sweeps) *
                  static_cast<std::size_t>(analysis.permuted().rows()));
  }
}

TEST(PartitionedPlan, ZeroStealNeverLeavesTheOwnedRange) {
  const PartitionAnalysis analysis(laplacian_2d(16, 16));
  const std::shared_ptr<const GraphPartition> cut = analysis.cut(4);
  // team == count: worker w owns exactly partition w.
  const detail::DirectionPlan plan(5, cut, 0.0, 4);
  for (int w = 0; w < 4; ++w) {
    const index_t lo = cut->lo_of(w);
    const index_t hi = lo + cut->size_of(w);
    for (const index_t r : sweep_draws(plan, w, 2000)) {
      ASSERT_GE(r, lo) << "w=" << w;
      ASSERT_LT(r, hi) << "w=" << w;
    }
  }
}

TEST(PartitionedPlan, StolenDrawsComeFromTheHalo) {
  const PartitionAnalysis analysis(laplacian_2d(16, 16));
  const std::shared_ptr<const GraphPartition> cut = analysis.cut(4);
  const detail::DirectionPlan plan(5, cut, 0.5, 4);
  int stolen = 0;
  for (int w = 0; w < 4; ++w) {
    const index_t lo = cut->lo_of(w);
    const index_t hi = lo + cut->size_of(w);
    const std::vector<index_t>& halo = cut->halo[static_cast<std::size_t>(w)];
    for (const index_t r : sweep_draws(plan, w, 2000)) {
      if (r >= lo && r < hi) continue;
      ++stolen;
      ASSERT_TRUE(std::binary_search(halo.begin(), halo.end(), r))
          << "w=" << w << " r=" << r << " outside owned range and halo";
    }
  }
  // With steal_rate 0.5 and 8000 draws, steals are statistically certain.
  EXPECT_GT(stolen, 1000);
}

// --- (d) partitioned solves: reproducibility, convergence, surfacing --------

SolveControls partitioned_controls() {
  SolveControls controls;
  controls.method = SpdMethod::kAsyncRgs;
  controls.sweeps = 400;
  controls.seed = 17;
  controls.sync = SyncMode::kBarrierPerSweep;
  controls.rel_tol = 1e-10;
  controls.partitions = 4;
  controls.steal_rate = 0.05;
  return controls;
}

TEST(PartitionedSolve, SingleWorkerIsBitReproducible) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(12, 12);
  const std::vector<double> b = random_vector(a.rows(), 3);
  SpdProblem problem(pool, a);
  SolveControls controls = partitioned_controls();
  controls.workers = 1;
  std::vector<double> x1(a.rows(), 0.0), x2(a.rows(), 0.0);
  problem.solve(b, x1, controls);
  problem.solve(b, x2, controls);
  EXPECT_EQ(x1, x2);
}

TEST(PartitionedSolve, ConvergesOnAConsistentLaplacian) {
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(24, 24);
  const std::vector<double> ones(static_cast<std::size_t>(a.rows()), 1.0);
  const std::vector<double> b = rhs_from_solution(a, ones);
  SpdProblem problem(pool, a);

  SolveControls controls = partitioned_controls();
  controls.sweeps = 20000;
  controls.rel_tol = 1e-8;
  controls.workers = 2;
  std::vector<double> x(a.rows(), 0.0);
  const SolveOutcome outcome = problem.solve(b, x, controls);
  EXPECT_TRUE(outcome.converged()) << outcome.description;
  EXPECT_LT(relative_residual(a, b, x), 1e-7);

  // The unpartitioned engine with the same budget agrees on the answer.
  SolveControls flat = controls;
  flat.partitions = 0;
  flat.steal_rate = 0.0;
  std::vector<double> y(a.rows(), 0.0);
  EXPECT_TRUE(problem.solve(b, y, flat).converged());
  for (index_t i = 0; i < a.rows(); ++i)
    ASSERT_NEAR(x[static_cast<std::size_t>(i)], y[static_cast<std::size_t>(i)],
                1e-6);
}

TEST(PartitionedSolve, OutcomeSurfacesThePartitionPolicy) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(12, 12);
  const std::vector<double> b = random_vector(a.rows(), 9);
  SpdProblem problem(pool, a);
  SolveControls controls = partitioned_controls();
  controls.workers = 1;
  controls.sweeps = 5;
  controls.rel_tol = 0.0;
  std::vector<double> x(a.rows(), 0.0);
  const SolveOutcome outcome = problem.solve(b, x, controls);
  EXPECT_EQ(outcome.partitions_used, 4);
  EXPECT_EQ(outcome.steal_rate_used, 0.05);
  EXPECT_NE(outcome.description.find("4 partitions"), std::string::npos)
      << outcome.description;
  EXPECT_NE(outcome.description.find("RCM"), std::string::npos)
      << outcome.description;

  // Unpartitioned solves keep the fields at zero.
  SolveControls flat;
  flat.method = SpdMethod::kAsyncRgs;
  flat.sweeps = 2;
  const SolveOutcome plain = problem.solve(b, x, flat);
  EXPECT_EQ(plain.partitions_used, 0);
  EXPECT_EQ(plain.steal_rate_used, 0.0);
}

TEST(PartitionedSolve, PartitionCountClampsToTheDimension) {
  ThreadPool pool(1);
  const CsrMatrix a = laplacian_1d(5);
  const std::vector<double> b = random_vector(a.rows(), 1);
  SpdProblem problem(pool, a);
  SolveControls controls = partitioned_controls();
  controls.partitions = 64;
  controls.steal_rate = 0.0;
  controls.workers = 1;
  controls.sweeps = 3;
  controls.rel_tol = 0.0;
  std::vector<double> x(a.rows(), 0.0);
  const SolveOutcome outcome = problem.solve(b, x, controls);
  EXPECT_GE(outcome.partitions_used, 1);
  EXPECT_LE(outcome.partitions_used, 5);
}

TEST(PartitionedSolve, ClonesInheritThePreparedAnalysis) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(10, 10);
  const std::vector<double> b = random_vector(a.rows(), 4);
  SpdProblem problem(pool, a);
  EXPECT_EQ(problem.stats().partition_builds, 0);
  problem.prepare_partitions();
  problem.prepare_partitions();  // idempotent
  EXPECT_EQ(problem.stats().partition_builds, 1);

  SpdProblem clone(pool, problem);
  SolveControls controls = partitioned_controls();
  controls.workers = 1;
  controls.sweeps = 5;
  controls.rel_tol = 0.0;
  std::vector<double> x(a.rows(), 0.0);
  const SolveOutcome outcome = clone.solve(b, x, controls);
  EXPECT_EQ(outcome.partitions_used, 4);
  EXPECT_EQ(clone.stats().partition_builds, 0)  // reused, never rebuilt
      << "clone rebuilt the partition analysis";
}

TEST(PartitionedSolve, RejectsInvalidPartitionControls) {
  ThreadPool pool(1);
  const CsrMatrix a = laplacian_2d(6, 6);
  const std::vector<double> b = random_vector(a.rows(), 2);
  SpdProblem problem(pool, a);
  std::vector<double> x(a.rows(), 0.0);

  SolveControls steal_without_partitions;
  steal_without_partitions.steal_rate = 0.1;
  EXPECT_THROW((void)problem.solve(b, x, steal_without_partitions), Error);

  SolveControls steal_too_big = partitioned_controls();
  steal_too_big.steal_rate = 1.0;
  EXPECT_THROW((void)problem.solve(b, x, steal_too_big), Error);

  SolveControls weighted = partitioned_controls();
  weighted.sampling = SamplingPolicy::kWeighted;
  EXPECT_THROW((void)problem.solve(b, x, weighted), Error);

  SolveControls owner = partitioned_controls();
  owner.scope = RandomizationScope::kOwnerComputes;
  EXPECT_THROW((void)problem.solve(b, x, owner), Error);

  SolveControls krylov = partitioned_controls();
  krylov.method = SpdMethod::kCg;
  EXPECT_THROW((void)problem.solve(b, x, krylov), Error);

  SolveControls negative;
  negative.partitions = -1;
  EXPECT_THROW((void)problem.solve(b, x, negative), Error);
}

// --- (e) Laplacian generator overflow guards ---------------------------------

TEST(LaplacianOverflow, TwoDGridProductThrowsAtAllWidths) {
  const index_t big = index_t{1} << 32;  // big * big wraps int64 to 0
  EXPECT_THROW((void)laplacian_2d(big, big), Error);
}

TEST(LaplacianOverflow, ThreeDGridProductThrowsAtAllWidths) {
  const index_t big = index_t{1} << 21;  // big^3 = 2^63 > int64 max
  EXPECT_THROW((void)laplacian_3d(big, big, big), Error);
}

TEST(LaplacianOverflow, ReserveGuardCatchesStencilWrap) {
  // Dimensions that pass the product check but whose nnz estimate (3n, 5n,
  // 7n) would wrap.  Nothing is allocated before the guard fires.
  constexpr index_t kMax = std::numeric_limits<index_t>::max();
  EXPECT_THROW((void)laplacian_1d(kMax / 3 + 1), Error);
  EXPECT_THROW((void)laplacian_2d(index_t{1} << 31, index_t{1} << 31), Error);
  EXPECT_THROW((void)laplacian_3d(index_t{1} << 21, index_t{1} << 21,
                                  index_t{1} << 19),
               Error);
}

TEST(LaplacianOverflow, LargeValidGridsStillBuild) {
  // The guards must not reject ordinary sizes.
  const CsrMatrix a = laplacian_2d(64, 64);
  EXPECT_EQ(a.rows(), 64 * 64);
  const CsrMatrix c = laplacian_3d(8, 8, 8);
  EXPECT_EQ(c.rows(), 512);
}

}  // namespace
}  // namespace asyrgs
