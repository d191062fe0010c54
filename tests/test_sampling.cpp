// Sampling subsystem tests (sampling/direction_sampler.hpp + the
// DirectionPlan's weighted draws): alias-table build determinism (golden
// hashes), probability exactness, the batched map, the raw-bits strided
// fill, the plan's sampler contract, and the load-bearing engine invariant
// — the direction multiset of a fixed (seed, policy) run is identical at
// 1, 2, and 4 workers for uniform (no table) and weighted draws.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "asyrgs/core/engine.hpp"
#include "asyrgs/sampling/direction_sampler.hpp"
#include "asyrgs/support/prng.hpp"
#include "asyrgs/support/thread_pool.hpp"

namespace asyrgs {
namespace {

// --- alias table -------------------------------------------------------------

TEST(AliasTable, GoldenHashesPinBuildDeterminism) {
  // The build is a deterministic index-ordered Vose pass: these hashes may
  // only change with an intentional (and documented) table-format change.
  {
    const double w[5] = {1.0, 2.0, 3.0, 4.0, 10.0};
    AliasTable t;
    t.build(w, 5);
    EXPECT_EQ(t.fnv1a(), 10634915558257708789ull);
  }
  {
    const double w[4] = {1.0, 1.0, 1.0, 1.0};
    AliasTable t;
    t.build(w, 4);
    EXPECT_EQ(t.fnv1a(), 12705966541108268743ull);
  }
}

TEST(AliasTable, DegenerateWeightsFallBackToUniform) {
  // All-zero weights cannot be normalized; the build degenerates to the
  // uniform table — byte-identical to building from constant weights.
  const double zero[3] = {0.0, 0.0, 0.0};
  const double constant[3] = {7.5, 7.5, 7.5};
  AliasTable a, b;
  a.build(zero, 3);
  b.build(constant, 3);
  EXPECT_EQ(a.fnv1a(), b.fnv1a());
  EXPECT_EQ(a.fnv1a(), 17912034463081593195ull);
  for (index_t i = 0; i < 3; ++i)
    EXPECT_NEAR(a.probability(i), 1.0 / 3.0, 1e-15);
}

TEST(AliasTable, ProbabilitiesMatchNormalizedWeights) {
  const std::vector<double> w = {0.5, 0.0, 3.25, 1.0, 0.25, 12.0, 2.0};
  double total = 0.0;
  for (double v : w) total += v;
  AliasTable t;
  t.build(w.data(), static_cast<index_t>(w.size()));
  double sum = 0.0;
  for (index_t i = 0; i < t.size(); ++i) {
    // Fixed-point quantization: each bucket threshold rounds once in 2^64,
    // so per-index probabilities are exact to ~n/2^64.
    EXPECT_NEAR(t.probability(i), w[static_cast<std::size_t>(i)] / total,
                1e-12)
        << "i=" << i;
    sum += t.probability(i);
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_EQ(t.probability(1), 0.0);  // zero-weight index is never drawn
}

TEST(AliasTable, NegativeAndNanWeightsClampToZero) {
  const double w[4] = {-3.0, std::nan(""), 1.0, 1.0};
  AliasTable t;
  t.build(w, 4);
  EXPECT_EQ(t.probability(0), 0.0);
  EXPECT_EQ(t.probability(1), 0.0);
  EXPECT_NEAR(t.probability(2), 0.5, 1e-12);
  EXPECT_NEAR(t.probability(3), 0.5, 1e-12);
}

TEST(AliasTable, MapHitsOnlyPositiveWeightIndicesAtRoughlyTheRightRate) {
  const std::vector<double> w = {1.0, 0.0, 3.0};
  AliasTable t;
  t.build(w.data(), 3);
  const Philox4x32 gen(123);
  std::vector<int> counts(3, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i)
    ++counts[static_cast<std::size_t>(
        t.map(gen.at(static_cast<std::uint64_t>(i))))];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / kDraws, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / kDraws, 0.75, 0.01);
}

TEST(AliasTable, MapInPlaceEqualsScalarMap) {
  std::vector<double> w(17);
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = static_cast<double>(i % 5) + 0.5;
  AliasTable t;
  t.build(w.data(), static_cast<index_t>(w.size()));

  const Philox4x32 gen(99);
  std::vector<std::uint64_t> bits(301);
  gen.fill_at(7, bits.size(), bits.data());
  // The engine writes raw words through the index buffer's uint64 view and
  // maps in place; replicate that exact aliasing dance.
  std::vector<index_t> batched(bits.size());
  static_assert(sizeof(index_t) == sizeof(std::uint64_t));
  gen.fill_at(7, bits.size(),
              reinterpret_cast<std::uint64_t*>(batched.data()));
  t.map_in_place(batched.data(), batched.size());
  for (std::size_t i = 0; i < bits.size(); ++i)
    ASSERT_EQ(batched[i], t.map(bits[i])) << "i=" << i;
}

// --- raw-bits strided fill (the sampler's batched feed) ---------------------

TEST(PhiloxFill, FillAtStridedMatchesAtForAllParities) {
  const Philox4x32 gen(0xFEEDF00Dull);
  for (std::uint64_t first : {0ull, 1ull, 5ull, 1000ull}) {
    for (std::uint64_t stride : {1ull, 2ull, 3ull, 4ull, 7ull}) {
      std::vector<std::uint64_t> got(257, 0);
      gen.fill_at_strided(first, stride, got.size(), got.data());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], gen.at(first + i * stride))
            << "first=" << first << " stride=" << stride << " i=" << i;
    }
  }
}

// --- DirectionPlan with a sampler -------------------------------------------

TEST(DirectionPlan, WeightedFillMatchesPickAndMapsTheSharedStream) {
  const std::uint64_t seed = 29;
  const index_t n = 41;
  std::vector<double> w(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    w[static_cast<std::size_t>(i)] = 1.0 + static_cast<double>(i % 7);
  AliasTable sampler;
  sampler.build(w.data(), n);
  const Philox4x32 raw(seed);
  for (int team : {1, 2, 4}) {
    const detail::DirectionPlan plan(seed, RandomizationScope::kShared, n,
                                     team, &sampler);
    for (int wk = 0; wk < team; ++wk) {
      const index_t mine = plan.per_sweep(wk);
      for (int sweep = 0; sweep < 4; ++sweep) {
        std::vector<index_t> got(static_cast<std::size_t>(mine));
        plan.fill_in_sweep(wk, sweep, 0, got.size(), got.data());
        for (index_t t = 0; t < mine; ++t) {
          const index_t r = got[static_cast<std::size_t>(t)];
          ASSERT_EQ(r, plan.pick_in_sweep(wk, sweep, t)) << "team=" << team;
          // Worker wk's t-th draw of sweep s reads global position
          // s*n + wk + t*team; every word is mapped through the alias table.
          const std::uint64_t pos = static_cast<std::uint64_t>(
              sweep * n + wk + t * static_cast<index_t>(team));
          ASSERT_EQ(r, sampler.map(raw.at(pos))) << "team=" << team;
        }
      }
    }
  }
}

// --- engine: multiset invariance across worker counts, per policy -----------

/// Instrumented update functor: records every direction each worker runs.
struct RecordingUpdate {
  std::vector<std::vector<index_t>>* per_worker;
  void operator()(int id, index_t r, detail::Lookahead) const {
    (*per_worker)[static_cast<std::size_t>(id)].push_back(r);
  }
};

std::vector<index_t> engine_multiset(ThreadPool& pool,
                                     const SolveControls& base, index_t n,
                                     int workers,
                                     const AliasTable* sampler) {
  SolveControls controls = base;
  controls.workers = workers;
  std::vector<std::vector<index_t>> per_worker(
      static_cast<std::size_t>(workers));
  SolveOutcome out;
  auto residual = [](int, int) { return 0.0; };
  detail::run_engine(
      pool, controls,
      detail::DirectionPlan(controls.seed, controls.scope, n, workers, sampler),
      RecordingUpdate{&per_worker}, residual, out);
  std::vector<index_t> all;
  for (const auto& v : per_worker) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  return all;
}

TEST(SampledEngine, MultisetInvariantAcrossWorkerCountsPerPolicy) {
  ThreadPool pool(4);
  const index_t n = 61;
  SolveControls base;
  base.seed = 57;
  base.sweeps = 30;
  base.sync = SyncMode::kBarrierPerSweep;

  std::vector<double> w(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    w[static_cast<std::size_t>(i)] = 0.25 + static_cast<double>((i * 13) % 9);
  AliasTable weighted;
  weighted.build(w.data(), n);

  // A null table draws uniformly; the weighted one maps every draw.
  for (const AliasTable* s : {static_cast<const AliasTable*>(nullptr),
                              static_cast<const AliasTable*>(&weighted)}) {
    const std::vector<index_t> expected = engine_multiset(pool, base, n, 1, s);
    for (int workers : {2, 4}) {
      EXPECT_EQ(engine_multiset(pool, base, n, workers, s), expected)
          << "policy=" << (s ? "weighted" : "uniform")
          << " workers=" << workers;
    }
  }
}

TEST(SampledEngine, WeightedDrawsFollowTheTable) {
  // Concentrate all weight on one direction: every engine draw lands there.
  ThreadPool pool(2);
  const index_t n = 19;
  std::vector<double> w(static_cast<std::size_t>(n), 0.0);
  w[7] = 1.0;
  AliasTable sampler;
  sampler.build(w.data(), n);
  SolveControls opt;
  opt.seed = 3;
  opt.sweeps = 5;
  opt.sync = SyncMode::kBarrierPerSweep;
  const std::vector<index_t> all =
      engine_multiset(pool, opt, n, 2, &sampler);
  EXPECT_EQ(all.size(),
            static_cast<std::size_t>(n) * static_cast<std::size_t>(5));
  for (index_t r : all) ASSERT_EQ(r, 7);
}

// The plan enforces the weighted-sampler contract in every build type.
TEST(DirectionPlan, RejectsSamplerItCannotDraw) {
  std::vector<double> w(8, 1.0);
  AliasTable weighted;
  weighted.build(w.data(), 8);
  EXPECT_THROW(detail::DirectionPlan(1, RandomizationScope::kShared,
                                     /*n=*/9, 1, &weighted),
               Error);
  EXPECT_THROW(detail::DirectionPlan(1, RandomizationScope::kOwnerComputes,
                                     8, 2, &weighted),
               Error);
  // No table draws uniformly: any scope takes it.
  EXPECT_NO_THROW(detail::DirectionPlan(
      1, RandomizationScope::kOwnerComputes, 8, 2, nullptr));
}

}  // namespace
}  // namespace asyrgs
