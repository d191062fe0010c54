// Sampling subsystem tests (sampling/direction_sampler.hpp + the engine's
// sampled entry point): alias-table build determinism (golden hashes),
// probability exactness, the raw-bits strided fill, uniform-policy
// bit-identity with the pre-sampling draw path, and the load-bearing
// engine invariant — the direction multiset of a fixed (seed, policy) run
// is identical at 1, 2, and 4 workers for every sampling policy.
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

// --- DirectionSampler --------------------------------------------------------

TEST(DirectionSampler, UniformPolicyReportsNoWeightedDraws) {
  const DirectionSampler s = DirectionSampler::uniform(10);
  EXPECT_EQ(s.policy(), SamplingPolicy::kUniform);
  EXPECT_EQ(s.directions(), 10);
  EXPECT_FALSE(s.weighted_draws());
}

TEST(DirectionSampler, MapInPlaceEqualsScalarMap) {
  std::vector<double> w(17);
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = static_cast<double>(i % 5) + 0.5;
  const DirectionSampler s =
      DirectionSampler::weighted(w.data(), static_cast<index_t>(w.size()));
  EXPECT_TRUE(s.weighted_draws());
  EXPECT_EQ(s.rebuilds(), 1);

  const Philox4x32 gen(99);
  std::vector<std::uint64_t> bits(301);
  gen.fill_at(7, bits.size(), bits.data());
  // The engine writes raw words through the index buffer's uint64 view and
  // maps in place; replicate that exact aliasing dance.
  std::vector<index_t> batched(bits.size());
  static_assert(sizeof(index_t) == sizeof(std::uint64_t));
  gen.fill_at(7, bits.size(),
              reinterpret_cast<std::uint64_t*>(batched.data()));
  s.map_in_place(batched.data(), batched.size());
  for (std::size_t i = 0; i < bits.size(); ++i)
    ASSERT_EQ(batched[i], s.map(bits[i])) << "i=" << i;
}

TEST(DirectionSampler, RebuildCountsAndChangesTheTable) {
  std::vector<double> w = {1.0, 1.0, 1.0, 1.0};
  DirectionSampler s = DirectionSampler::residual(w.data(), 4);
  EXPECT_EQ(s.policy(), SamplingPolicy::kResidual);
  EXPECT_EQ(s.rebuilds(), 1);
  const std::uint64_t before = s.table().fnv1a();
  w = {0.0, 0.0, 10.0, 0.0};
  s.rebuild(w.data(), 4);
  EXPECT_EQ(s.rebuilds(), 2);
  EXPECT_NE(s.table().fnv1a(), before);
  // Concentrated weights: every draw maps to index 2.
  const Philox4x32 gen(3);
  for (int i = 0; i < 100; ++i)
    ASSERT_EQ(s.map(gen.at(static_cast<std::uint64_t>(i))), 2);
}

// --- DirectionPlan with a sampler -------------------------------------------

TEST(DirectionPlan, UniformSamplerIsBitIdenticalToNoSampler) {
  const std::uint64_t seed = 17;
  const index_t n = 53;
  const DirectionSampler uniform = DirectionSampler::uniform(n);
  for (int team : {1, 2, 4}) {
    const detail::DirectionPlan bare(seed, RandomizationScope::kShared, n,
                                     team);
    const detail::DirectionPlan sampled(seed, RandomizationScope::kShared, n,
                                        team, &uniform);
    for (int w = 0; w < team; ++w) {
      std::vector<index_t> a(400), b(400);
      bare.fill(w, 0, a.size(), a.data());
      sampled.fill(w, 0, b.size(), b.data());
      ASSERT_EQ(a, b) << "team=" << team << " w=" << w;
      for (std::size_t i = 0; i < 64; ++i)
        ASSERT_EQ(bare.pick(w, i), sampled.pick(w, i));
    }
  }
}

TEST(DirectionPlan, WeightedFillMatchesPickAndMapsTheSharedStream) {
  const std::uint64_t seed = 29;
  const index_t n = 41;
  std::vector<double> w(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    w[static_cast<std::size_t>(i)] = 1.0 + static_cast<double>(i % 7);
  const DirectionSampler sampler = DirectionSampler::weighted(w.data(), n);
  const Philox4x32 raw(seed);
  for (int team : {1, 2, 4}) {
    const detail::DirectionPlan plan(seed, RandomizationScope::kShared, n,
                                     team, &sampler);
    for (int wk = 0; wk < team; ++wk) {
      std::vector<index_t> got(300);
      plan.fill(wk, 2, got.size(), got.data());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], plan.pick(wk, 2 + i)) << "team=" << team;
        // Worker wk consumes global positions wk + j * team; every word is
        // mapped through the alias table.
        const std::uint64_t pos =
            static_cast<std::uint64_t>(wk) + (2 + i) * team;
        ASSERT_EQ(got[i], sampler.map(raw.at(pos))) << "team=" << team;
      }
    }
  }
}

// --- engine: multiset invariance across worker counts, per policy -----------

/// Instrumented update functor: records every direction each worker runs.
struct RecordingUpdate {
  std::vector<std::vector<index_t>>* per_worker;
  void operator()(int id, index_t r, index_t) const {
    (*per_worker)[static_cast<std::size_t>(id)].push_back(r);
  }
};

std::vector<index_t> engine_multiset(ThreadPool& pool,
                                     const SolveControls& base, index_t n,
                                     int workers,
                                     const detail::EngineSampling& sampling) {
  SolveControls controls = base;
  controls.workers = workers;
  std::vector<std::vector<index_t>> per_worker(
      static_cast<std::size_t>(workers));
  SolveOutcome out;
  auto residual = [](int, int) { return 0.0; };
  detail::run_engine_sampled(pool, controls, n, workers, sampling,
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
  const DirectionSampler uniform = DirectionSampler::uniform(n);
  const DirectionSampler weighted = DirectionSampler::weighted(w.data(), n);

  for (const DirectionSampler* s : {static_cast<const DirectionSampler*>(
                                        nullptr),
                                    &uniform, &weighted}) {
    detail::EngineSampling sampling;
    sampling.sampler = s;
    const std::vector<index_t> expected =
        engine_multiset(pool, base, n, 1, sampling);
    for (int workers : {2, 4}) {
      EXPECT_EQ(engine_multiset(pool, base, n, workers, sampling), expected)
          << "policy="
          << (s ? to_string(s->policy()) : "null") << " workers=" << workers;
    }
  }
}

TEST(SampledEngine, ResidualRefreshIsDeterministicAndWorkerCountInvariant) {
  // A refresh whose inputs do not depend on the iterate (here: weights
  // keyed by the rendezvous counter) must keep the multiset invariant
  // across worker counts — refreshes happen at the same global stream
  // boundaries (sweep ends) for every team size.
  ThreadPool pool(4);
  const index_t n = 37;
  SolveControls base;
  base.seed = 91;
  base.sweeps = 24;
  base.sync = SyncMode::kBarrierPerSweep;

  const auto make = [n](DirectionSampler& sampler,
                        detail::EngineSampling& sampling, int period) {
    sampling.sampler = &sampler;
    sampling.refresh = [&sampler, n, period, calls = 0]() mutable {
      if (++calls % period != 0) return;
      std::vector<double> w(static_cast<std::size_t>(n));
      for (index_t i = 0; i < n; ++i)
        w[static_cast<std::size_t>(i)] =
            1.0 + static_cast<double>((i + calls) % 5);
      sampler.rebuild(w.data(), n);
    };
  };

  std::vector<double> w0(static_cast<std::size_t>(n), 1.0);
  DirectionSampler s1 = DirectionSampler::residual(w0.data(), n);
  detail::EngineSampling sampling1;
  make(s1, sampling1, 4);
  const std::vector<index_t> expected =
      engine_multiset(pool, base, n, 1, sampling1);
  EXPECT_GT(s1.rebuilds(), 1);  // the refresh hook actually fired

  for (int workers : {2, 4}) {
    DirectionSampler s = DirectionSampler::residual(w0.data(), n);
    detail::EngineSampling sampling;
    make(s, sampling, 4);
    EXPECT_EQ(engine_multiset(pool, base, n, workers, sampling), expected)
        << "workers=" << workers;
  }

  // And the whole construction is reproducible: a fresh identical run
  // yields the identical multiset.
  DirectionSampler s2 = DirectionSampler::residual(w0.data(), n);
  detail::EngineSampling sampling2;
  make(s2, sampling2, 4);
  EXPECT_EQ(engine_multiset(pool, base, n, 1, sampling2), expected);
}

TEST(SampledEngine, WeightedDrawsFollowTheTable) {
  // Concentrate all weight on one direction: every engine draw lands there.
  ThreadPool pool(2);
  const index_t n = 19;
  std::vector<double> w(static_cast<std::size_t>(n), 0.0);
  w[7] = 1.0;
  const DirectionSampler sampler = DirectionSampler::weighted(w.data(), n);
  detail::EngineSampling sampling;
  sampling.sampler = &sampler;
  SolveControls opt;
  opt.seed = 3;
  opt.sweeps = 5;
  opt.sync = SyncMode::kBarrierPerSweep;
  const std::vector<index_t> all =
      engine_multiset(pool, opt, n, 2, sampling);
  EXPECT_EQ(all.size(),
            static_cast<std::size_t>(n) * static_cast<std::size_t>(5));
  for (index_t r : all) ASSERT_EQ(r, 7);
}

TEST(SampledEngine, RejectsRefreshUnderFreeRunning) {
  // Residual refresh needs the rendezvous barriers' happens-before edge;
  // the engine refuses the combination outright.
  ThreadPool pool(2);
  const index_t n = 11;
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  DirectionSampler sampler = DirectionSampler::residual(w.data(), n);
  detail::EngineSampling sampling;
  sampling.sampler = &sampler;
  sampling.refresh = [] {};
  SolveControls opt;
  opt.seed = 1;
  opt.sweeps = 2;
  opt.sync = SyncMode::kFreeRunning;
  std::vector<std::vector<index_t>> per_worker(1);
  SolveOutcome out;
  auto residual = [](int, int) { return 0.0; };
  EXPECT_THROW(detail::run_engine_sampled(pool, opt, n, 1, sampling,
                                          RecordingUpdate{&per_worker},
                                          residual, out),
               Error);
}

TEST(SampledEngine, RejectsSamplerSizeMismatch) {
  ThreadPool pool(2);
  std::vector<double> w(8, 1.0);
  const DirectionSampler sampler = DirectionSampler::weighted(w.data(), 8);
  detail::EngineSampling sampling;
  sampling.sampler = &sampler;
  SolveControls opt;
  opt.seed = 1;
  opt.sweeps = 2;
  opt.sync = SyncMode::kBarrierPerSweep;
  std::vector<std::vector<index_t>> per_worker(1);
  SolveOutcome out;
  auto residual = [](int, int) { return 0.0; };
  EXPECT_THROW(detail::run_engine_sampled(pool, opt, /*n=*/9, 1, sampling,
                                          RecordingUpdate{&per_worker},
                                          residual, out),
               Error);
}

}  // namespace
}  // namespace asyrgs
