// Determinism suite for the batched direction engine (PR 2).
//
// The perf overhaul replaced per-update Philox evaluation with bulk draws,
// runtime atomicity branches with templated kernels, and serial residuals
// with team-parallel reductions.  These tests pin the invariants that
// overhaul promised to preserve:
//  (a) the bulk fill APIs reproduce the random-access primitives
//      draw-for-draw;
//  (b) free-running runs at 1, 2, and 4 workers consume exactly the same
//      direction multiset as the sequential solver after batching;
//  (c) the templated atomic/racy kernels produce bit-identical
//      single-worker results vs. the sequential reference (the old path's
//      observable contract).
//  Plus the owner-computes stream written out, the free-running contract
//  (no residual call, the whole budget reported), one direction sequence
//  per worker in both sync modes (the modes differ only at a sweep's end),
//  the cyclic plan of chaotic relaxation (each sweep a permutation of the
//  rows, each row with one writer), the exact-check schedule of
//  tolerance-stopped barrier runs, driven with a synthetic residual, and the
//  oversubscription heuristic for team-parallel residuals.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "asyrgs/core/engine.hpp"
#include "asyrgs/core/rgs.hpp"
#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/partition.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/problem.hpp"
#include "asyrgs/sampling/direction_sampler.hpp"
#include "asyrgs/support/prng.hpp"

namespace asyrgs {
namespace {

// --- (a) bulk Philox fills reproduce random access ---------------------------

TEST(PhiloxFill, FillAtMatchesAt) {
  const Philox4x32 gen(0xDEADBEEFCAFEull);
  for (std::uint64_t first : {0ull, 1ull, 2ull, 7ull, 123456789ull}) {
    for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{127}, std::size_t{130},
                              std::size_t{1024}}) {
      std::vector<std::uint64_t> got(count + 1, 0);
      gen.fill_at(first, count, got.data());
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(got[i], gen.at(first + i))
            << "first=" << first << " count=" << count << " i=" << i;
    }
  }
}

TEST(PhiloxFill, FillIndicesMatchesIndexAt) {
  const Philox4x32 gen(31);
  for (index_t n : {index_t{1}, index_t{7}, index_t{97}, index_t{120147}}) {
    for (std::uint64_t first : {0ull, 1ull, 5ull, 999999ull}) {
      std::vector<index_t> got(1000, -1);
      gen.fill_indices(first, got.size(), n, got.data());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], gen.index_at(first + i, n))
            << "n=" << n << " first=" << first << " i=" << i;
    }
  }
}

TEST(PhiloxFill, StridedMatchesIndexAtForAllParities) {
  const Philox4x32 gen(77);
  const index_t n = 6007;
  for (std::uint64_t first : {0ull, 1ull, 4ull, 9ull}) {
    for (std::uint64_t stride : {1ull, 2ull, 3ull, 4ull, 5ull, 8ull, 16ull}) {
      std::vector<index_t> got(513, -1);
      gen.fill_indices_strided(first, stride, got.size(), n, got.data());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], gen.index_at(first + i * stride, n))
            << "first=" << first << " stride=" << stride << " i=" << i;
    }
  }
}

TEST(PhiloxFill, ChunkedRefillsEqualOneShot) {
  // Consuming the stream through refills of varying size must equal one
  // contiguous fill (the engine's buffer-boundary behaviour).
  const Philox4x32 gen(5);
  const index_t n = 211;
  std::vector<index_t> oneshot(5000);
  gen.fill_indices(0, oneshot.size(), n, oneshot.data());
  std::vector<index_t> chunked;
  std::uint64_t pos = 0;
  std::size_t next = 1;
  while (chunked.size() < oneshot.size()) {
    const std::size_t take =
        std::min<std::size_t>(next, oneshot.size() - chunked.size());
    std::vector<index_t> buf(take);
    gen.fill_indices(pos, take, n, buf.data());
    chunked.insert(chunked.end(), buf.begin(), buf.end());
    pos += take;
    next = next * 2 + 1;  // 1, 3, 7, ... exercises odd boundaries
  }
  EXPECT_EQ(chunked, oneshot);
}

// --- DirectionPlan batched fills == per-pick specification ------------------

TEST(DirectionPlan, FillMatchesPickSharedScope) {
  const index_t n = 97;
  for (int team : {1, 2, 3, 4, 8}) {
    const detail::DirectionPlan plan(/*seed=*/9, RandomizationScope::kShared,
                                     n, team);
    for (int w = 0; w < team; ++w) {
      std::vector<index_t> got(700);
      plan.fill_in_sweep(w, 2, 1, got.size(), got.data());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], plan.pick_in_sweep(w, 2, 1 + static_cast<index_t>(i)))
            << "team=" << team << " w=" << w << " i=" << i;
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

TEST(DirectionPlan, OwnerComputesDrawsFullWordsFromIdentityCuts) {
  // Owner-computes is the owned-range schedule over `team` identity cuts
  // with no halo: worker w owns chunk_of(n, w, team) and reads its own
  // stream, keyed by w, at position sweep * size + t, reduced by the full
  // 64-bit word.  This writes the stream out, next to the golden hashes.
  const index_t n = 101;
  const std::uint64_t seed = 13;
  for (int team : {1, 2, 4, 128}) {
    const detail::DirectionPlan plan(seed, RandomizationScope::kOwnerComputes,
                                     n, team);
    for (int w = 0; w < team; ++w) {
      const detail::RowChunk range = detail::chunk_of(n, w, team);
      const index_t size = range.hi - range.lo;
      ASSERT_EQ(plan.per_sweep(w), size) << "team=" << team << " w=" << w;
      if (w >= n) {
        ASSERT_EQ(size, 0) << "team=" << team << " w=" << w;
      }
      if (size == 0) continue;
      const Philox4x32 stream(
          splitmix64(seed + 0x9E3779B97F4A7C15ull *
                                static_cast<std::uint64_t>(w + 1)));
      // Sweep s's t-th draw is stream position s * size + t, so the sweeps
      // back to back read the stream in order.
      const std::vector<index_t> got = sweep_draws(plan, w, 300);
      for (std::size_t k = 0; k < got.size(); ++k) {
        ASSERT_GE(got[k], range.lo) << "team=" << team << " w=" << w;
        ASSERT_LT(got[k], range.hi) << "team=" << team << " w=" << w;
        ASSERT_EQ(got[k], range.lo + stream.index_at(k, size))
            << "team=" << team << " w=" << w << " k=" << k;
      }
      const int sweep = 2;
      std::vector<index_t> in_sweep(static_cast<std::size_t>(size));
      plan.fill_in_sweep(w, sweep, 0, in_sweep.size(), in_sweep.data());
      for (index_t t = 0; t < size; ++t) {
        const index_t r = in_sweep[static_cast<std::size_t>(t)];
        ASSERT_GE(r, range.lo) << "team=" << team << " w=" << w;
        ASSERT_LT(r, range.hi) << "team=" << team << " w=" << w;
        ASSERT_EQ(r, plan.pick_in_sweep(w, sweep, t))
            << "team=" << team << " w=" << w;
        ASSERT_EQ(r, range.lo + stream.index_at(static_cast<std::uint64_t>(
                                                    sweep * size + t),
                                                size))
            << "team=" << team << " w=" << w << " t=" << t;
      }
    }
  }
}

// --- (b) direction multiset invariance across worker counts -----------------

std::vector<index_t> sequential_multiset(std::uint64_t seed, index_t n,
                                         int sweeps) {
  const Philox4x32 dirs(seed);
  std::vector<index_t> all(static_cast<std::size_t>(sweeps) *
                           static_cast<std::size_t>(n));
  dirs.fill_indices(0, all.size(), n, all.data());
  std::sort(all.begin(), all.end());
  return all;
}

TEST(DirectionMultiset, PlanTilesTheSequentialStream) {
  const std::uint64_t seed = 21;
  const int sweeps = 50;
  const index_t n = 97;
  const std::vector<index_t> expected = sequential_multiset(seed, n, sweeps);
  for (int team : {1, 2, 4}) {
    const detail::DirectionPlan plan(seed, RandomizationScope::kShared, n,
                                     team);
    std::vector<index_t> all;
    for (int w = 0; w < team; ++w) {
      const std::size_t mine = static_cast<std::size_t>(
          sweeps * plan.per_sweep(w));
      const std::vector<index_t> picks = sweep_draws(plan, w, mine);
      all.insert(all.end(), picks.begin(), picks.end());
    }
    std::sort(all.begin(), all.end());
    EXPECT_EQ(all, expected) << "team=" << team;
  }
}

TEST(DirectionMultiset, BarrierSplitTilesWhenWorkersExceedRows) {
  // Regression: with more workers than rows, the shared-scope per-sweep
  // formula used to hand workers w >= n one update each, consuming stream
  // positions owned by the next sweep twice.
  const std::uint64_t seed = 5;
  const index_t n = 3;
  const Philox4x32 dirs(seed);
  for (int team : {4, 5, 8}) {
    const detail::DirectionPlan plan(seed, RandomizationScope::kShared, n,
                                     team);
    index_t total = 0;
    for (int w = 0; w < team; ++w) {
      if (w >= n) {
        EXPECT_EQ(plan.per_sweep(w), 0) << "team=" << team;
      }
      total += plan.per_sweep(w);
    }
    EXPECT_EQ(total, n) << "team=" << team;
    // Per-sweep splits must tile each sweep's slice of the stream exactly.
    for (int sweep = 0; sweep < 3; ++sweep) {
      std::vector<index_t> all;
      for (int w = 0; w < team; ++w) {
        std::vector<index_t> picks(
            static_cast<std::size_t>(plan.per_sweep(w)));
        plan.fill_in_sweep(w, sweep, 0, picks.size(), picks.data());
        all.insert(all.end(), picks.begin(), picks.end());
      }
      std::vector<index_t> expected(static_cast<std::size_t>(n));
      dirs.fill_indices(static_cast<std::uint64_t>(sweep) *
                            static_cast<std::uint64_t>(n),
                        expected.size(), n, expected.data());
      std::sort(all.begin(), all.end());
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(all, expected) << "team=" << team << " sweep=" << sweep;
    }
  }
}

/// Instrumented update functor: records every direction each worker executes.
struct RecordingUpdate {
  std::vector<std::vector<index_t>>* per_worker;
  void operator()(int id, index_t r, detail::Lookahead) const {
    (*per_worker)[static_cast<std::size_t>(id)].push_back(r);
  }
};

TEST(DirectionMultiset, EngineConsumptionMatchesSequentialAllModes) {
  ThreadPool pool(4);
  const index_t n = 97;
  SolveControls base;
  base.seed = 33;
  base.sweeps = 50;
  const std::vector<index_t> expected =
      sequential_multiset(base.seed, n, base.sweeps);

  for (SyncMode sync : {SyncMode::kFreeRunning, SyncMode::kBarrierPerSweep}) {
    for (int workers : {1, 2, 4}) {
      SolveControls controls = base;
      controls.sync = sync;
      controls.workers = workers;
      std::vector<std::vector<index_t>> per_worker(
          static_cast<std::size_t>(workers));
      SolveOutcome out;
      auto residual = [](int, int) { return 0.0; };
      detail::run_engine(pool, controls,
                         detail::DirectionPlan(controls.seed, controls.scope,
                                               n, workers),
                         RecordingUpdate{&per_worker}, residual, out);
      std::vector<index_t> all;
      for (const auto& v : per_worker) all.insert(all.end(), v.begin(), v.end());
      std::sort(all.begin(), all.end());
      EXPECT_EQ(all, expected)
          << "sync=" << static_cast<int>(sync) << " workers=" << workers;
    }
  }
}

TEST(DirectionMultiset, EngineHandlesMoreWorkersThanRows) {
  ThreadPool pool(8);
  const index_t n = 3;
  SolveControls controls;
  controls.seed = 41;
  controls.sweeps = 20;
  controls.workers = 5;
  const std::vector<index_t> expected =
      sequential_multiset(controls.seed, n, controls.sweeps);
  for (SyncMode sync : {SyncMode::kFreeRunning, SyncMode::kBarrierPerSweep}) {
    controls.sync = sync;
    std::vector<std::vector<index_t>> per_worker(5);
    SolveOutcome out;
    auto residual = [](int, int) { return 0.0; };
    detail::run_engine(pool, controls,
                       detail::DirectionPlan(controls.seed, controls.scope, n,
                                             5),
                       RecordingUpdate{&per_worker}, residual, out);
    std::vector<index_t> all;
    for (const auto& v : per_worker) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(all, expected) << "sync=" << static_cast<int>(sync);
  }
}

// --- free running: no rendezvous, no residual --------------------------------

TEST(FreeRunning, NeverChecksAndReportsTheWholeBudget) {
  // kFreeRunning has no synchronization point, so even with a tolerance and
  // history tracking requested the engine never evaluates a residual.  It
  // runs every worker's whole budget and reports exactly that.
  ThreadPool pool(8);
  struct Case {
    index_t n;
    int workers;
    int sweeps;
  };
  for (const Case c : {Case{97, 1, 20}, Case{97, 3, 20}, Case{97, 3, 0},
                       Case{3, 5, 20}}) {
    for (RandomizationScope scope :
         {RandomizationScope::kShared, RandomizationScope::kOwnerComputes}) {
      SolveControls controls;
      controls.seed = 17;
      controls.sweeps = c.sweeps;
      controls.sync = SyncMode::kFreeRunning;
      controls.scope = scope;
      controls.rel_tol = 1e-3;
      controls.track_history = true;
      std::atomic<long long> updates{0};
      std::atomic<int> residual_calls{0};
      auto update = [&](int, index_t, detail::Lookahead) {
        updates.fetch_add(1, std::memory_order_relaxed);
      };
      auto residual = [&](int, int) {
        residual_calls.fetch_add(1, std::memory_order_relaxed);
        return 0.0;
      };
      SolveOutcome out;
      detail::run_engine(pool, controls,
                         detail::DirectionPlan(controls.seed, controls.scope,
                                               c.n, c.workers),
                         update, residual, out);
      const long long budget = static_cast<long long>(c.sweeps) * c.n;
      const std::string label = "n=" + std::to_string(c.n) +
                                " workers=" + std::to_string(c.workers) +
                                " sweeps=" + std::to_string(c.sweeps) +
                                " scope=" +
                                std::to_string(static_cast<int>(scope));
      EXPECT_EQ(residual_calls.load(), 0) << label;
      EXPECT_TRUE(out.residual_history.empty()) << label;
      EXPECT_EQ(out.status, SolveStatus::kBudgetCompleted) << label;
      EXPECT_EQ(out.iterations, c.sweeps) << label;
      EXPECT_EQ(out.updates, budget) << label;
      EXPECT_EQ(updates.load(), budget) << label;
      EXPECT_EQ(out.workers, c.workers) << label;
    }
  }
}

// --- one loop: both sync modes run the same sequence per worker -------------

/// Each worker's directions, in execution order, over a run of `plan`.
std::vector<std::vector<index_t>> worker_sequences(
    ThreadPool& pool, const detail::DirectionPlan& plan, SyncMode sync,
    int sweeps) {
  SolveControls controls;
  controls.sweeps = sweeps;
  controls.sync = sync;
  std::vector<std::vector<index_t>> per_worker(
      static_cast<std::size_t>(plan.team()));
  SolveOutcome out;
  auto residual = [](int, int) { return 0.0; };
  detail::run_engine(pool, controls, plan, RecordingUpdate{&per_worker},
                     residual, out);
  EXPECT_EQ(out.workers, plan.team());
  return per_worker;
}

TEST(SyncModes, EveryWorkerRunsTheSameDirectionSequence) {
  // The sync modes differ only at the end of a sweep, so worker w executes
  // its per-sweep split of every sweep, in order, under either — for every
  // plan shape, and for the shared stream at team sizes that do not divide
  // n (97 is prime).
  ThreadPool pool(4);
  const index_t n = 97;
  const std::uint64_t seed = 61;
  const int sweeps = 5;
  std::vector<double> weights(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    weights[static_cast<std::size_t>(i)] = 1.0 + static_cast<double>(i % 5);
  AliasTable weighted;
  weighted.build(weights.data(), n);
  // Four ranges of a path graph, each with its one-row halos.
  auto cut = std::make_shared<GraphPartition>();
  cut->lo = {0, 25, 50, 75, 97};
  cut->halo = {{25}, {24, 50}, {49, 75}, {74}};
  for (int team : {2, 3, 4}) {
    using RS = RandomizationScope;
    const std::vector<std::pair<const char*, detail::DirectionPlan>> plans = {
        {"shared", detail::DirectionPlan(seed, RS::kShared, n, team)},
        {"weighted",
         detail::DirectionPlan(seed, RS::kShared, n, team, &weighted)},
        {"owner-computes",
         detail::DirectionPlan(seed, RS::kOwnerComputes, n, team)},
        {"partitioned", detail::DirectionPlan(seed, cut, 0.25, team)},
        {"cyclic shared", detail::DirectionPlan::cyclic(RS::kShared, n, team)},
        {"cyclic owned",
         detail::DirectionPlan::cyclic(RS::kOwnerComputes, n, team)}};
    for (const auto& [name, plan] : plans) {
      const auto free_running =
          worker_sequences(pool, plan, SyncMode::kFreeRunning, sweeps);
      const auto barrier =
          worker_sequences(pool, plan, SyncMode::kBarrierPerSweep, sweeps);
      for (int w = 0; w < team; ++w) {
        const std::vector<index_t> expected = sweep_draws(
            plan, w, static_cast<std::size_t>(sweeps * plan.per_sweep(w)));
        const std::size_t id = static_cast<std::size_t>(w);
        EXPECT_EQ(barrier[id], expected)
            << name << " team=" << team << " w=" << w;
        EXPECT_EQ(free_running[id], expected)
            << name << " team=" << team << " w=" << w;
      }
    }
  }
}

// --- cyclic plans: chaotic relaxation's fixed order --------------------------

constexpr RandomizationScope kScopes[] = {RandomizationScope::kShared,
                                          RandomizationScope::kOwnerComputes};

/// Worker w's rows in sweep `sweep` of `plan`, batched.
std::vector<index_t> sweep_rows(const detail::DirectionPlan& plan, int w,
                                int sweep) {
  std::vector<index_t> rows(static_cast<std::size_t>(plan.per_sweep(w)));
  plan.fill_in_sweep(w, sweep, 0, rows.size(), rows.data());
  return rows;
}

/// The rows a cyclic plan gives worker w: w, w+P, ... (kShared) or
/// chunk_of(n, w, P) (kOwnerComputes), ascending.
std::vector<index_t> owned_rows(RandomizationScope scope, index_t n, int w,
                                int team) {
  std::vector<index_t> rows;
  if (scope == RandomizationScope::kShared) {
    for (index_t r = w; r < n; r += team) rows.push_back(r);
  } else {
    const detail::RowChunk c = detail::chunk_of(n, w, team);
    for (index_t r = c.lo; r < c.hi; ++r) rows.push_back(r);
  }
  return rows;
}

TEST(CyclicPlan, EverySweepVisitsEachWorkersOwnedRowsInOrder) {
  // Plan objects only: each sweep's team draws are a permutation of [0, n),
  // worker w's rows are its owned rows, ascending, the same every sweep;
  // and the single-pick form agrees.
  const int sweeps = 3;
  for (index_t n : {index_t{1}, index_t{7}, index_t{101}}) {
    for (int team : {1, 3, 4, 128}) {
      for (RandomizationScope scope : kScopes) {
        const detail::DirectionPlan plan =
            detail::DirectionPlan::cyclic(scope, n, team);
        const std::string label =
            "n=" + std::to_string(n) + " team=" + std::to_string(team) +
            " scope=" + std::to_string(static_cast<int>(scope));
        ASSERT_EQ(plan.team(), team) << label;
        ASSERT_EQ(plan.directions(), n) << label;
        for (int sweep = 0; sweep < sweeps; ++sweep) {
          std::vector<int> visits(static_cast<std::size_t>(n), 0);
          for (int w = 0; w < team; ++w) {
            const std::vector<index_t> rows = sweep_rows(plan, w, sweep);
            ASSERT_EQ(rows, owned_rows(scope, n, w, team))
                << label << " w=" << w << " sweep=" << sweep;
            for (std::size_t t = 0; t < rows.size(); ++t) {
              ASSERT_EQ(rows[t], plan.pick_in_sweep(w, sweep,
                                                    static_cast<index_t>(t)))
                  << label << " w=" << w << " t=" << t;
              ++visits[static_cast<std::size_t>(rows[t])];
            }
          }
          ASSERT_EQ(visits, std::vector<int>(static_cast<std::size_t>(n), 1))
              << label << " sweep=" << sweep;
        }
      }
    }
  }
}

TEST(CyclicPlan, ForTeamReplansTheOwnedRows) {
  for (RandomizationScope scope : kScopes) {
    for (index_t n : {index_t{7}, index_t{101}}) {
      const detail::DirectionPlan plan =
          detail::DirectionPlan::cyclic(scope, n, 4);
      for (int team : {1, 3}) {
        const detail::DirectionPlan replanned = plan.for_team(team);
        ASSERT_EQ(replanned.team(), team);
        for (int w = 0; w < team; ++w) {
          EXPECT_EQ(sweep_rows(replanned, w, 1), owned_rows(scope, n, w, team))
              << "n=" << n << " team=" << team << " w=" << w
              << " scope=" << static_cast<int>(scope);
        }
      }
    }
  }
}

TEST(CyclicPlan, EngineUpdatesEveryRowOncePerSweepFromOneWorker) {
  // Through run_engine in both sync modes: each row is updated exactly
  // `sweeps` times, always by the worker that owns it.
  ThreadPool pool(4);
  const index_t n = 101;
  const int sweeps = 7;
  for (RandomizationScope scope : kScopes) {
    for (int team : {1, 3}) {
      for (SyncMode sync :
           {SyncMode::kFreeRunning, SyncMode::kBarrierPerSweep}) {
        const std::string label = "team=" + std::to_string(team) +
                                  " scope=" +
                                  std::to_string(static_cast<int>(scope)) +
                                  " sync=" +
                                  std::to_string(static_cast<int>(sync));
        SolveControls controls;
        controls.sweeps = sweeps;
        controls.sync = sync;
        std::vector<std::vector<index_t>> per_worker(
            static_cast<std::size_t>(team));
        SolveOutcome out;
        auto residual = [](int, int) { return 0.0; };
        detail::run_engine(pool, controls,
                           detail::DirectionPlan::cyclic(scope, n, team),
                           RecordingUpdate{&per_worker}, residual, out);
        EXPECT_EQ(out.updates, static_cast<long long>(sweeps) * n) << label;
        EXPECT_EQ(out.iterations, sweeps) << label;
        std::vector<int> writer(static_cast<std::size_t>(n), -1);
        std::vector<int> updates(static_cast<std::size_t>(n), 0);
        for (int w = 0; w < team; ++w) {
          for (index_t r : per_worker[static_cast<std::size_t>(w)]) {
            int& owner = writer[static_cast<std::size_t>(r)];
            if (owner == -1) owner = w;
            ASSERT_EQ(owner, w) << label << " row=" << r;
            ++updates[static_cast<std::size_t>(r)];
          }
        }
        EXPECT_EQ(updates,
                  std::vector<int>(static_cast<std::size_t>(n), sweeps))
            << label;
      }
    }
  }
}

// --- (c) templated kernels: single-worker bit-exactness ---------------------

TEST(KernelBitExactness, AtomicSingleWorkerEqualsSequential) {
  // The 9x9 grid's sweep fits one refill chunk.  The 40x40 grid's 1600
  // directions span two chunks of kDirectionChunk, and the 1x3 path is
  // shorter than the kernel's prefetch distance, so the engine's lookahead
  // clamps to the chunk's last entry mid-sweep and on every update.
  ThreadPool pool(4);
  for (const auto& [nx, ny] : {std::pair<index_t, index_t>{9, 9},
                               std::pair<index_t, index_t>{40, 40},
                               std::pair<index_t, index_t>{1, 3}}) {
    const CsrMatrix a = laplacian_2d(nx, ny);
    const std::vector<double> b = random_vector(a.rows(), 3);

    RgsOptions seq;
    seq.sweeps = 40;
    seq.seed = 123;
    std::vector<double> x_seq(a.rows(), 0.0);
    rgs_solve(a, b, x_seq, seq);

    for (SyncMode sync :
         {SyncMode::kFreeRunning, SyncMode::kBarrierPerSweep}) {
      std::vector<double> x_async(a.rows(), 0.0);
      SolveControls opt;
      opt.method = SpdMethod::kAsyncRgs;
      opt.sweeps = 40;
      opt.seed = 123;
      opt.workers = 1;
      opt.sync = sync;
      SpdProblem(pool, a, /*check_input=*/false).solve(b, x_async, opt);
      EXPECT_EQ(x_seq, x_async)
          << "n=" << a.rows() << " sync=" << static_cast<int>(sync);
    }
  }
}

TEST(KernelBitExactness, RacySingleWorkerEqualsAtomicSingleWorker) {
  // With one worker there are no races, so the racy kernel must follow the
  // identical arithmetic path as the atomic one.
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> b = random_vector(a.rows(), 5);
  std::vector<double> x_atomic(a.rows(), 0.0);
  std::vector<double> x_racy(a.rows(), 0.0);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 30;
  opt.seed = 7;
  opt.workers = 1;
  SpdProblem(pool, a, /*check_input=*/false).solve(b, x_atomic, opt);
  opt.atomic_writes = false;
  SpdProblem(pool, a, /*check_input=*/false).solve(b, x_racy, opt);
  EXPECT_EQ(x_atomic, x_racy);
}

TEST(KernelBitExactness, BlockSingleWorkerEqualsSequentialBlock) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(7, 7);
  const MultiVector b = random_multivector(a.rows(), 3, 11);

  RgsOptions seq;
  seq.sweeps = 25;
  seq.seed = 77;
  MultiVector x_seq(a.rows(), 3);
  rgs_solve_block(a, b, x_seq, seq);

  MultiVector x_async(a.rows(), 3);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 25;
  opt.seed = 77;
  opt.workers = 1;
  SpdProblem(pool, a, /*check_input=*/false).solve(b, x_async, opt);

  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t c = 0; c < 3; ++c)
      ASSERT_EQ(x_seq.at(i, c), x_async.at(i, c)) << i << "," << c;
}

// --- exact-check schedule of tolerance-stopped barrier runs ------------------

/// Counts updates, so a synthetic residual can read the sweep off them.
struct CountingUpdate {
  long long* updates;
  void operator()(int, index_t, detail::Lookahead) const { ++*updates; }
};

/// A 1-worker kBarrierPerSweep engine run whose residual after sweep s is
/// value(s), with the sweep of every residual call recorded.
struct SyntheticRun {
  SolveOutcome report;
  std::vector<int> checked;
};

template <typename Value>
SyntheticRun run_synthetic(SolveControls controls, Value value) {
  ThreadPool pool(1);
  const index_t n = 8;
  controls.sync = SyncMode::kBarrierPerSweep;
  controls.workers = 1;
  long long updates = 0;
  SyntheticRun run;
  auto residual = [&](int, int) {
    const int sweep = static_cast<int>(updates / n);
    run.checked.push_back(sweep);
    return value(sweep);
  };
  detail::run_engine(pool, controls,
                     detail::DirectionPlan(controls.seed, controls.scope, n, 1),
                     CountingUpdate{&updates}, residual, run.report);
  return run;
}

/// First sweep s >= 1 with q^s <= tol.
int first_crossing(double q, double tol) {
  int s = 1;
  while (std::pow(q, s) > tol) ++s;
  return s;
}

TEST(CheckSchedule, StopsOnTheFirstSweepBelowToleranceWithFewChecks) {
  struct Case {
    double q, tol;
  };
  for (const Case c : {Case{0.5, 1e-6}, Case{0.8, 1e-3}, Case{0.9, 1e-3},
                       Case{0.97, 1e-6}}) {
    SolveControls opt;
    opt.sweeps = 100000;
    opt.rel_tol = c.tol;
    const SyntheticRun run =
        run_synthetic(opt, [&](int s) { return std::pow(c.q, s); });
    const int crossing = first_crossing(c.q, c.tol);
    EXPECT_TRUE(run.report.converged()) << "q=" << c.q;
    EXPECT_EQ(run.report.iterations, crossing) << "q=" << c.q;
    EXPECT_EQ(run.report.relative_residual, std::pow(c.q, crossing));
    ASSERT_GE(run.checked.size(), 2u);
    EXPECT_EQ(run.checked[0], 1);
    EXPECT_EQ(run.checked[1], 2);
    EXPECT_EQ(run.checked.back(), crossing);
    EXPECT_LE(run.checked.size() * 4, static_cast<std::size_t>(crossing))
        << "q=" << c.q << " checks=" << run.checked.size();
  }
}

TEST(CheckSchedule, TrackHistoryChecksEverySweep) {
  SolveControls opt;
  opt.sweeps = 100000;
  opt.rel_tol = 1e-3;
  opt.track_history = true;
  const SyntheticRun run =
      run_synthetic(opt, [](int s) { return std::pow(0.9, s); });
  const int crossing = first_crossing(0.9, 1e-3);
  EXPECT_TRUE(run.report.converged());
  EXPECT_EQ(run.report.iterations, crossing);
  ASSERT_EQ(run.report.residual_history.size(),
            static_cast<std::size_t>(run.report.iterations));
  ASSERT_EQ(run.checked.size(), static_cast<std::size_t>(crossing));
  for (int s = 1; s <= crossing; ++s) {
    EXPECT_EQ(run.checked[static_cast<std::size_t>(s - 1)], s);
    EXPECT_EQ(run.report.residual_history[static_cast<std::size_t>(s - 1)],
              std::pow(0.9, s));
  }
}

TEST(CheckSchedule, NonShrinkingResidualWaitsAtMostTheGapAndChecksTheLastSweep) {
  const std::vector<std::pair<const char*, double (*)(int)>> shapes = {
      {"flat", [](int) { return 1.0; }},
      {"rising", [](int s) { return std::pow(1.01, s); }},
      {"nan", [](int) { return std::nan(""); }}};
  for (const auto& [name, value] : shapes) {
    for (int sweeps : {1, 2, 3, 19, 100}) {
      SolveControls opt;
      opt.sweeps = sweeps;
      opt.rel_tol = 1e-3;
      const SyntheticRun run = run_synthetic(opt, value);
      EXPECT_FALSE(run.report.converged()) << name;
      EXPECT_EQ(run.report.iterations, sweeps) << name;
      ASSERT_FALSE(run.checked.empty()) << name;
      EXPECT_EQ(run.checked.front(), 1) << name;
      EXPECT_EQ(run.checked.back(), sweeps) << name << " sweeps=" << sweeps;
      for (std::size_t i = 1; i < run.checked.size(); ++i) {
        EXPECT_GT(run.checked[i], run.checked[i - 1]) << name;
        EXPECT_LE(run.checked[i] - run.checked[i - 1], detail::kMaxCheckGap)
            << name << " sweeps=" << sweeps;
      }
    }
  }
}

TEST(CheckSchedule, PredictionPastTheBudgetChecksTheLastSweep) {
  SolveControls opt;
  opt.sweeps = 10;
  opt.rel_tol = 1e-3;  // crossed at sweep 66, past the budget
  const SyntheticRun run =
      run_synthetic(opt, [](int s) { return std::pow(0.9, s); });
  EXPECT_FALSE(run.report.converged());
  EXPECT_EQ(run.checked, (std::vector<int>{1, 2, 10}));
  EXPECT_EQ(run.report.relative_residual, std::pow(0.9, 10));
}

TEST(CheckSchedule, IntMaxBudgetSchedulesWithoutOverflow) {
  // The next-check arithmetic must stay inside int next to an INT_MAX
  // budget (the UBSan job runs this).
  SolveControls opt;
  opt.sweeps = std::numeric_limits<int>::max();
  opt.rel_tol = 1e-3;
  const SyntheticRun run =
      run_synthetic(opt, [](int s) { return std::pow(0.9, s); });
  EXPECT_TRUE(run.report.converged());
  EXPECT_EQ(run.report.iterations, first_crossing(0.9, 1e-3));
  EXPECT_EQ(detail::next_check_sweep(std::numeric_limits<int>::max() - 3, 0.5,
                                     1.0, 1e-300, opt.sweeps),
            std::numeric_limits<int>::max());
}

// --- team-parallel residual -------------------------------------------------

TEST(TeamReduction, ResidualValuesAgreeAcrossWorkerCounts) {
  // The reported residual, reduced across the team, must match the serial
  // ground truth to reduction-rounding accuracy at every team size.
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(10, 10);
  const std::vector<double> x_star = random_vector(a.rows(), 6);
  const std::vector<double> b = rhs_from_solution(a, x_star);
  double residual_1 = -1.0;
  for (int workers : {1, 4}) {
    std::vector<double> x(a.rows(), 0.0);
    SolveControls opt;
    opt.method = SpdMethod::kAsyncRgs;
    opt.sweeps = 25;
    opt.seed = 77;
    opt.workers = workers;
    opt.sync = SyncMode::kBarrierPerSweep;
    opt.track_history = true;
    const SolveOutcome rep =
        SpdProblem(pool, a, /*check_input=*/false).solve(b, x, opt);
    ASSERT_EQ(rep.residual_history.size(),
              static_cast<std::size_t>(rep.iterations));
    // Different worker counts interleave updates differently, so compare
    // each report against its own iterate, not across runs.
    std::vector<double> r(a.rows());
    a.multiply(x.data(), r.data());
    double num = 0.0, den = 0.0;
    for (index_t i = 0; i < a.rows(); ++i) {
      const double ri = b[i] - r[i];
      num += ri * ri;
      den += b[i] * b[i];
    }
    const double expect = std::sqrt(num) / std::sqrt(den);
    EXPECT_NEAR(rep.relative_residual, expect, 1e-12 + 1e-9 * expect)
        << "workers=" << workers;
    if (workers == 1) residual_1 = rep.relative_residual;
  }
  EXPECT_GE(residual_1, 0.0);
}

}  // namespace
}  // namespace asyrgs
