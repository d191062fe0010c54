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
//  Plus the exact-check schedule of tolerance-stopped barrier runs, driven
//  with a synthetic residual, and the oversubscription heuristic for
//  team-parallel residuals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "asyrgs/core/engine.hpp"
#include "asyrgs/core/rgs.hpp"
#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/problem.hpp"
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
      plan.fill(w, 3, got.size(), got.data());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], plan.pick(w, 3 + i))
            << "team=" << team << " w=" << w << " i=" << i;
      plan.fill_in_sweep(w, 2, 1, got.size(), got.data());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], plan.pick_in_sweep(w, 2, 1 + static_cast<index_t>(i)))
            << "team=" << team << " w=" << w << " i=" << i;
    }
  }
}

TEST(DirectionPlan, FillMatchesPickOwnerComputes) {
  const index_t n = 101;
  for (int team : {1, 2, 4}) {
    const detail::DirectionPlan plan(
        /*seed=*/13, RandomizationScope::kOwnerComputes, n, team);
    for (int w = 0; w < team; ++w) {
      std::vector<index_t> got(300);
      plan.fill(w, 0, got.size(), got.data());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], plan.pick(w, i))
            << "team=" << team << " w=" << w << " i=" << i;
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
      const std::uint64_t mine = plan.total_updates(w, sweeps);
      std::vector<index_t> picks(static_cast<std::size_t>(mine));
      plan.fill(w, 0, picks.size(), picks.data());
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
  void operator()(int id, index_t r, index_t) const {
    (*per_worker)[static_cast<std::size_t>(id)].push_back(r);
  }
};

TEST(DirectionMultiset, EngineConsumptionMatchesSequentialAllModes) {
  ThreadPool pool(4);
  const index_t n = 97;
  SolveControls base;
  base.seed = 33;
  base.sweeps = 50;
  base.sync_interval_seconds = 0.005;
  const std::vector<index_t> expected =
      sequential_multiset(base.seed, n, base.sweeps);

  for (SyncMode sync : {SyncMode::kFreeRunning, SyncMode::kBarrierPerSweep,
                        SyncMode::kTimedBarrier}) {
    for (int workers : {1, 2, 4}) {
      SolveControls controls = base;
      controls.sync = sync;
      controls.workers = workers;
      std::vector<std::vector<index_t>> per_worker(
          static_cast<std::size_t>(workers));
      SolveOutcome out;
      auto residual = [](int, int) { return 0.0; };
      detail::run_engine_sampled(pool, controls, n, workers,
                                 detail::EngineSampling{},
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
    detail::run_engine_sampled(pool, controls, n, 5, detail::EngineSampling{},
                               RecordingUpdate{&per_worker}, residual, out);
    std::vector<index_t> all;
    for (const auto& v : per_worker) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(all, expected) << "sync=" << static_cast<int>(sync);
  }
}

// --- (c) templated kernels: single-worker bit-exactness ---------------------

TEST(KernelBitExactness, AtomicSingleWorkerEqualsSequential) {
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(9, 9);
  const std::vector<double> b = random_vector(a.rows(), 3);

  RgsOptions seq;
  seq.sweeps = 40;
  seq.seed = 123;
  std::vector<double> x_seq(a.rows(), 0.0);
  rgs_solve(a, b, x_seq, seq);

  for (SyncMode sync : {SyncMode::kFreeRunning, SyncMode::kBarrierPerSweep}) {
    std::vector<double> x_async(a.rows(), 0.0);
    SolveControls opt;
    opt.method = SpdMethod::kAsyncRgs;
    opt.sweeps = 40;
    opt.seed = 123;
    opt.workers = 1;
    opt.sync = sync;
    SpdProblem(pool, a, /*check_input=*/false).solve(b, x_async, opt);
    EXPECT_EQ(x_seq, x_async) << "sync=" << static_cast<int>(sync);
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
  void operator()(int, index_t, index_t) const { ++*updates; }
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
  detail::run_engine_sampled(pool, controls, n, 1, detail::EngineSampling{},
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

// --- team-residual oversubscription heuristic --------------------------------

TEST(TeamResidualHeuristic, SerialOnlyWhenOversubscribed) {
  // Parallel residual whenever the host can actually schedule the team...
  EXPECT_TRUE(detail::team_residual_profitable(4, 4));
  EXPECT_TRUE(detail::team_residual_profitable(4, 8));
  EXPECT_TRUE(detail::team_residual_profitable(2, 2));
  // ...or the hardware count is unknown (0), or the team is trivial.
  EXPECT_TRUE(detail::team_residual_profitable(4, 0));
  EXPECT_TRUE(detail::team_residual_profitable(1, 1));
  EXPECT_TRUE(detail::team_residual_profitable(0, 1));
  // Serial fallback exactly when workers outnumber hardware threads.
  EXPECT_FALSE(detail::team_residual_profitable(2, 1));
  EXPECT_FALSE(detail::team_residual_profitable(4, 1));
  EXPECT_FALSE(detail::team_residual_profitable(8, 4));
}

TEST(TeamResidualHeuristic, ResidualValuesAgreeAcrossWorkerCounts) {
  // Whichever path the host selects, the reported residual must match the
  // serial ground truth to reduction-rounding accuracy.  (On 1-hardware-
  // thread CI this exercises the serial fallback; on multicore hosts the
  // team-parallel reduction.)
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
