// Tests for the extension features: owner-computes randomization, timed
// synchronization, the event-driven delay schedule, the high-level solve
// API, topic-structured Gram generation, block-coupled matrices, and
// column compression.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "asyrgs/asyrgs.hpp"

namespace asyrgs {
namespace {

// --- owner-computes randomization --------------------------------------------

TEST(OwnerComputes, ConvergesAndRespectsPartitions) {
  ThreadPool pool(8);
  const CsrMatrix a = laplacian_2d(14, 14);
  const std::vector<double> x_star = random_vector(a.rows(), 3);
  const std::vector<double> b = rhs_from_solution(a, x_star);

  std::vector<double> x(a.rows(), 0.0);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 4000;
  opt.workers = 8;
  opt.scope = RandomizationScope::kOwnerComputes;
  opt.sync = SyncMode::kBarrierPerSweep;
  opt.rel_tol = 1e-8;
  const SolveOutcome rep =
      SpdProblem(pool, a, /*check_input=*/false).solve(b, x, opt);
  EXPECT_TRUE(rep.converged());
  EXPECT_LT(nrm2(subtract(x, x_star)) / nrm2(x_star), 1e-5);
}

TEST(OwnerComputes, SingleWorkerStillSolves) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> x_star = random_vector(a.rows(), 5);
  const std::vector<double> b = rhs_from_solution(a, x_star);
  std::vector<double> x(a.rows(), 0.0);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 3000;
  opt.workers = 1;
  opt.scope = RandomizationScope::kOwnerComputes;
  opt.sync = SyncMode::kBarrierPerSweep;
  opt.rel_tol = 1e-8;
  EXPECT_TRUE(
      SpdProblem(pool, a, /*check_input=*/false).solve(b, x, opt).converged());
}

TEST(OwnerComputes, BarrierBlockVariantWorks) {
  // Owner-computes is paired with a synchronization mode (see the scope's
  // documentation: free-running finite budgets can leave early-finishing
  // partitions frozen).
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(10, 10);
  const MultiVector x_star = random_multivector(a.rows(), 3, 7);
  const MultiVector b = rhs_from_solution(a, x_star);
  MultiVector x(a.rows(), 3);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 3000;
  opt.workers = 4;
  opt.scope = RandomizationScope::kOwnerComputes;
  opt.sync = SyncMode::kBarrierPerSweep;
  SpdProblem(pool, a, /*check_input=*/false).solve(b, x, opt);
  const auto diffs = column_diff_norms(x, x_star);
  const auto norms = column_norms(x_star);
  for (index_t c = 0; c < 3; ++c) EXPECT_LT(diffs[c] / norms[c], 1e-4);
}

// --- timed synchronization ------------------------------------------------------

TEST(TimedBarrier, SolvesToToleranceAndStopsEarly) {
  ThreadPool pool(8);
  const CsrMatrix a = laplacian_2d(16, 16);
  const std::vector<double> x_star = random_vector(a.rows(), 9);
  const std::vector<double> b = rhs_from_solution(a, x_star);

  std::vector<double> x(a.rows(), 0.0);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 1000000;  // budget far beyond need: must stop on tolerance
  opt.workers = 8;
  opt.sync = SyncMode::kTimedBarrier;
  opt.sync_interval_seconds = 0.002;
  opt.rel_tol = 1e-8;
  opt.track_history = true;
  const SolveOutcome rep =
      SpdProblem(pool, a, /*check_input=*/false).solve(b, x, opt);
  EXPECT_TRUE(rep.converged());
  EXPECT_LT(relative_residual(a, b, x), 1e-7);
  EXPECT_FALSE(rep.residual_history.empty());
  EXPECT_LT(rep.updates,
            static_cast<long long>(opt.sweeps) *
                static_cast<long long>(a.rows()));
}

TEST(TimedBarrier, ExhaustsBudgetWithoutTolerance) {
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> b = random_vector(a.rows(), 11);
  std::vector<double> x(a.rows(), 0.0);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 50;
  opt.workers = 4;
  opt.sync = SyncMode::kTimedBarrier;
  opt.sync_interval_seconds = 0.001;
  const SolveOutcome rep =
      SpdProblem(pool, a, /*check_input=*/false).solve(b, x, opt);
  EXPECT_EQ(rep.updates,
            static_cast<long long>(50) * static_cast<long long>(a.rows()));
}

TEST(TimedBarrier, RejectsNonPositiveInterval) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_1d(10);
  const std::vector<double> b = random_vector(10, 1);
  std::vector<double> x(10, 0.0);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sync = SyncMode::kTimedBarrier;
  opt.sync_interval_seconds = 0.0;
  SpdProblem problem(pool, a, /*check_input=*/false);
  EXPECT_THROW(problem.solve(b, x, opt), Error);
}

// --- event-driven schedule ---------------------------------------------------------

TEST(EventSim, UniformRowsGiveDelayAboutP) {
  // With equal row costs, at most P-1 updates are in flight and they are
  // the most recent ones: tau-hat ~ P - 1.
  const CsrMatrix a = laplacian_1d(200);  // rows have 2-3 nonzeros each
  EventSimOptions opt;
  opt.processors = 8;
  opt.iterations = 5000;
  opt.jitter = 0.0;
  const EventDrivenSchedule sched = EventDrivenSchedule::build(a, opt);
  EXPECT_GE(sched.stats().max_delay, opt.processors - 2);
  EXPECT_LE(sched.stats().max_delay, 3 * opt.processors);
  EXPECT_GT(sched.stats().mean_inflight, 0.8 * opt.processors);
}

TEST(EventSim, SkewedRowsInflateMaxDelay) {
  // A matrix with one near-dense row: while some processor chews on it,
  // the others complete many updates, so the in-flight index age spikes —
  // the paper's "imbalanced row sizes" concern, measured.
  const index_t n = 300;
  CooBuilder builder(n, n);
  for (index_t i = 0; i < n; ++i) builder.add(i, i, 2.0);
  for (index_t j = 1; j < n; ++j) builder.add_symmetric(j, 0, -1.0 / n);
  const CsrMatrix skewed = builder.to_csr();

  EventSimOptions opt;
  opt.processors = 8;
  opt.iterations = 5000;
  opt.jitter = 0.0;
  const EventDrivenSchedule sched = EventDrivenSchedule::build(skewed, opt);
  // Row 0 costs ~n while others cost ~2: expect age ~ (P-1) * n / small.
  EXPECT_GT(sched.stats().max_delay, 5 * opt.processors);
}

TEST(EventSim, ExclusionSetsAreBoundedByProcessors) {
  const CsrMatrix a = laplacian_2d(15, 15);
  EventSimOptions opt;
  opt.processors = 6;
  opt.iterations = 2000;
  const EventDrivenSchedule sched = EventDrivenSchedule::build(a, opt);
  for (std::uint64_t j = 0; j < opt.iterations; ++j)
    EXPECT_LT(sched.excluded(j).size(),
              static_cast<std::size_t>(opt.processors));
}

TEST(EventSim, IncludesAgreesWithExcludedLists) {
  const CsrMatrix a = laplacian_1d(100);
  EventSimOptions opt;
  opt.processors = 4;
  opt.iterations = 500;
  const EventDrivenSchedule sched = EventDrivenSchedule::build(a, opt);
  for (std::uint64_t j = 1; j < opt.iterations; j += 37) {
    std::set<std::uint64_t> excl(sched.excluded(j).begin(),
                                 sched.excluded(j).end());
    for (std::uint64_t t = (j > 50 ? j - 50 : 0); t < j; ++t)
      EXPECT_EQ(!sched.includes(j, t), excl.count(t) > 0);
  }
}

TEST(EventSim, SingleProcessorIsSynchronous) {
  const CsrMatrix a = laplacian_1d(50);
  EventSimOptions opt;
  opt.processors = 1;
  opt.iterations = 1000;
  const EventDrivenSchedule sched = EventDrivenSchedule::build(a, opt);
  EXPECT_EQ(sched.stats().max_delay, 0);
  EXPECT_EQ(sched.tau(), 0);
}

TEST(EventSim, ReplayUnderEventScheduleConverges) {
  const index_t n = 120;
  const CsrMatrix raw = laplacian_1d(n);
  const CsrMatrix a = UnitDiagonalScaling(raw).scale_matrix(raw);
  const std::vector<double> x_star = random_vector(n, 13);
  const std::vector<double> b = rhs_from_solution(a, x_star);
  const std::vector<double> x0(static_cast<std::size_t>(n), 0.0);

  EventSimOptions eopt;
  eopt.processors = 8;
  eopt.iterations = static_cast<std::uint64_t>(n) * 100;
  eopt.seed = 21;
  const EventDrivenSchedule sched = EventDrivenSchedule::build(a, eopt);

  SimOptions sopt;
  sopt.iterations = eopt.iterations;
  sopt.seed = 21;  // must match the schedule's direction stream
  sopt.step_size = 0.9;
  const SimResult sim =
      simulate_inconsistent(a, b, x0, x_star, sched, sopt);
  const double e0 = std::pow(a_norm_error(a, x0, x_star), 2);
  EXPECT_LT(sim.final_error_sq, 1e-2 * e0);
}

TEST(EventSim, RejectsBadOptions) {
  const CsrMatrix a = laplacian_1d(10);
  EventSimOptions opt;
  opt.iterations = 0;
  EXPECT_THROW(EventDrivenSchedule::build(a, opt), Error);
  opt.iterations = 10;
  opt.processors = 0;
  EXPECT_THROW(EventDrivenSchedule::build(a, opt), Error);
  opt.processors = 2;
  opt.jitter = 1.0;
  EXPECT_THROW(EventDrivenSchedule::build(a, opt), Error);
}

// --- accuracy-driven requests on the SPD handle ------------------------------

/// A request that names only its accuracy target: the method left to kAuto,
/// occasional synchronization so the tolerance is checked, and a budget
/// large enough that the tolerance, not the budget, ends the solve.
SolveControls accuracy_request(double rel_tol) {
  SolveControls controls;
  controls.rel_tol = rel_tol;
  controls.sync = SyncMode::kBarrierPerSweep;
  controls.sweeps = 100000;
  return controls;
}

TEST(SpdAccuracyRequest, AutoPicksAsyncRgsAtLowAccuracy) {
  ThreadPool pool(8);
  const CsrMatrix a = laplacian_2d(12, 12);
  const std::vector<double> b = random_vector(a.rows(), 3);
  std::vector<double> x(a.rows(), 0.0);
  const SolveOutcome s =
      SpdProblem(pool, a).solve(b, x, accuracy_request(1e-3));
  EXPECT_EQ(s.method_used, SpdMethod::kAsyncRgs);
  EXPECT_TRUE(s.converged());
  EXPECT_LE(s.relative_residual, 1e-3);
}

TEST(SpdAccuracyRequest, AutoPicksFcgAtHighAccuracy) {
  ThreadPool pool(8);
  const CsrMatrix a = laplacian_2d(12, 12);
  const std::vector<double> b = random_vector(a.rows(), 5);
  std::vector<double> x(a.rows(), 0.0);
  const SolveOutcome s =
      SpdProblem(pool, a).solve(b, x, accuracy_request(1e-10));
  EXPECT_EQ(s.method_used, SpdMethod::kFcgAsyRgs);
  EXPECT_TRUE(s.converged());
  EXPECT_LT(relative_residual(a, b, x), 1e-9);
}

TEST(SpdAccuracyRequest, ExplicitCgWorks) {
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(10, 10);
  const std::vector<double> b = random_vector(a.rows(), 7);
  std::vector<double> x(a.rows(), 0.0);
  SolveControls controls = accuracy_request(1e-10);
  controls.method = SpdMethod::kCg;
  const SolveOutcome s = SpdProblem(pool, a).solve(b, x, controls);
  EXPECT_TRUE(s.converged());
  EXPECT_NE(s.description.find("conjugate"), std::string::npos);
}

TEST(SpdAccuracyRequest, HandlesNonUnitDiagonalTransparently) {
  ThreadPool pool(4);
  RandomBandedOptions gopt;
  gopt.n = 400;
  gopt.seed = 11;
  const CsrMatrix a = random_sdd(gopt);  // diagonal far from 1
  const std::vector<double> x_star = random_vector(a.rows(), 13);
  const std::vector<double> b = rhs_from_solution(a, x_star);
  std::vector<double> x(a.rows(), 0.0);
  const SolveOutcome s =
      SpdProblem(pool, a).solve(b, x, accuracy_request(1e-9));
  EXPECT_TRUE(s.converged());
  EXPECT_LT(nrm2(subtract(x, x_star)) / nrm2(x_star), 1e-7);
}

TEST(SpdAccuracyRequest, RejectsUnsymmetricInputWhenChecking) {
  ThreadPool pool(2);
  CooBuilder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(1, 1, 1.0);
  builder.add(0, 1, 0.5);  // no mirror
  const CsrMatrix a = builder.to_csr();
  std::vector<double> b(2, 1.0), x(2, 0.0);
  EXPECT_THROW(SpdProblem(pool, a), Error);
  SolveControls controls = accuracy_request(1e-2);
  controls.sweeps = 5;  // permitted, though convergence is not expected
  (void)SpdProblem(pool, a, /*check_input=*/false).solve(b, x, controls);
}

// --- new generators / utilities -----------------------------------------------------

TEST(TopicalGram, TopicsIncreaseConditionNumber) {
  ThreadPool pool(4);
  SocialGramOptions flat;
  flat.terms = 600;
  flat.documents = 3000;
  flat.mean_doc_length = 6;
  flat.ridge = 0.5;
  flat.topics = 0;  // no topic structure
  flat.seed = 3;
  SocialGramOptions topical = flat;
  topical.topics = 30;
  topical.topic_concentration = 0.92;

  auto kappa_of = [&](const SocialGramOptions& o) {
    const CsrMatrix g = make_social_gram(o).gram;
    const CsrMatrix scaled = UnitDiagonalScaling(g).scale_matrix(g);
    return estimate_spectrum(pool, scaled, 120).condition;
  };
  const double kappa_flat = kappa_of(flat);
  const double kappa_topical = kappa_of(topical);
  EXPECT_GT(kappa_topical, 3.0 * kappa_flat);
}

TEST(TopicalGram, RejectsBadTopicOptions) {
  SocialGramOptions opt;
  opt.terms = 100;
  opt.topics = 200;  // more topics than terms
  EXPECT_THROW(make_social_gram(opt), Error);
  opt.topics = 10;
  opt.topic_concentration = 1.5;
  EXPECT_THROW(make_social_gram(opt), Error);
}

TEST(BlockCoupledSpd, StructureAndSpectrum) {
  const CsrMatrix a = block_coupled_spd(12, 4, 0.5);
  EXPECT_TRUE(is_symmetric(a));
  EXPECT_TRUE(has_unit_diagonal(a));
  EXPECT_DOUBLE_EQ(a.at(0, 3), 0.5);
  EXPECT_DOUBLE_EQ(a.at(0, 4), 0.0);  // across block boundary
  // Block eigenvalues: 1 + (block-1)c and 1 - c.
  ThreadPool pool(2);
  const SpectrumEstimate est = estimate_spectrum(pool, a, 12);
  EXPECT_NEAR(est.lambda_max, 1.0 + 3 * 0.5, 1e-8);
  EXPECT_NEAR(est.lambda_min, 0.5, 1e-8);
  EXPECT_THROW(block_coupled_spd(10, 1, 0.5), Error);
  EXPECT_THROW(block_coupled_spd(10, 4, 1.0), Error);
}

TEST(DropEmptyColumns, CompactsAndMaps) {
  CooBuilder builder(3, 5);
  builder.add(0, 1, 1.0);
  builder.add(1, 3, 2.0);
  builder.add(2, 1, 3.0);
  const CsrMatrix a = builder.to_csr();
  const ColumnCompression cc = drop_empty_columns(a);
  EXPECT_EQ(cc.matrix.cols(), 2);
  EXPECT_EQ(cc.kept_columns, (std::vector<index_t>{1, 3}));
  EXPECT_DOUBLE_EQ(cc.matrix.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(cc.matrix.at(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(cc.matrix.at(2, 0), 3.0);
}

TEST(JacobiOwnership, RoundRobinConvergesOnDominantMatrix) {
  ThreadPool pool(8);
  RandomBandedOptions gopt;
  gopt.n = 500;
  gopt.seed = 17;
  const CsrMatrix a = random_sdd(gopt);
  const std::vector<double> x_star = random_vector(a.rows(), 19);
  const std::vector<double> b = rhs_from_solution(a, x_star);
  std::vector<double> x(a.rows(), 0.0);
  AsyncJacobiOptions opt;
  opt.sweeps = 400;
  opt.workers = 8;
  opt.ownership = JacobiOwnership::kRoundRobin;
  async_jacobi_solve(pool, a, b, x, opt);
  EXPECT_LT(relative_residual(a, b, x), 1e-6);
}

}  // namespace
}  // namespace asyrgs
