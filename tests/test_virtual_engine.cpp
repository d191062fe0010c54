// Virtual-engine tests: the deterministic scheduler driving the production
// update kernel must (a) be bit-identical across repeated invocations for a
// fixed (seed, P, delay model), (b) reproduce the sequential rgs iterate
// exactly at P = 1 / zero delay, (c) cross-check the replay simulator, and
// (d) stay under the Theorem 2/4 envelopes at P >= 64 virtual workers.
// Also here: golden-trace regressions pinning the EventDrivenSchedule's
// realized delay structure (satellite of the same PR).
//
// Host-core independence needs no parameterized test: the engine runs on
// the calling thread only — no ThreadPool, no std::thread, no clocks — so
// nothing in its state can depend on std::thread::hardware_concurrency.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "asyrgs/core/rgs.hpp"
#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/random_spd.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/linalg/lanczos.hpp"
#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/simulate/async_sim.hpp"
#include "asyrgs/simulate/virtual_engine.hpp"
#include "asyrgs/sparse/properties.hpp"
#include "asyrgs/sparse/scale.hpp"
#include "asyrgs/support/thread_pool.hpp"
#include "asyrgs/theory/bounds.hpp"

namespace asyrgs {
namespace {

struct SimProblem {
  CsrMatrix a;  // unit diagonal
  std::vector<double> x_star;
  std::vector<double> b;
  std::vector<double> x0;
};

SimProblem unit_problem(index_t n, std::uint64_t seed) {
  SimProblem p;
  const CsrMatrix raw = laplacian_1d(n);
  p.a = UnitDiagonalScaling(raw).scale_matrix(raw);
  p.x_star = random_vector(n, seed);
  p.b = rhs_from_solution(p.a, p.x_star);
  p.x0.assign(static_cast<std::size_t>(n), 0.0);
  return p;
}

/// Moderately conditioned unit-diagonal SPD problem with its measured
/// TheoremInputs — the same construction test_theorem_validation.cpp uses,
/// sized here so the theorem preconditions hold at large tau.
struct ValidationProblem {
  CsrMatrix a;
  std::vector<double> x_star;
  std::vector<double> b;
  std::vector<double> x0;
  double e0 = 0.0;
  TheoremInputs inputs;
};

ValidationProblem make_validation_problem(index_t n, index_t tau,
                                          double beta) {
  ValidationProblem p;
  RandomBandedOptions gopt;
  gopt.n = n;
  gopt.offdiag_per_row = 6;
  gopt.bandwidth = 32;
  gopt.dominance_margin = 0.1;
  gopt.seed = 99;
  const CsrMatrix raw = random_sdd(gopt);
  p.a = UnitDiagonalScaling(raw).scale_matrix(raw);
  p.x_star = random_vector(n, 1234);
  p.b = rhs_from_solution(p.a, p.x_star);
  p.x0.assign(static_cast<std::size_t>(n), 0.0);
  p.e0 = std::pow(a_norm_error(p.a, p.x0, p.x_star), 2);

  p.inputs.n = n;
  p.inputs.rho = rho(p.a);
  p.inputs.rho2 = rho2(p.a);
  ThreadPool pool(4);
  const LanczosResult spec =
      lanczos_extreme(pool, p.a, static_cast<int>(std::min<index_t>(n, 600)),
                      /*seed=*/17);
  p.inputs.lambda_min = spec.lambda_min;
  p.inputs.lambda_max = spec.lambda_max;
  p.inputs.tau = tau;
  p.inputs.beta = beta;
  return p;
}

// --- Acceptance: P = 1 equals the sequential solver, bit for bit ------------

TEST(VirtualEngine, ZeroDelayMatchesSequentialRgsBitwise) {
  SimProblem p = unit_problem(64, 3);
  VirtualEngineOptions opt;
  opt.iterations = 64 * 5;
  opt.seed = 7;
  const ZeroDelay delay;
  const SimResult sim =
      run_virtual_consistent(p.a, p.b, p.x0, p.x_star, delay, opt);

  std::vector<double> x_seq = p.x0;
  RgsOptions ropt;
  ropt.sweeps = 5;
  ropt.seed = 7;
  rgs_solve(p.a, p.b, x_seq, ropt);

  ASSERT_EQ(sim.x.size(), x_seq.size());
  for (std::size_t i = 0; i < x_seq.size(); ++i)
    EXPECT_EQ(sim.x[i], x_seq[i]) << "entry " << i;
}

// --- Acceptance: fixed configuration is bit-identical across invocations ----

TEST(VirtualEngine, BitIdenticalAcrossRepeatedInvocations) {
  SimProblem p = unit_problem(128, 5);
  VirtualEngineOptions opt;
  opt.iterations = 128 * 8;
  opt.seed = 31;
  opt.step_size = 0.4;
  opt.record_every = 128;
  const BatchDelay delay(64);  // P = 64 virtual workers in lockstep

  const SimResult first =
      run_virtual_consistent(p.a, p.b, p.x0, p.x_star, delay, opt);
  const SimResult second =
      run_virtual_consistent(p.a, p.b, p.x0, p.x_star, delay, opt);
  ASSERT_EQ(first.x.size(), second.x.size());
  for (std::size_t i = 0; i < first.x.size(); ++i)
    EXPECT_EQ(first.x[i], second.x[i]) << "entry " << i;
  ASSERT_EQ(first.error_sq_history.size(), second.error_sq_history.size());
  for (std::size_t i = 0; i < first.error_sq_history.size(); ++i)
    EXPECT_EQ(first.error_sq_history[i], second.error_sq_history[i]);
  EXPECT_EQ(first.final_error_sq, second.final_error_sq);
}

TEST(VirtualEngine, EventRunBitIdenticalAcrossRepeatedInvocations) {
  SimProblem p = unit_problem(96, 7);
  EventSimOptions event;
  event.processors = 64;
  event.iterations = 96 * 10;
  event.seed = 41;
  VirtualEngineOptions opt;
  opt.step_size = 0.2;

  const VirtualEventResult first =
      run_virtual_event(p.a, p.b, p.x0, p.x_star, event, opt);
  const VirtualEventResult second =
      run_virtual_event(p.a, p.b, p.x0, p.x_star, event, opt);
  ASSERT_EQ(first.result.x.size(), second.result.x.size());
  for (std::size_t i = 0; i < first.result.x.size(); ++i)
    EXPECT_EQ(first.result.x[i], second.result.x[i]) << "entry " << i;
  EXPECT_EQ(first.tau, second.tau);
  EXPECT_EQ(first.stats.max_delay, second.stats.max_delay);
  EXPECT_EQ(first.stats.mean_delay, second.stats.mean_delay);
  // The schedule genuinely overlapped updates and the run still landed a
  // plausible iterate (convergence at large P is the envelope tests' job).
  EXPECT_GT(first.tau, 0);
  EXPECT_TRUE(std::isfinite(first.result.final_error_sq));
}

// --- Model adapters ----------------------------------------------------------

TEST(VirtualEngine, WindowExclusionEqualsFixedDelayBitwise) {
  // K(j) = {0..j-tau-1} is the prefix state x_{k(j)} with k = max(0, j-tau):
  // the consistent and inconsistent adapters materialize identical stale
  // snapshots in identical order, so the runs agree bit for bit.
  SimProblem p = unit_problem(48, 5);
  VirtualEngineOptions opt;
  opt.iterations = 48 * 6;
  opt.seed = 11;
  opt.step_size = 0.8;

  const index_t tau = 9;
  const FixedDelay fixed(tau);
  const WindowExclusion excl(tau);
  const SimResult a =
      run_virtual_consistent(p.a, p.b, p.x0, p.x_star, fixed, opt);
  const SimResult b =
      run_virtual_inconsistent(p.a, p.b, p.x0, p.x_star, excl, opt);
  for (std::size_t i = 0; i < a.x.size(); ++i)
    EXPECT_EQ(a.x[i], b.x[i]) << "entry " << i;
}

TEST(VirtualEngine, CrossChecksReplaySimulatorUnderDelay) {
  // Same schedule, two executions of iteration (8): the replay reconstructs
  // b_r - A_r x_{k(j)} as residual-plus-corrections while the engine
  // materializes x_{k(j)} and runs the production kernel.  The associations
  // differ, so agreement is to rounding — a tight tolerance relative to the
  // initial error, not bitwise.
  SimProblem p = unit_problem(48, 5);
  VirtualEngineOptions opt;
  opt.iterations = 48 * 6;
  opt.seed = 11;
  opt.step_size = 0.8;
  const FixedDelay delay(9);

  const SimResult virt =
      run_virtual_consistent(p.a, p.b, p.x0, p.x_star, delay, opt);
  const SimResult replay =
      simulate_consistent(p.a, p.b, p.x0, p.x_star, delay, opt);
  const double e0 = std::pow(a_norm_error(p.a, p.x0, p.x_star), 2);
  EXPECT_NEAR(virt.final_error_sq, replay.final_error_sq, 1e-9 * e0);
  ASSERT_EQ(virt.x.size(), replay.x.size());
  for (std::size_t i = 0; i < virt.x.size(); ++i)
    EXPECT_NEAR(virt.x[i], replay.x[i], 1e-10) << "entry " << i;
}

TEST(VirtualEngine, RejectsScheduleViolatingItsTau) {
  class LyingDelay final : public ConsistentDelayModel {
   public:
    [[nodiscard]] std::uint64_t snapshot(std::uint64_t j) const override {
      return j > 50 ? 0 : j;  // pretends tau = 2 but returns ancient states
    }
    [[nodiscard]] index_t tau() const override { return 2; }
    [[nodiscard]] std::string name() const override { return "liar"; }
  };
  SimProblem p = unit_problem(32, 13);
  VirtualEngineOptions opt;
  opt.iterations = 100;
  const LyingDelay liar;
  EXPECT_THROW(run_virtual_consistent(p.a, p.b, p.x0, p.x_star, liar, opt),
               Error);
}

TEST(VirtualEngine, RejectsBadInputs) {
  SimProblem p = unit_problem(16, 17);
  const ZeroDelay delay;
  VirtualEngineOptions opt;
  opt.iterations = 10;
  opt.step_size = 2.0;
  EXPECT_THROW(run_virtual_consistent(p.a, p.b, p.x0, p.x_star, delay, opt),
               Error);
  opt.step_size = 1.0;
  std::vector<double> short_b(8, 0.0);
  EXPECT_THROW(
      run_virtual_consistent(p.a, short_b, p.x0, p.x_star, delay, opt), Error);
  // 2^31 sweeps of n = 16: past the direction plan's int sweep index.
  opt.iterations = std::uint64_t{16} << 31;
  EXPECT_THROW(run_virtual_consistent(p.a, p.b, p.x0, p.x_star, delay, opt),
               Error);
}

TEST(VirtualEngine, RecordsErrorHistoryAtRequestedCadence) {
  SimProblem p = unit_problem(50, 15);
  VirtualEngineOptions opt;
  opt.iterations = 500;
  opt.record_every = 100;
  const ZeroDelay delay;
  const SimResult sim =
      run_virtual_consistent(p.a, p.b, p.x0, p.x_star, delay, opt);
  ASSERT_EQ(sim.record_points.size(), 5u);  // j = 0, 100, ..., 400
  EXPECT_EQ(sim.record_points.front(), 0u);
  EXPECT_EQ(sim.record_points.back(), 400u);
  EXPECT_LT(sim.error_sq_history.back(), sim.error_sq_history.front());
}

// --- Acceptance: theorem-envelope conformance at P >= 64 ---------------------

TEST(VirtualEngine, ConsistentEnvelopeHoldsAtSixtyFourVirtualWorkers) {
  // P = 64 lockstep workers (BatchDelay, tau = 63) on a problem sized so
  // the Theorem 2 precondition 2 rho tau < 1 genuinely holds — asserted,
  // not assumed.
  const index_t tau = 63;
  ValidationProblem p = make_validation_problem(600, tau, 1.0);
  ASSERT_TRUE(consistent_bound_applicable(p.inputs))
      << "2 rho tau = " << 2.0 * p.inputs.rho * tau;

  const std::uint64_t epoch = theorem_t0(p.inputs.n, p.inputs.lambda_max) +
                              static_cast<std::uint64_t>(tau);
  const std::uint64_t m = 4 * epoch;
  const BatchDelay delay(64);

  double mean_err = 0.0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    VirtualEngineOptions opt;
    opt.iterations = m;
    opt.seed = 43000 + static_cast<std::uint64_t>(t);
    mean_err += run_virtual_consistent(p.a, p.b, p.x0, p.x_star, delay, opt)
                    .final_error_sq;
  }
  mean_err /= trials;

  const EnvelopeCheck check =
      check_consistent_envelope(p.inputs, p.e0, mean_err, m, /*slack=*/1.5);
  EXPECT_TRUE(check.applicable);
  EXPECT_TRUE(check.conforms)
      << "measured E_m/E_0 = " << check.measured_ratio
      << " vs envelope = " << check.envelope;
}

TEST(VirtualEngine, InconsistentEnvelopeHoldsUnderEventScheduleAt64Workers) {
  // P = 64 event-driven virtual processors; tau-hat is *measured* from the
  // realized schedule, the step size is then chosen as the Theorem 4
  // optimum for that tau-hat (which always satisfies the precondition),
  // and the precondition is still asserted rather than assumed.
  ValidationProblem p = make_validation_problem(600, 0, 1.0);
  const std::uint64_t m = 4000;

  double mean_err = 0.0;
  EnvelopeCheck last_check;
  const int trials = 5;
  double mean_envelope = 0.0;
  for (int t = 0; t < trials; ++t) {
    EventSimOptions event;
    event.processors = 64;
    event.iterations = m;
    event.seed = 47000 + static_cast<std::uint64_t>(t);
    const EventDrivenSchedule schedule = EventDrivenSchedule::build(p.a, event);

    TheoremInputs in = p.inputs;
    in.tau = schedule.tau();
    in.beta = optimal_beta_inconsistent(in.rho2, in.tau);
    ASSERT_TRUE(inconsistent_bound_applicable(in))
        << "tau-hat = " << in.tau << " beta = " << in.beta;

    VirtualEngineOptions opt;
    opt.iterations = m;
    opt.seed = event.seed;  // must consume the schedule's direction stream
    opt.step_size = in.beta;
    const SimResult run =
        run_virtual_inconsistent(p.a, p.b, p.x0, p.x_star, schedule, opt);
    mean_err += run.final_error_sq;
    last_check = check_inconsistent_envelope(in, p.e0, run.final_error_sq, m,
                                             /*slack=*/1.5);
    mean_envelope += last_check.envelope;
  }
  mean_err /= trials;
  mean_envelope /= trials;
  EXPECT_TRUE(last_check.applicable);
  EXPECT_LT(mean_err / p.e0, 1.5 * mean_envelope)
      << "measured mean E_m/E_0 = " << mean_err / p.e0;
}

// --- Golden traces: EventDrivenSchedule regression ---------------------------

/// FNV-1a over (j, excluded set) pairs — pins the exact visibility
/// structure, not just its summary statistics.
std::uint64_t visibility_hash(const EventDrivenSchedule& s,
                              std::uint64_t count) {
  std::uint64_t h = 1469598103934665603ull;
  auto fold = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (std::uint64_t j = 0; j < count; ++j) {
    fold(j);
    for (std::uint64_t t : s.excluded(j)) fold(t);
  }
  return h;
}

struct GoldenTrace {
  int processors;
  index_t max_delay;
  double mean_delay;
  double mean_inflight;
  std::uint64_t first64_hash;  ///< first 64 visibility sets
  std::uint64_t full_hash;     ///< all 2048 visibility sets
};

class EventGoldenTest : public ::testing::TestWithParam<GoldenTrace> {};

TEST_P(EventGoldenTest, ScheduleMatchesPinnedTrace) {
  // Captured by running exactly this recipe at the commit introducing the
  // virtual engine; any change to the event simulation's arithmetic, tie
  // breaking, or stream keying shows up here first.
  const GoldenTrace g = GetParam();
  const CsrMatrix a = laplacian_1d(64);
  EventSimOptions opt;
  opt.processors = g.processors;
  opt.iterations = 2048;
  opt.seed = 21;
  const EventDrivenSchedule s = EventDrivenSchedule::build(a, opt);

  EXPECT_EQ(s.stats().max_delay, g.max_delay);
  EXPECT_NEAR(s.stats().mean_delay, g.mean_delay, 1e-12);
  EXPECT_NEAR(s.stats().mean_inflight, g.mean_inflight, 1e-12);
  EXPECT_EQ(visibility_hash(s, 64), g.first64_hash);
  EXPECT_EQ(visibility_hash(s, 2048), g.full_hash);
}

INSTANTIATE_TEST_SUITE_P(
    ProcessorSweep, EventGoldenTest,
    ::testing::Values(
        GoldenTrace{8, 13, 4.0552138663684651, 7.986328125,
                    7863458767245701248ull, 7433637368546956259ull},
        GoldenTrace{64, 125, 32.349788989669939, 63.015625,
                    11998687154876538755ull, 5270631606293867217ull},
        GoldenTrace{256, 509, 130.48108455882354, 240.0625,
                    11998687154876538755ull, 16383078768779429836ull}));

// --- Assumption A-4: jitter stream keyed separately from directions ----------

TEST(VirtualEngine, JitterDrawsComeFromSeparatelyKeyedStream) {
  const CsrMatrix a = laplacian_1d(64);
  EventSimOptions opt;
  opt.processors = 16;
  opt.iterations = 1024;
  opt.seed = 21;

  // With jitter amplitude 0 the jitter stream is never consulted: changing
  // its key must not move a single visibility set.
  opt.jitter = 0.0;
  opt.jitter_seed = 1;
  const std::uint64_t h_a =
      visibility_hash(EventDrivenSchedule::build(a, opt), 1024);
  opt.jitter_seed = 2;
  const std::uint64_t h_b =
      visibility_hash(EventDrivenSchedule::build(a, opt), 1024);
  EXPECT_EQ(h_a, h_b);

  // With jitter on, the jitter key matters (the draws are real)...
  opt.jitter = 0.3;
  opt.jitter_seed = 1;
  const std::uint64_t h_c =
      visibility_hash(EventDrivenSchedule::build(a, opt), 1024);
  opt.jitter_seed = 2;
  const std::uint64_t h_d =
      visibility_hash(EventDrivenSchedule::build(a, opt), 1024);
  EXPECT_NE(h_c, h_d);

  // ...but colliding the two seed *values* still keys distinct streams:
  // the schedule differs from the jitter-free one only through the jitter
  // factors, never by re-using direction draws (A-4 independence is keyed
  // in, not assumed).
  opt.jitter_seed = opt.seed;
  const std::uint64_t h_e =
      visibility_hash(EventDrivenSchedule::build(a, opt), 1024);
  EXPECT_NE(h_e, h_a);  // jitter active: durations moved
  // Direction stream unchanged throughout: the replayed iterate under the
  // jitter-free schedule matches across jitter seeds bitwise.
  SimProblem p = unit_problem(64, 3);
  opt.jitter = 0.0;
  VirtualEngineOptions vopt;
  vopt.step_size = 0.3;
  opt.jitter_seed = 7;
  const VirtualEventResult r1 =
      run_virtual_event(p.a, p.b, p.x0, p.x_star, opt, vopt);
  opt.jitter_seed = 8;
  const VirtualEventResult r2 =
      run_virtual_event(p.a, p.b, p.x0, p.x_star, opt, vopt);
  for (std::size_t i = 0; i < r1.result.x.size(); ++i)
    EXPECT_EQ(r1.result.x[i], r2.result.x[i]);
}

}  // namespace
}  // namespace asyrgs
