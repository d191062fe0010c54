// SolverService suite (PR 5): the sharded multi-pool serving front-end.
//
//  (a) Concurrency: M client threads submitting a mixed SPD / LSQ / block
//      request stream — every tolerance-stopped outcome converges, every
//      residual checks out against the matrix, and the service accounting
//      (submitted == completed, per-shard served counts) balances.
//  (b) Determinism under sharding: a fixed-seed request yields a
//      bit-identical result regardless of which shard executes it and
//      regardless of the service's shard count (1 / 2 / 4), matching the
//      single-handle reference — including multi-worker owner-computes
//      teams on a block-diagonal matrix (every interleaving identical).
//  (c) Amortization across shards: shard 0 pays the per-matrix analysis;
//      clones re-validate nothing (ProblemStats at zero validation passes /
//      transpose builds) and the matrix-level transpose is built once for
//      the whole service.
//  (d) The SolveTicket contract: done()/wait()/solution() semantics, solve
//      errors rethrown at wait(), eager submit-side validation.
//  (e) Admission control and deadlines (PR 6): queue-full and
//      shutdown-race submits resolve to SolveStatus::kRejected without
//      throwing, deadline-expired requests are shed unexecuted, priority
//      classes reorder dispatch, and the ServiceStats accounting invariant
//      submitted == completed + queued + in_flight holds under concurrent
//      load.
//  (f) Warm starts: re-solving a perturbed right-hand side from the
//      previous solution converges in fewer sweeps than from zero.
//  (g) Observability: per-shard latency histograms and the JSON trace sink
//      record every request.
//
// This suite (with test_problem, test_serve_metrics, and test_thread_pool)
// is the TSan CI gate — keep it free of intentional races: multi-worker
// requests stay on atomic writes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/problem.hpp"
#include "asyrgs/serve/service.hpp"
#include "asyrgs/sparse/coo.hpp"
#include "asyrgs/support/prng.hpp"

namespace asyrgs {
namespace {

/// Block-diagonal SPD matrix whose blocks align with every tested worker
/// partition (same construction as test_problem.cpp): under owner-computes
/// randomization no worker reads another's coordinates, so multi-worker
/// runs are bit-deterministic.
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

ServiceOptions two_shard_options() {
  ServiceOptions o;
  o.shards = 2;
  o.workers_per_shard = 2;
  o.prepare_spd = true;
  o.prepare_lsq = true;
  return o;
}

// --- (a) mixed concurrent request stream -------------------------------------

TEST(SolverService, MixedStreamFromClientThreadsConvergesAndBalances) {
  const CsrMatrix a = laplacian_2d(8, 8);
  SolverService service(a, two_shard_options());

  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  std::mutex tickets_mutex;
  std::vector<SolveTicket> spd_tickets, lsq_tickets, block_tickets;

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Xoshiro256 rng(100 + static_cast<std::uint64_t>(c));
      for (int r = 0; r < kPerClient; ++r) {
        SolveControls controls;
        controls.seed = static_cast<std::uint64_t>(c * kPerClient + r + 1);
        controls.workers = 1 + (r % 2);
        controls.sync = SyncMode::kBarrierPerSweep;
        controls.rel_tol = 1e-6;
        controls.sweeps = 4000;
        const std::vector<double> b =
            random_vector(a.rows(), controls.seed + 7);
        switch (r % 3) {
          case 0: {
            SolveTicket t = service.submit(b, controls);
            const std::lock_guard<std::mutex> lock(tickets_mutex);
            spd_tickets.push_back(t);
            break;
          }
          case 1: {
            SolveControls lsq = controls;
            lsq.step_size = 0.9;
            // Least squares converges on the normal equations (operator
            // conditioning squared): looser target, bigger budget.
            lsq.rel_tol = 1e-5;
            lsq.sweeps = 12000;
            SolveTicket t = service.submit_least_squares(b, lsq);
            const std::lock_guard<std::mutex> lock(tickets_mutex);
            lsq_tickets.push_back(t);
            break;
          }
          default: {
            MultiVector bm(a.rows(), 2);
            for (index_t i = 0; i < a.rows(); ++i) {
              bm.at(i, 0) = b[static_cast<std::size_t>(i)];
              bm.at(i, 1) = normal(rng);
            }
            SolveTicket t = service.submit_block(bm, controls);
            const std::lock_guard<std::mutex> lock(tickets_mutex);
            block_tickets.push_back(t);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (SolveTicket& t : spd_tickets) {
    const SolveOutcome& out = t.wait();
    EXPECT_EQ(out.status, SolveStatus::kConverged) << out.description;
    EXPECT_GE(t.shard(), 0);
    EXPECT_LT(t.shard(), service.shards());
  }
  for (SolveTicket& t : lsq_tickets)
    EXPECT_EQ(t.wait().status, SolveStatus::kConverged)
        << t.wait().description;
  for (SolveTicket& t : block_tickets)
    EXPECT_EQ(t.wait().status, SolveStatus::kConverged)
        << t.wait().description;

  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  EXPECT_EQ(stats.queued, 0);
  long long served = 0;
  for (const ShardStats& s : stats.shards) served += s.served;
  EXPECT_EQ(served, stats.completed);
}

// --- (b) determinism under sharding ------------------------------------------

TEST(SolverService, FixedSeedBitIdenticalAcrossShardPlacementsAndCounts) {
  const CsrMatrix a = laplacian_2d(9, 9);
  const std::vector<double> b = random_vector(a.rows(), 3);

  SolveControls controls;
  controls.sweeps = 25;
  controls.seed = 17;
  controls.workers = 1;  // pin: identical regardless of shard pool size

  // Single-handle reference.
  ThreadPool pool(2);
  SpdProblem reference(pool, a);
  std::vector<double> x_ref(a.rows(), 0.0);
  reference.solve(b, x_ref, controls);

  for (int shards : {1, 2, 4}) {
    ServiceOptions options = two_shard_options();
    options.shards = shards;
    SolverService service(a, options);
    // Submit batches until at least two distinct shards have actually
    // executed a copy (scheduling decides placement, so retry bounded-many
    // times rather than assuming one batch spreads); every placement must
    // produce the same bits.
    const std::size_t want_placements = shards > 1 ? 2u : 1u;
    std::set<int> placements;
    for (int round = 0;
         round < 50 && placements.size() < want_placements; ++round) {
      std::vector<SolveTicket> tickets;
      for (int r = 0; r < 2 * shards + 1; ++r)
        tickets.push_back(service.submit(b, controls));
      for (SolveTicket& t : tickets) {
        EXPECT_EQ(t.wait().status, SolveStatus::kBudgetCompleted);
        placements.insert(t.shard());
        EXPECT_EQ(t.solution(), x_ref) << "shards=" << shards;
      }
    }
    // The cross-placement claim was actually exercised, not vacuously.
    EXPECT_GE(placements.size(), want_placements) << "shards=" << shards;
  }
}

TEST(SolverService, FixedSeedLeastSquaresAndBlockMatchSingleHandle) {
  const CsrMatrix a = laplacian_2d(7, 7);
  const std::vector<double> b = random_vector(a.rows(), 11);

  ThreadPool pool(2);
  SolveControls controls;
  controls.sweeps = 20;
  controls.seed = 31;
  controls.workers = 1;
  controls.step_size = 0.9;

  LsqProblem lsq_ref(pool, a);
  std::vector<double> x_lsq_ref(static_cast<std::size_t>(a.cols()), 0.0);
  lsq_ref.solve(b, x_lsq_ref, controls);

  SpdProblem spd_ref(pool, a);
  const MultiVector bm = random_multivector(a.rows(), 3, 13);
  MultiVector x_blk_ref(a.rows(), 3);
  spd_ref.solve(bm, x_blk_ref, controls);

  ServiceOptions options = two_shard_options();
  SolverService service(a, options);
  std::vector<SolveTicket> lsq_tickets, blk_tickets;
  for (int r = 0; r < 4; ++r) {
    lsq_tickets.push_back(service.submit_least_squares(b, controls));
    blk_tickets.push_back(service.submit_block(bm, controls));
  }
  for (SolveTicket& t : lsq_tickets) EXPECT_EQ(t.solution(), x_lsq_ref);
  for (SolveTicket& t : blk_tickets) {
    const MultiVector& x = t.block_solution();
    ASSERT_EQ(x.size(), x_blk_ref.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      ASSERT_EQ(x.data()[i], x_blk_ref.data()[i]) << "i=" << i;
  }
}

TEST(SolverService, OwnerComputesMultiWorkerTeamsStayDeterministic) {
  // Multi-worker teams inside the shards: owner-computes on a
  // block-diagonal matrix makes every interleaving produce the same bits,
  // so the cross-shard comparison stays exact even at team size 2.
  const CsrMatrix a = block_diag_tridiagonal(/*blocks=*/4, /*block_size=*/12);
  const std::vector<double> b = random_vector(a.rows(), 5);

  SolveControls controls;
  controls.sweeps = 30;
  controls.seed = 23;
  controls.workers = 2;
  controls.scope = RandomizationScope::kOwnerComputes;
  controls.sync = SyncMode::kBarrierPerSweep;

  ThreadPool pool(2);
  SpdProblem reference(pool, a);
  std::vector<double> x_ref(a.rows(), 0.0);
  reference.solve(b, x_ref, controls);

  for (int shards : {1, 2}) {
    ServiceOptions options = two_shard_options();
    options.shards = shards;
    options.prepare_lsq = false;
    SolverService service(a, options);
    std::vector<SolveTicket> tickets;
    for (int r = 0; r < 2 * shards; ++r)
      tickets.push_back(service.submit(b, controls));
    for (SolveTicket& t : tickets)
      EXPECT_EQ(t.solution(), x_ref) << "shards=" << shards;
  }
}

// --- (c) shard-clone amortization --------------------------------------------

TEST(SolverService, ShardClonesPayNoRevalidation) {
  // Fresh matrix: the transpose cache starts cold, so the service's own
  // construction is what pays the one transpose build — the LSQ handle's
  // (the SPD symmetry check builds none).
  const CsrMatrix a = laplacian_2d(8, 8);
  ASSERT_FALSE(a.transpose_cached());

  ServiceOptions options = two_shard_options();
  options.shards = 4;
  SolverService service(a, options);

  ServiceStats stats = service.stats();
  ASSERT_EQ(stats.shards.size(), 4u);
  // One symmetry/diagonal pass (SPD) + one rank pass (LSQ), both on shard 0.
  EXPECT_EQ(stats.validation_passes, 2);
  // One transpose for the whole service (the LSQ handle builds it; every
  // clone shares it through the matrix cache).
  EXPECT_EQ(stats.transpose_builds, 1);
  EXPECT_TRUE(a.transpose_cached());
  for (std::size_t s = 1; s < stats.shards.size(); ++s) {
    EXPECT_EQ(stats.shards[s].spd.validation_passes, 0) << "shard " << s;
    EXPECT_EQ(stats.shards[s].lsq.validation_passes, 0) << "shard " << s;
    EXPECT_EQ(stats.shards[s].spd.transpose_builds, 0) << "shard " << s;
    EXPECT_EQ(stats.shards[s].lsq.transpose_builds, 0) << "shard " << s;
  }

  // Serving requests re-validates nothing anywhere.
  SolveControls controls;
  controls.sweeps = 5;
  controls.workers = 1;
  const std::vector<double> b = random_vector(a.rows(), 2);
  std::vector<SolveTicket> tickets;
  for (int r = 0; r < 8; ++r) {
    tickets.push_back(service.submit(b, controls));
    tickets.push_back(service.submit_least_squares(b, controls));
  }
  for (SolveTicket& t : tickets) t.wait();
  service.drain();
  stats = service.stats();
  EXPECT_EQ(stats.validation_passes, 2);
  EXPECT_EQ(stats.transpose_builds, 1);
}

TEST(SolverService, SpdOnlyServiceBuildsNoTranspose) {
  // No SPD kernel reads A^T, and the symmetry check merges in place: a
  // service without least-squares handles never materializes one, even with
  // the partition analysis prepared.
  const CsrMatrix a = laplacian_2d(8, 8);
  ServiceOptions options = two_shard_options();
  options.prepare_lsq = false;
  options.prepare_partitions = true;
  SolverService service(a, options);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.validation_passes, 1);
  EXPECT_EQ(stats.transpose_builds, 0);
  EXPECT_FALSE(a.transpose_cached());
  EXPECT_EQ(stats.shards[0].spd.partition_builds, 1);
  EXPECT_EQ(stats.shards[1].spd.partition_builds, 0);
}

TEST(SolverService, CloneConstructorsMatchFullValidationBitForBit) {
  // The problem-layer satellite of the service: a shard clone solves
  // bit-identically to a fully-validated handle on another pool.
  const CsrMatrix a = laplacian_2d(8, 8);
  const std::vector<double> b = random_vector(a.rows(), 9);
  ThreadPool pool_a(2), pool_b(2);

  SpdProblem full(pool_a, a, /*check_input=*/true);
  SpdProblem clone(pool_b, full);
  EXPECT_EQ(clone.stats().validation_passes, 0);
  EXPECT_EQ(clone.stats().transpose_builds, 0);

  SolveControls controls;
  controls.sweeps = 25;
  controls.seed = 41;
  controls.workers = 1;
  std::vector<double> x_full(a.rows(), 0.0), x_clone(a.rows(), 0.0);
  full.solve(b, x_full, controls);
  clone.solve(b, x_clone, controls);
  EXPECT_EQ(x_full, x_clone);

  LsqProblem lsq_full(pool_a, a);
  LsqProblem lsq_clone(pool_b, lsq_full);
  EXPECT_EQ(lsq_clone.stats().validation_passes, 0);
  EXPECT_EQ(&lsq_full.transpose(), &lsq_clone.transpose());
  controls.step_size = 0.9;
  std::vector<double> y_full(static_cast<std::size_t>(a.cols()), 0.0);
  std::vector<double> y_clone(y_full);
  lsq_full.solve(b, y_full, controls);
  lsq_clone.solve(b, y_clone, controls);
  EXPECT_EQ(y_full, y_clone);
}

// --- (d) ticket contract and submit-side validation --------------------------

TEST(SolverService, SolveErrorsRethrownAtWait) {
  const CsrMatrix a = laplacian_2d(6, 6);
  ServiceOptions options = two_shard_options();
  options.prepare_lsq = false;
  SolverService service(a, options);

  SolveControls bad;
  bad.step_size = 5.0;  // outside (0, 2): rejected by the solve on the shard
  SolveTicket t = service.submit(random_vector(a.rows(), 1), bad);
  EXPECT_THROW(t.wait(), Error);
  EXPECT_THROW(static_cast<void>(t.solution()), Error);  // on every access
  EXPECT_TRUE(t.done());

  // A NaN tolerance is rejected the same way, not run to budget-completed.
  SolveControls nan_tol;
  nan_tol.sync = SyncMode::kBarrierPerSweep;
  nan_tol.rel_tol = std::nan("");
  SolveTicket t_nan = service.submit(random_vector(a.rows(), 3), nan_tol);
  EXPECT_THROW(t_nan.wait(), Error);

  // Submit-side validation is eager.
  EXPECT_THROW(service.submit(std::vector<double>(3, 0.0)), Error);
  EXPECT_THROW(
      service.submit_least_squares(random_vector(a.rows(), 1)), Error);
  EXPECT_THROW(service.submit_block(MultiVector(), {}), Error);

  // The failed request still counts as completed; the service keeps serving.
  SolveControls good;
  good.sweeps = 5;
  good.workers = 1;
  SolveTicket ok = service.submit(random_vector(a.rows(), 2), good);
  EXPECT_EQ(ok.wait().status, SolveStatus::kBudgetCompleted);
  service.drain();
  EXPECT_EQ(service.stats().completed, 3);
}

TEST(SolverService, TicketBasics) {
  SolveTicket invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_FALSE(invalid.done());
  EXPECT_THROW(invalid.wait(), Error);

  const CsrMatrix a = laplacian_2d(6, 6);
  ServiceOptions options = two_shard_options();
  options.prepare_lsq = false;
  options.shards = 1;
  SolverService service(a, options);
  EXPECT_EQ(service.shards(), 1);
  EXPECT_EQ(service.workers_per_shard(), 2);
  EXPECT_EQ(&service.matrix(), &a);

  SolveControls controls;
  controls.sweeps = 4;
  controls.workers = 1;
  SolveTicket t = service.submit(random_vector(a.rows(), 4), controls);
  ASSERT_TRUE(t.valid());
  SolveTicket copy = t;  // tickets are value handles to shared state
  copy.wait();
  EXPECT_TRUE(t.done());
  EXPECT_EQ(&t.solution(), &copy.solution());
  EXPECT_THROW(static_cast<void>(t.block_solution()), Error);  // not block

  // Mixed-family guard: this service was built without prepare_lsq.
  EXPECT_THROW(service.submit_least_squares(random_vector(a.rows(), 5)),
               Error);
}

TEST(SolverService, DestructorDrainsOutstandingRequests) {
  const CsrMatrix a = laplacian_2d(8, 8);
  std::vector<SolveTicket> tickets;
  {
    ServiceOptions options = two_shard_options();
    options.prepare_lsq = false;
    SolverService service(a, options);
    SolveControls controls;
    controls.sweeps = 50;
    controls.workers = 1;
    for (int r = 0; r < 6; ++r)
      tickets.push_back(service.submit(random_vector(a.rows(), r + 1),
                                       controls));
    // Destructor runs with requests possibly still queued.
  }
  for (SolveTicket& t : tickets) {
    EXPECT_TRUE(t.done());  // completed before the destructor returned
    EXPECT_EQ(t.wait().status, SolveStatus::kBudgetCompleted);
  }
}

// --- (e) admission control, deadlines, priorities ----------------------------

/// Controls for a solve slow enough (hundreds of ms on any host) to hold a
/// 1-worker shard busy while the test manipulates the queue behind it.
SolveControls slow_controls(int sweeps = 4000) {
  SolveControls c;
  c.sweeps = sweeps;
  c.workers = 1;
  return c;
}

/// Polls until the service reports at least `n` requests executing; false
/// on timeout (~2s).
bool wait_for_in_flight(SolverService& service, long long n) {
  for (int i = 0; i < 2000; ++i) {
    if (service.stats().in_flight >= n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(SolverService, QueueFullSubmitsResolveRejectedWithoutThrowing) {
  const CsrMatrix a = laplacian_2d(32, 32);
  ServiceOptions options;
  options.shards = 1;
  options.workers_per_shard = 1;
  options.prepare_lsq = false;
  options.max_queue = 1;
  SolverService service(a, options);
  const std::vector<double> b = random_vector(a.rows(), 1);

  // Occupy the only shard, then fill the single queue slot.
  SolveTicket busy = service.submit(b, slow_controls());
  ASSERT_TRUE(wait_for_in_flight(service, 1));
  SolveTicket queued = service.submit(b, slow_controls());

  // Every further submit is refused — resolved, not thrown.
  std::vector<SolveTicket> rejected;
  for (int r = 0; r < 3; ++r)
    rejected.push_back(service.submit(b, slow_controls()));
  for (SolveTicket& t : rejected) {
    EXPECT_TRUE(t.done());  // rejection resolves at submit, before wait()
    const SolveOutcome& out = t.wait();  // must not throw
    EXPECT_EQ(out.status, SolveStatus::kRejected);
    EXPECT_NE(out.description.find("queue full"), std::string::npos)
        << out.description;
    EXPECT_EQ(t.shard(), -1);  // never reached a shard
  }

  const ServiceStats mid = service.stats();
  EXPECT_EQ(mid.rejected, 3);
  EXPECT_EQ(mid.queue_high_water, 1);  // the bound was respected

  // The admitted requests still complete normally.
  EXPECT_EQ(busy.wait().status, SolveStatus::kBudgetCompleted);
  EXPECT_EQ(queued.wait().status, SolveStatus::kBudgetCompleted);
  service.drain();
  const ServiceStats end = service.stats();
  EXPECT_EQ(end.submitted, 5);
  EXPECT_EQ(end.completed, 5);  // completed includes the rejected tickets
}

TEST(SolverService, DeadlineExpiredRequestsAreShedUnexecuted) {
  const CsrMatrix a = laplacian_2d(32, 32);
  ServiceOptions options;
  options.shards = 1;
  options.workers_per_shard = 1;
  options.prepare_lsq = false;
  SolverService service(a, options);
  const std::vector<double> b = random_vector(a.rows(), 2);

  // Block the shard for hundreds of ms, then queue a request whose 5ms
  // deadline is long gone by the time the shard frees up.
  SolveTicket busy = service.submit(b, slow_controls());
  ASSERT_TRUE(wait_for_in_flight(service, 1));
  RequestOptions strict;
  strict.deadline_seconds = 0.005;
  SolveTicket doomed = service.submit(b, slow_controls(), strict);

  const SolveOutcome& out = doomed.wait();  // resolves when the shard sheds
  EXPECT_EQ(out.status, SolveStatus::kRejected);
  EXPECT_NE(out.description.find("deadline"), std::string::npos)
      << out.description;
  EXPECT_EQ(doomed.shard(), -1);  // shed requests never execute
  // The initial iterate was never touched: still all zeros.
  for (double v : doomed.solution()) ASSERT_EQ(v, 0.0);

  EXPECT_EQ(busy.wait().status, SolveStatus::kBudgetCompleted);
  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed_deadline, 1);
  EXPECT_EQ(stats.rejected, 0);  // sheds are counted separately
  EXPECT_EQ(stats.completed, 2);
}

TEST(SolverService, HigherPriorityClassDispatchesFirst) {
  const CsrMatrix a = laplacian_2d(16, 16);
  auto trace_text = std::make_shared<std::ostringstream>();
  ServiceOptions options;
  options.shards = 1;
  options.workers_per_shard = 1;
  options.prepare_lsq = false;
  options.trace = std::make_shared<JsonTraceSink>(*trace_text);
  SolverService service(a, options);
  const std::vector<double> b = random_vector(a.rows(), 3);

  // While the shard is busy, queue a low-priority request first and a
  // high-priority one second; the high-priority one must run first.
  SolveTicket busy = service.submit(b, slow_controls());
  ASSERT_TRUE(wait_for_in_flight(service, 1));
  RequestOptions low, high;
  low.priority = 2;
  high.priority = 0;
  SolveControls quick;
  quick.sweeps = 2;
  quick.workers = 1;
  SolveTicket t_low = service.submit(b, quick, low);    // request id 2
  SolveTicket t_high = service.submit(b, quick, high);  // request id 3
  service.drain();

  // Completion order on a 1-worker single shard is execution order; the
  // trace log records completions in order, so id 3 must appear before
  // id 2.
  const std::string log = trace_text->str();
  const std::size_t pos_high = log.find("\"id\":3");
  const std::size_t pos_low = log.find("\"id\":2");
  ASSERT_NE(pos_high, std::string::npos) << log;
  ASSERT_NE(pos_low, std::string::npos) << log;
  EXPECT_LT(pos_high, pos_low) << log;
  EXPECT_NE(log.find("\"priority\":0"), std::string::npos);
  EXPECT_NE(log.find("\"priority\":2"), std::string::npos);
  EXPECT_EQ(t_high.wait().status, SolveStatus::kBudgetCompleted);
  EXPECT_EQ(t_low.wait().status, SolveStatus::kBudgetCompleted);
}

TEST(SolverService, SubmitRacingShutdownResolvesRejectedRegression) {
  // Regression for the PR-5 contract gap: a submit racing shutdown used to
  // throw a bare asyrgs::Error from a call path documented as concurrency-
  // safe.  Now shutdown() is an explicit, concurrency-safe operation and a
  // racing ticket resolves to kRejected.  The queue is kept full so every
  // racer submit is refused (queue-full before stop lands, shutting-down
  // after) no matter how the timing falls; shutdown()'s drain (two slow
  // solves on one 1-worker shard, hundreds of ms) overlaps the racer's
  // burst, and the object outlives both threads — the destructor is not
  // part of the race.
  const CsrMatrix a = laplacian_2d(32, 32);
  const std::vector<double> b = random_vector(a.rows(), 4);
  ServiceOptions options;
  options.shards = 1;
  options.workers_per_shard = 1;
  options.prepare_lsq = false;
  options.max_queue = 1;
  SolverService service(a, options);
  SolveTicket busy = service.submit(b, slow_controls(8000));
  ASSERT_TRUE(wait_for_in_flight(service, 1));
  SolveTicket queued = service.submit(b, slow_controls(8000));

  std::vector<SolveTicket> raced;
  std::atomic<bool> raced_threw{false};
  std::thread racer([&] {
    try {
      for (int i = 0; i < 3; ++i) {
        raced.push_back(service.submit(b, slow_controls(2)));
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    } catch (...) {
      raced_threw = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.shutdown();  // concurrent with the racer's submits
  racer.join();

  EXPECT_FALSE(raced_threw);  // the old contract gap: submit threw here
  ASSERT_EQ(raced.size(), 3u);
  for (SolveTicket& t : raced) {
    EXPECT_TRUE(t.done());
    EXPECT_EQ(t.wait().status, SolveStatus::kRejected);  // never hangs
  }
  EXPECT_EQ(busy.wait().status, SolveStatus::kBudgetCompleted);
  EXPECT_EQ(queued.wait().status, SolveStatus::kBudgetCompleted);
  // Idempotent: a second shutdown (and the destructor after it) is a no-op.
  service.shutdown();
}

TEST(SolverService, StatsInvariantHoldsUnderConcurrentLoad) {
  // stats() itself asserts submitted == completed + queued + in_flight
  // under the service mutex (it throws on violation), so hammering it from
  // a poller thread while clients submit through a tiny queue — forcing
  // rejects, sheds, and normal completions to race — is the test.
  const CsrMatrix a = laplacian_2d(12, 12);
  ServiceOptions options;
  options.shards = 2;
  options.workers_per_shard = 1;
  options.prepare_lsq = false;
  options.max_queue = 2;
  SolverService service(a, options);

  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done) static_cast<void>(service.stats());
  });

  constexpr int kClients = 3;
  constexpr int kPerClient = 40;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        SolveControls controls;
        controls.sweeps = 20;
        controls.workers = 1;
        controls.seed = static_cast<std::uint64_t>(c * kPerClient + r + 1);
        RequestOptions request;
        if (r % 5 == 4) request.deadline_seconds = 1e-9;  // instant expiry
        static_cast<void>(service.submit(
            random_vector(a.rows(), controls.seed), controls, request));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  service.drain();
  done = true;
  poller.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.queued, 0);
  EXPECT_EQ(stats.in_flight, 0);
  // Executed = completed minus refused; the shards' served counters and
  // the latency histograms must both account for exactly those.
  const long long executed =
      stats.completed - stats.rejected - stats.shed_deadline;
  long long served = 0;
  for (const ShardStats& s : stats.shards) served += s.served;
  EXPECT_EQ(served, executed);
  EXPECT_EQ(static_cast<long long>(stats.latency.count()), executed);
  EXPECT_LE(stats.queue_high_water, 2);  // max_queue was enforced
}

// --- (f) warm starts ---------------------------------------------------------

TEST(SolverService, WarmStartConvergesInFewerSweepsOnPerturbedRhs) {
  const CsrMatrix a = laplacian_2d(10, 10);
  ServiceOptions options;
  options.shards = 1;
  options.workers_per_shard = 1;
  options.prepare_lsq = true;
  SolverService service(a, options);

  SolveControls controls;
  // Pin the asynchronous method: its sweep count under barrier-per-sweep is
  // the direct "how much iteration did this take" measure (kAuto would
  // route a 1e-8 target to FCG).
  controls.method = SpdMethod::kAsyncRgs;
  controls.workers = 1;
  controls.sync = SyncMode::kBarrierPerSweep;
  controls.rel_tol = 1e-8;
  controls.sweeps = 100000;

  // First solve: from zero, to tolerance.
  const std::vector<double> b = random_vector(a.rows(), 5);
  SolveTicket first = service.submit(b, controls);
  ASSERT_EQ(first.wait().status, SolveStatus::kConverged);
  const std::vector<double> x_prev = first.solution();

  // The drifting-RHS re-solve: perturb b slightly, as a client streaming
  // related systems would see.
  std::vector<double> b2 = b;
  for (std::size_t i = 0; i < b2.size(); ++i)
    b2[i] += 1e-6 * static_cast<double>(i % 7);

  SolveTicket cold = service.submit(b2, controls);
  SolveTicket warm = service.submit(b2, x_prev, controls);
  ASSERT_EQ(cold.wait().status, SolveStatus::kConverged);
  ASSERT_EQ(warm.wait().status, SolveStatus::kConverged);
  // Starting ~1e-6 from the answer instead of O(1) away must save sweeps.
  EXPECT_LT(warm.wait().iterations, cold.wait().iterations);
  EXPECT_GT(warm.wait().iterations, 0);

  // Least-squares warm start through the same overload shape.
  SolveControls lsq = controls;
  lsq.step_size = 0.9;
  lsq.rel_tol = 1e-6;
  SolveTicket lsq_first = service.submit_least_squares(b, lsq);
  ASSERT_EQ(lsq_first.wait().status, SolveStatus::kConverged);
  SolveTicket lsq_cold = service.submit_least_squares(b2, lsq);
  SolveTicket lsq_warm =
      service.submit_least_squares(b2, lsq_first.solution(), lsq);
  ASSERT_EQ(lsq_warm.wait().status, SolveStatus::kConverged);
  EXPECT_LE(lsq_warm.wait().iterations, lsq_cold.wait().iterations);
}

TEST(SolverService, WarmStartValidatesIterateShapeEagerly) {
  const CsrMatrix a = laplacian_2d(6, 6);
  ServiceOptions options;
  options.shards = 1;
  options.prepare_lsq = true;
  SolverService service(a, options);
  const std::vector<double> b = random_vector(a.rows(), 6);
  EXPECT_THROW(service.submit(b, std::vector<double>(3, 0.0)), Error);
  EXPECT_THROW(
      service.submit_least_squares(b, std::vector<double>(3, 0.0)), Error);
}

TEST(SolverService, NonFiniteInputsThrowEagerlyAtSubmit) {
  // One NaN or infinity would poison every iterate it reaches and burn the
  // request's whole budget to a NaN residual on a shard; submit refuses it
  // on the caller's thread like any other malformed request.
  const CsrMatrix a = laplacian_2d(6, 6);
  ServiceOptions options;
  options.shards = 1;
  options.prepare_lsq = true;
  SolverService service(a, options);
  const std::vector<double> b = random_vector(a.rows(), 7);
  std::vector<double> b_nan = b;
  b_nan[5] = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> x0_inf(b.size(), 0.0);
  x0_inf[2] = -std::numeric_limits<double>::infinity();
  MultiVector block(a.rows(), 2);
  block.at(3, 1) = std::numeric_limits<double>::infinity();

  EXPECT_THROW(service.submit(b_nan), Error);
  EXPECT_THROW(service.submit(b, x0_inf), Error);
  EXPECT_THROW(service.submit(b_nan, std::vector<double>(b.size(), 0.0)),
               Error);
  EXPECT_THROW(service.submit_block(block), Error);
  EXPECT_THROW(service.submit_least_squares(b_nan), Error);
  EXPECT_THROW(service.submit_least_squares(b, x0_inf), Error);
  // None of them was admitted: malformed requests are not tickets.
  EXPECT_EQ(service.stats().submitted, 0);
}

// --- (g) observability -------------------------------------------------------

TEST(SolverService, ShardLatencyHistogramsAndWorkersSurface) {
  const CsrMatrix a = laplacian_2d(12, 12);
  ServiceOptions options;
  options.shards = 2;
  options.workers_per_shard = 2;
  options.prepare_lsq = false;
  SolverService service(a, options);

  SolveControls controls;
  controls.sweeps = 10;
  controls.workers = 1;
  const std::vector<double> b = random_vector(a.rows(), 7);
  std::vector<SolveTicket> tickets;
  for (int r = 0; r < 8; ++r) tickets.push_back(service.submit(b, controls));
  for (SolveTicket& t : tickets) t.wait();
  service.drain();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(static_cast<long long>(stats.latency.count()), 8);
  EXPECT_GT(stats.latency.p50(), 0.0);
  EXPECT_LE(stats.latency.p50(), stats.latency.p99());
  EXPECT_GT(stats.latency.max_seconds(), 0.0);
  std::uint64_t per_shard = 0;
  for (const ShardStats& s : stats.shards) {
    EXPECT_EQ(s.workers, 2);
    per_shard += s.latency.count();
  }
  EXPECT_EQ(per_shard, stats.latency.count());
}

TEST(SolverService, TraceSinkRecordsEveryRequestOutcome) {
  const CsrMatrix a = laplacian_2d(16, 16);
  auto trace_text = std::make_shared<std::ostringstream>();
  ServiceOptions options;
  options.shards = 1;
  options.workers_per_shard = 1;
  options.prepare_lsq = false;
  options.max_queue = 1;
  options.trace = std::make_shared<JsonTraceSink>(*trace_text);
  SolverService service(a, options);
  const std::vector<double> b = random_vector(a.rows(), 8);

  SolveTicket busy = service.submit(b, slow_controls());
  ASSERT_TRUE(wait_for_in_flight(service, 1));
  SolveTicket queued = service.submit(b, slow_controls());
  SolveTicket refused = service.submit(b, slow_controls());  // queue full
  EXPECT_EQ(refused.wait().status, SolveStatus::kRejected);
  service.drain();

  // Three events: two executed, one rejected; rejected ones carry
  // start_us = -1 (they never reached a shard).
  const std::string log = trace_text->str();
  std::size_t events = 0, rejected = 0, started = 0;
  std::istringstream lines(log);
  std::string line;
  while (std::getline(lines, line)) {
    ++events;
    if (line.find("\"status\":\"rejected\"") != std::string::npos) {
      ++rejected;
      EXPECT_NE(line.find("\"start_us\":-1"), std::string::npos) << line;
    } else if (line.find("\"start_us\":-1") == std::string::npos) {
      ++started;
    }
  }
  EXPECT_EQ(events, 3u) << log;
  EXPECT_EQ(rejected, 1u) << log;
  EXPECT_EQ(started, 2u) << log;
}

TEST(SolverService, AutoWorkerSizingLeavesNoCoreStranded) {
  // The PR-5 truncation bug: hw/shards rounded down stranded hw % shards
  // cores.  With auto sizing the shard pools must now sum to at least the
  // hardware thread count whenever shards <= hw (each shard still gets at
  // least one thread).
  const CsrMatrix a = laplacian_2d(6, 6);
  ServiceOptions options;
  options.shards = 3;
  options.workers_per_shard = 0;  // auto
  options.prepare_lsq = false;
  SolverService service(a, options);

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const ServiceStats stats = service.stats();
  ASSERT_EQ(stats.shards.size(), 3u);
  int total = 0;
  for (const ShardStats& s : stats.shards) {
    EXPECT_GE(s.workers, 1);
    total += s.workers;
  }
  if (hw >= 3) {
    EXPECT_GE(total, hw);  // no truncation losses
    // Remainder spreads one-by-one from shard 0: sizes differ by at most 1
    // and are non-increasing.
    for (std::size_t s = 1; s < stats.shards.size(); ++s) {
      EXPECT_GE(stats.shards[s - 1].workers, stats.shards[s].workers);
      EXPECT_LE(stats.shards[0].workers - stats.shards[s].workers, 1);
    }
  }
  EXPECT_EQ(service.workers_per_shard(), stats.shards[0].workers);
}

}  // namespace
}  // namespace asyrgs
