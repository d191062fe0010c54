// Least-squares solver tests (Section 8): sequential RCD, asynchronous
// variant, and the Kaczmarz/CGNR baselines.
#include <gtest/gtest.h>

#include <cmath>

#include "asyrgs/core/async_lsq.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/iter/kaczmarz.hpp"
#include "asyrgs/linalg/vector_ops.hpp"
#include "asyrgs/problem.hpp"
#include "asyrgs/sparse/coo.hpp"
#include "asyrgs/support/prng.hpp"

namespace asyrgs {
namespace {

/// Random full-rank sparse m x n matrix with a few entries per row plus a
/// guaranteed diagonal band so every column is nonzero.
CsrMatrix random_tall_matrix(index_t m, index_t n, std::uint64_t seed) {
  CooBuilder b(m, n);
  Xoshiro256 rng(seed);
  for (index_t i = 0; i < m; ++i) {
    b.add(i, i % n, 1.0 + uniform_real(rng));  // full column rank anchor
    for (int t = 0; t < 3; ++t)
      b.add(i, uniform_index(rng, n), normal(rng) * 0.4);
  }
  return b.to_csr();
}

struct LsqFixture {
  CsrMatrix a;
  std::vector<double> x_star;
  std::vector<double> b;  // consistent: b = A x_star
};

LsqFixture consistent_problem(index_t m, index_t n, std::uint64_t seed) {
  LsqFixture p;
  p.a = random_tall_matrix(m, n, seed);
  p.x_star = random_vector(n, seed + 1);
  p.b = rhs_from_solution(p.a, p.x_star);
  return p;
}

TEST(RcdLsq, SolvesConsistentSystem) {
  LsqFixture p = consistent_problem(600, 200, 3);
  std::vector<double> x(200, 0.0);
  RgsOptions opt;
  opt.sweeps = 4000;
  opt.rel_tol = 1e-9;
  opt.step_size = 1.0;
  const RgsReport rep = rcd_lsq_solve(p.a, p.b, x, opt);
  EXPECT_TRUE(rep.converged);
  EXPECT_LT(nrm2(subtract(x, p.x_star)) / nrm2(p.x_star), 1e-6);
}

TEST(RcdLsq, FindsLeastSquaresSolutionOfInconsistentSystem) {
  // Add noise orthogonal to nothing in particular; the solver must still
  // drive the normal-equations residual A^T(b - Ax) to zero.
  LsqFixture p = consistent_problem(500, 150, 7);
  Xoshiro256 rng(11);
  for (double& v : p.b) v += 0.05 * normal(rng);

  std::vector<double> x(150, 0.0);
  RgsOptions opt;
  opt.sweeps = 6000;
  opt.rel_tol = 1e-8;
  const RgsReport rep = rcd_lsq_solve(p.a, p.b, x, opt);
  EXPECT_TRUE(rep.converged);

  std::vector<double> r(p.b.size());
  p.a.multiply(x.data(), r.data());
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = p.b[i] - r[i];
  std::vector<double> g(150);
  p.a.multiply_transpose(r.data(), g.data());
  EXPECT_LT(nrm2(g), 1e-6 * nrm2(p.b));
}

TEST(AsyncLsq, OneWorkerTracksSequentialClosely) {
  // The async variant recomputes residual entries instead of maintaining r,
  // so the arithmetic differs in rounding only; trajectories stay close.
  ThreadPool pool(2);
  LsqFixture p = consistent_problem(300, 100, 13);

  std::vector<double> x_seq(100, 0.0);
  RgsOptions sopt;
  sopt.sweeps = 20;
  sopt.seed = 17;
  sopt.step_size = 0.9;
  rcd_lsq_solve(p.a, p.b, x_seq, sopt);

  std::vector<double> x_async(100, 0.0);
  SolveControls aopt;
  aopt.method = SpdMethod::kAsyncRgs;
  aopt.sweeps = 20;
  aopt.seed = 17;
  aopt.step_size = 0.9;
  aopt.workers = 1;
  LsqProblem(pool, p.a).solve(p.b, x_async, aopt);

  EXPECT_LT(nrm2(subtract(x_seq, x_async)),
            1e-8 * std::max(1.0, nrm2(x_seq)));
}

class AsyncLsqThreadsTest : public ::testing::TestWithParam<int> {};

TEST_P(AsyncLsqThreadsTest, ConvergesMultithreaded) {
  const int workers = GetParam();
  ThreadPool pool(workers);
  LsqFixture p = consistent_problem(800, 250, 19);

  std::vector<double> x(250, 0.0);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 6000;
  opt.seed = 23;
  opt.step_size = 0.9;  // Theorem 5 wants beta < 1
  opt.workers = workers;
  opt.sync = SyncMode::kBarrierPerSweep;
  opt.rel_tol = 1e-8;
  const SolveOutcome rep = LsqProblem(pool, p.a).solve(p.b, x, opt);
  EXPECT_TRUE(rep.converged()) << "workers=" << workers;
  EXPECT_LT(nrm2(subtract(x, p.x_star)) / nrm2(p.x_star), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, AsyncLsqThreadsTest,
                         ::testing::Values(1, 4, 8));

TEST(AsyncLsq, OwnerComputesScopeConverges) {
  // PR-2 behavior previously untested: `scope` partitions the *columns*
  // among workers (owner-computes over the least-squares coordinates).
  // Barrier mode per the RandomizationScope guidance — a partition must not
  // be left frozen by a worker draining a free-running budget early.
  for (int workers : {2, 4}) {
    ThreadPool pool(workers);
    LsqFixture p = consistent_problem(700, 220, 37);
    std::vector<double> x(220, 0.0);
    SolveControls opt;
    opt.method = SpdMethod::kAsyncRgs;
    opt.sweeps = 6000;
    opt.seed = 41;
    opt.step_size = 0.9;
    opt.workers = workers;
    opt.scope = RandomizationScope::kOwnerComputes;
    opt.sync = SyncMode::kBarrierPerSweep;
    opt.rel_tol = 1e-8;
    const SolveOutcome rep = LsqProblem(pool, p.a).solve(p.b, x, opt);
    EXPECT_TRUE(rep.converged()) << "workers=" << workers;
    EXPECT_LE(rep.relative_residual, 1e-8) << "workers=" << workers;
    EXPECT_LT(nrm2(subtract(x, p.x_star)) / nrm2(p.x_star), 1e-5)
        << "workers=" << workers;
  }
}

TEST(AsyncLsq, BarrierRunTracksHistoryAndStopsAtTolerance) {
  // A multi-worker least-squares run with history: the residual check
  // crosses LsqResidual's pre-reduction barrier every sweep.  The run must
  // hit the tolerance, record a residual history entry per rendezvous, and
  // stop early rather than consuming the (deliberately oversized) sweep
  // budget.
  ThreadPool pool(2);
  LsqFixture p = consistent_problem(500, 160, 43);
  std::vector<double> x(160, 0.0);
  SolveControls opt;
  opt.method = SpdMethod::kAsyncRgs;
  opt.sweeps = 200000;
  opt.seed = 47;
  opt.step_size = 0.9;
  opt.workers = 2;
  opt.sync = SyncMode::kBarrierPerSweep;
  opt.track_history = true;
  opt.rel_tol = 1e-6;
  const SolveOutcome rep = LsqProblem(pool, p.a).solve(p.b, x, opt);
  EXPECT_TRUE(rep.converged());
  EXPECT_LE(rep.relative_residual, 1e-6);
  EXPECT_FALSE(rep.residual_history.empty());
  EXPECT_LT(rep.updates,
            static_cast<long long>(opt.sweeps) * p.a.cols());
}

TEST(AsyncLsq, RejectsZeroColumn) {
  ThreadPool pool(2);
  CooBuilder builder(3, 2);
  builder.add(0, 0, 1.0);
  builder.add(1, 0, 2.0);
  builder.add(2, 0, 3.0);  // column 1 is structurally... present but empty
  const CsrMatrix a = builder.to_csr();
  EXPECT_THROW(LsqProblem(pool, a), Error);
}

// --- baselines -----------------------------------------------------------------

TEST(Kaczmarz, SolvesConsistentSystem) {
  LsqFixture p = consistent_problem(500, 150, 41);
  std::vector<double> x(150, 0.0);
  SolveOptions so;
  so.max_iterations = 400;
  so.rel_tol = 1e-9;
  const SolveReport rep = kaczmarz_solve(p.a, p.b, x, so, 43);
  EXPECT_TRUE(rep.converged);
  EXPECT_LT(nrm2(subtract(x, p.x_star)) / nrm2(p.x_star), 1e-7);
}

TEST(Cgnr, SolvesLeastSquares) {
  ThreadPool pool(4);
  LsqFixture p = consistent_problem(400, 120, 47);
  Xoshiro256 rng(49);
  for (double& v : p.b) v += 0.02 * normal(rng);

  std::vector<double> x(120, 0.0);
  SolveOptions so;
  so.max_iterations = 2000;
  so.rel_tol = 1e-10;
  const SolveReport rep = cgnr_solve(pool, p.a, p.b, x, so);
  EXPECT_TRUE(rep.converged);

  std::vector<double> r(p.b.size());
  p.a.multiply(x.data(), r.data());
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = p.b[i] - r[i];
  std::vector<double> g(120);
  p.a.multiply_transpose(r.data(), g.data());
  EXPECT_LT(nrm2(g), 1e-7 * nrm2(p.b));
}

TEST(Cgnr, AgreesWithRcdOnConsistentProblem) {
  ThreadPool pool(4);
  LsqFixture p = consistent_problem(300, 90, 53);

  std::vector<double> x_cgnr(90, 0.0);
  SolveOptions so;
  so.max_iterations = 2000;
  so.rel_tol = 1e-12;
  cgnr_solve(pool, p.a, p.b, x_cgnr, so);

  std::vector<double> x_rcd(90, 0.0);
  RgsOptions ro;
  ro.sweeps = 8000;
  ro.rel_tol = 1e-10;
  rcd_lsq_solve(p.a, p.b, x_rcd, ro);

  EXPECT_LT(nrm2(subtract(x_cgnr, x_rcd)) / nrm2(x_cgnr), 1e-5);
}

}  // namespace
}  // namespace asyrgs
