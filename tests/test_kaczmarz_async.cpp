// Asynchronous row-action Kaczmarz on the shared engine (LsqProblem with
// SpdMethod::kAsyncKaczmarz): convergence on consistent and inconsistent
// rectangular systems under every sampling policy and worker count,
// single-worker reproducibility, prepare-once amortization of the weighted
// sampler, the serving path, and the method/sampling validation matrix.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/iter/kaczmarz.hpp"
#include "asyrgs/linalg/vector_ops.hpp"
#include "asyrgs/problem.hpp"
#include "asyrgs/serve/service.hpp"
#include "asyrgs/sparse/coo.hpp"
#include "asyrgs/support/prng.hpp"

namespace asyrgs {
namespace {

/// Random full-rank sparse m x n matrix with a few entries per row plus a
/// guaranteed diagonal band so every column is nonzero (the test_lsq
/// fixture, reproduced so the suites stay independent).
CsrMatrix random_tall_matrix(index_t m, index_t n, std::uint64_t seed) {
  CooBuilder b(m, n);
  Xoshiro256 rng(seed);
  for (index_t i = 0; i < m; ++i) {
    b.add(i, i % n, 1.0 + uniform_real(rng));
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

/// ||A^T (b - A x)|| — the normal-equations residual both least-squares
/// methods converge on.
double normal_residual(const CsrMatrix& a, const std::vector<double>& b,
                       const std::vector<double>& x) {
  std::vector<double> r(b.size());
  a.multiply(x.data(), r.data());
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  std::vector<double> g(static_cast<std::size_t>(a.cols()));
  a.multiply_transpose(r.data(), g.data());
  return nrm2(g);
}

SolveControls kaczmarz_controls(SamplingPolicy sampling, int workers) {
  SolveControls c;
  c.method = SpdMethod::kAsyncKaczmarz;
  c.sampling = sampling;
  c.workers = workers;
  c.sweeps = 400;
  c.rel_tol = 1e-9;
  c.sync = SyncMode::kBarrierPerSweep;  // a tolerance needs rendezvous
  return c;
}

TEST(AsyncKaczmarz, SolvesConsistentRectangularSystemEveryPolicyAndTeam) {
  ThreadPool pool(4);
  LsqFixture p = consistent_problem(300, 100, 3);
  LsqProblem problem(pool, p.a);

  for (SamplingPolicy sampling :
       {SamplingPolicy::kUniform, SamplingPolicy::kWeighted}) {
    for (int workers : {1, 2, 4}) {
      std::vector<double> x(100, 0.0);
      const SolveOutcome out =
          problem.solve(p.b, x, kaczmarz_controls(sampling, workers));
      EXPECT_TRUE(out.converged())
          << to_string(sampling) << " workers=" << workers
          << " status=" << to_string(out.status);
      EXPECT_EQ(out.method_used, SpdMethod::kAsyncKaczmarz);
      EXPECT_EQ(out.sampling_used, sampling);
      EXPECT_LT(nrm2(subtract(x, p.x_star)) / nrm2(p.x_star), 1e-6)
          << to_string(sampling) << " workers=" << workers;
    }
  }
}

TEST(AsyncKaczmarz, DrivesNormalResidualDownOnInconsistentSystem) {
  // Noisy right-hand side: no exact solution exists.  The Kaczmarz iterate
  // converges to a neighbourhood of the least-squares solution whose radius
  // shrinks with the step size, so a damped run must land near the
  // normal-equations stationary point.
  ThreadPool pool(2);
  LsqFixture p = consistent_problem(250, 80, 7);
  Xoshiro256 rng(11);
  for (double& v : p.b) v += 0.05 * normal(rng);

  std::vector<double> atb(80);
  p.a.multiply_transpose(p.b.data(), atb.data());
  const double scale = nrm2(atb);  // normal residual at x = 0

  // Ground truth: the exact least-squares solution via CGNR.
  std::vector<double> x_ls(80, 0.0);
  SolveOptions exact;
  exact.max_iterations = 2000;
  exact.rel_tol = 1e-12;
  ASSERT_TRUE(cgnr_solve(pool, p.a, p.b, x_ls, exact).converged);

  LsqProblem problem(pool, p.a);
  const auto run = [&](double beta) {
    SolveControls c = kaczmarz_controls(SamplingPolicy::kWeighted, 2);
    c.sweeps = 4000;
    c.step_size = beta;
    c.rel_tol = 1e-6;  // unreachable inside the noise ball: fixed budget
    std::vector<double> x(80, 0.0);
    const SolveOutcome out = problem.solve(p.b, x, c);
    EXPECT_EQ(out.method_used, SpdMethod::kAsyncKaczmarz);
    return x;
  };

  const std::vector<double> x_damped = run(0.25);
  EXPECT_LT(normal_residual(p.a, p.b, x_damped), 0.03 * scale);
  EXPECT_LT(nrm2(subtract(x_damped, x_ls)) / nrm2(x_ls), 0.05);

  // The horizon shrinks with the step size (measured: rel ~1.0e-2 at
  // beta = 0.25 vs ~4.3e-3 at beta = 0.05 on this fixture).
  const std::vector<double> x_damped_more = run(0.05);
  EXPECT_LT(normal_residual(p.a, p.b, x_damped_more),
            normal_residual(p.a, p.b, x_damped));
}

TEST(AsyncKaczmarz, OneWorkerPinnedRunsAreBitReproducible) {
  ThreadPool pool(2);
  LsqFixture p = consistent_problem(200, 60, 5);
  LsqProblem problem(pool, p.a);

  for (SamplingPolicy sampling :
       {SamplingPolicy::kUniform, SamplingPolicy::kWeighted}) {
    SolveControls c = kaczmarz_controls(sampling, 1);
    c.sweeps = 40;
    c.rel_tol = 0.0;  // fixed budget: identical work both runs
    std::vector<double> x1(60, 0.0), x2(60, 0.0);
    problem.solve(p.b, x1, c);
    problem.solve(p.b, x2, c);
    ASSERT_EQ(x1.size(), x2.size());
    for (std::size_t i = 0; i < x1.size(); ++i)
      ASSERT_EQ(std::memcmp(&x1[i], &x2[i], sizeof(double)), 0)
          << to_string(sampling) << " i=" << i;
  }
}

TEST(AsyncKaczmarz, WeightedSamplerIsBuiltOncePerHandle) {
  ThreadPool pool(2);
  LsqFixture p = consistent_problem(150, 50, 9);
  LsqProblem problem(pool, p.a);

  SolveControls c = kaczmarz_controls(SamplingPolicy::kWeighted, 1);
  c.sweeps = 10;
  c.rel_tol = 0.0;
  std::vector<double> x(50, 0.0);
  problem.solve(p.b, x, c);
  const long long after_first = problem.stats().sampler_builds;
  EXPECT_GE(after_first, 1);
  for (int run = 0; run < 3; ++run) {
    x.assign(50, 0.0);
    problem.solve(p.b, x, c);
  }
  // Repeat weighted solves reuse the cached alias table.
  EXPECT_EQ(problem.stats().sampler_builds, after_first);
}

TEST(AsyncKaczmarz, SequentialBaselineAgreesOnTheSolution) {
  // The sequential Strohmer-Vershynin baseline and the async row-action
  // method share the csr_row_sub_dot scan; both must recover x_star on a
  // consistent system (their draw streams differ, so agreement is on the
  // solution, not the trajectory).
  LsqFixture p = consistent_problem(240, 80, 13);
  std::vector<double> x_seq(80, 0.0);
  SolveOptions seq;
  seq.max_iterations = 4000;
  seq.rel_tol = 1e-10;
  const SolveReport rep = kaczmarz_solve(p.a, p.b, x_seq, seq);
  EXPECT_TRUE(rep.converged);

  ThreadPool pool(2);
  LsqProblem problem(pool, p.a);
  std::vector<double> x_async(80, 0.0);
  SolveControls c = kaczmarz_controls(SamplingPolicy::kWeighted, 1);
  const SolveOutcome out = problem.solve(p.b, x_async, c);
  EXPECT_TRUE(out.converged());
  EXPECT_LT(nrm2(subtract(x_async, x_seq)) / nrm2(x_seq), 1e-6);
}

TEST(AsyncKaczmarz, ZeroRowsAreLegalAndSkipped) {
  // A row with no entries has ||A_i|| = 0; its updates must no-op instead
  // of dividing by zero.  Consistency requires b_i = 0 on that row.
  CooBuilder builder(5, 3);
  builder.add(0, 0, 2.0);
  builder.add(1, 1, 3.0);
  builder.add(2, 2, 1.5);
  builder.add(4, 0, 1.0);
  builder.add(4, 2, -1.0);  // row 3 stays empty
  const CsrMatrix a = builder.to_csr();
  const std::vector<double> x_star = {1.0, -2.0, 0.5};
  const std::vector<double> b = rhs_from_solution(a, x_star);

  ThreadPool pool(2);
  LsqProblem problem(pool, a);
  for (SamplingPolicy sampling :
       {SamplingPolicy::kUniform, SamplingPolicy::kWeighted}) {
    std::vector<double> x(3, 0.0);
    const SolveOutcome out =
        problem.solve(b, x, kaczmarz_controls(sampling, 2));
    EXPECT_TRUE(out.converged()) << to_string(sampling);
    for (double v : x) EXPECT_TRUE(std::isfinite(v));
    EXPECT_LT(nrm2(subtract(x, x_star)), 1e-6) << to_string(sampling);
  }
}

TEST(AsyncKaczmarz, ServiceServesKaczmarzRequests) {
  LsqFixture p = consistent_problem(220, 70, 17);
  ServiceOptions options;
  options.shards = 2;
  options.workers_per_shard = 2;
  options.prepare_spd = false;  // rectangular input: SPD prep would reject
  options.prepare_lsq = true;
  SolverService service(p.a, options);

  std::vector<SolveTicket> tickets;
  for (int i = 0; i < 4; ++i)
    tickets.push_back(service.submit_least_squares(
        p.b, kaczmarz_controls(SamplingPolicy::kWeighted, 2)));
  for (SolveTicket& t : tickets) {
    const SolveOutcome out = t.wait();
    EXPECT_TRUE(out.converged());
    EXPECT_EQ(out.method_used, SpdMethod::kAsyncKaczmarz);
    EXPECT_EQ(out.sampling_used, SamplingPolicy::kWeighted);
    EXPECT_LT(nrm2(subtract(t.solution(), p.x_star)) / nrm2(p.x_star), 1e-6);
  }
}

// --- validation matrix -------------------------------------------------------

TEST(SamplingValidation, SpdProblemRejectsKaczmarzAndKrylovSampling) {
  const CsrMatrix a = laplacian_1d(16);
  ThreadPool pool(2);
  SpdProblem problem(pool, a);
  std::vector<double> b(16, 1.0);
  std::vector<double> x(16, 0.0);

  SolveControls kaczmarz;
  kaczmarz.method = SpdMethod::kAsyncKaczmarz;
  EXPECT_THROW(problem.solve(b, x, kaczmarz), Error);

  // The Krylov methods draw no random directions: non-uniform sampling is
  // a contract violation, not a silent no-op.
  SolveControls cg;
  cg.method = SpdMethod::kCg;
  cg.sampling = SamplingPolicy::kWeighted;
  EXPECT_THROW(problem.solve(b, x, cg), Error);
}

TEST(SamplingValidation, NonUniformPoliciesRequireSharedScope) {
  // The rule is checked with the other controls, before a solve builds the
  // compact copy or the alias table its kernels would read.
  const CsrMatrix a = laplacian_1d(16);
  ThreadPool pool(2);
  SpdProblem problem(pool, a);
  std::vector<double> b(16, 1.0);
  std::vector<double> x(16, 0.0);

  SolveControls c;
  c.method = SpdMethod::kAsyncRgs;
  c.sampling = SamplingPolicy::kWeighted;
  c.scope = RandomizationScope::kOwnerComputes;
  EXPECT_THROW(problem.solve(b, x, c), Error);
  MultiVector bb(16, 2);
  MultiVector xb(16, 2);
  EXPECT_THROW(problem.solve(bb, xb, c), Error);
  EXPECT_EQ(problem.stats().compact_builds, 0);
  EXPECT_EQ(problem.stats().sampler_builds, 0);
}

TEST(SamplingValidation, LsqProblemRejectsKrylovMethods) {
  LsqFixture p = consistent_problem(40, 20, 21);
  ThreadPool pool(2);
  LsqProblem problem(pool, p.a);
  std::vector<double> x(20, 0.0);
  SolveControls c;
  c.method = SpdMethod::kCg;
  EXPECT_THROW(problem.solve(p.b, x, c), Error);
}

}  // namespace
}  // namespace asyrgs
