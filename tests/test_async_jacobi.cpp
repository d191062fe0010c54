// Chaotic-relaxation (asynchronous Jacobi) baseline tests.
#include <gtest/gtest.h>

#include "asyrgs/core/async_jacobi.hpp"
#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/random_spd.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/iter/jacobi.hpp"
#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/linalg/vector_ops.hpp"

namespace asyrgs {
namespace {

TEST(AsyncJacobi, ConvergesOnStrictlyDominantSystem) {
  // The classic applicability class: chaotic relaxation converges when the
  // Jacobi iteration matrix is contracting.
  ThreadPool pool(8);
  RandomBandedOptions opt;
  opt.n = 600;
  opt.seed = 3;
  const CsrMatrix a = random_sdd(opt);
  const std::vector<double> x_star = random_vector(a.rows(), 5);
  const std::vector<double> b = rhs_from_solution(a, x_star);

  std::vector<double> x(a.rows(), 0.0);
  AsyncJacobiOptions jopt;
  jopt.sweeps = 300;
  jopt.workers = 8;
  const SolveOutcome rep = async_jacobi_solve(pool, a, b, x, jopt);
  EXPECT_EQ(rep.iterations, 300);
  EXPECT_EQ(rep.status, SolveStatus::kBudgetCompleted);
  EXPECT_LT(relative_residual(a, b, x), 1e-8);
  EXPECT_LT(nrm2(subtract(x, x_star)) / nrm2(x_star), 1e-6);
}

TEST(AsyncJacobi, SingleWorkerMatchesGaussSeidelFlavour) {
  // With one worker the in-place relaxation is deterministic; it must reach
  // at least the accuracy of synchronous Jacobi at equal sweep counts
  // (in-place updates use fresher data).
  ThreadPool pool(4);
  RandomBandedOptions opt;
  opt.n = 300;
  opt.seed = 7;
  const CsrMatrix a = random_sdd(opt);
  const std::vector<double> x_star = random_vector(a.rows(), 9);
  const std::vector<double> b = rhs_from_solution(a, x_star);

  const int sweeps = 30;
  std::vector<double> x_async(a.rows(), 0.0);
  AsyncJacobiOptions jopt;
  jopt.sweeps = sweeps;
  jopt.workers = 1;
  async_jacobi_solve(pool, a, b, x_async, jopt);

  std::vector<double> x_sync(a.rows(), 0.0);
  SolveOptions so;
  so.max_iterations = sweeps;
  so.rel_tol = 0.0;
  jacobi_solve(pool, a, b, x_sync, so);

  EXPECT_LE(relative_residual(a, b, x_async),
            relative_residual(a, b, x_sync) * 1.01);
}

TEST(AsyncJacobi, DampingKeepsIterationStable) {
  ThreadPool pool(4);
  const CsrMatrix a = laplacian_2d(12, 12);  // weakly dominant: Jacobi is
                                             // marginal, damping helps
  const std::vector<double> x_star = random_vector(a.rows(), 11);
  const std::vector<double> b = rhs_from_solution(a, x_star);

  std::vector<double> x(a.rows(), 0.0);
  AsyncJacobiOptions jopt;
  jopt.sweeps = 2500;
  jopt.workers = 4;
  jopt.damping = 0.8;
  async_jacobi_solve(pool, a, b, x, jopt);
  EXPECT_LT(relative_residual(a, b, x), 1e-4);
}

TEST(AsyncJacobi, RejectsBadOptions) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_1d(10);
  const std::vector<double> b = random_vector(10, 1);
  std::vector<double> x(10, 0.0);
  AsyncJacobiOptions jopt;
  jopt.damping = 0.0;
  EXPECT_THROW(async_jacobi_solve(pool, a, b, x, jopt), Error);
  jopt.damping = 1.5;
  EXPECT_THROW(async_jacobi_solve(pool, a, b, x, jopt), Error);
}

}  // namespace
}  // namespace asyrgs
