// Chaotic-relaxation (asynchronous Jacobi) baseline tests: SpdMethod::
// kAsyncJacobi on the prepared SpdProblem handle.
#include <gtest/gtest.h>

#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/random_spd.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/iter/jacobi.hpp"
#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/linalg/vector_ops.hpp"
#include "asyrgs/problem.hpp"

namespace asyrgs {
namespace {

/// A fixed-budget, free-running chaotic-relaxation request.  Each row has
/// one writer, so the non-atomic store loses no update.  kOwnerComputes
/// gives each worker a contiguous block of rows, kShared rows w, w+P, ...
SolveControls chaotic(int sweeps, int workers, RandomizationScope scope) {
  SolveControls controls;
  controls.method = SpdMethod::kAsyncJacobi;
  controls.sweeps = sweeps;
  controls.workers = workers;
  controls.scope = scope;
  controls.atomic_writes = false;
  return controls;
}

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
  const SolveOutcome rep = SpdProblem(pool, a).solve(
      b, x, chaotic(300, 8, RandomizationScope::kOwnerComputes));
  EXPECT_EQ(rep.iterations, 300);
  EXPECT_EQ(rep.status, SolveStatus::kBudgetCompleted);
  EXPECT_EQ(rep.method_used, SpdMethod::kAsyncJacobi);
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
  SpdProblem(pool, a).solve(
      b, x_async, chaotic(sweeps, 1, RandomizationScope::kOwnerComputes));

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
  SolveControls controls = chaotic(2500, 4, RandomizationScope::kOwnerComputes);
  controls.step_size = 0.8;
  SpdProblem(pool, a).solve(b, x, controls);
  EXPECT_LT(relative_residual(a, b, x), 1e-4);
}

TEST(AsyncJacobi, RejectsBadOptions) {
  ThreadPool pool(2);
  const CsrMatrix a = laplacian_1d(10);
  const std::vector<double> b = random_vector(10, 1);
  std::vector<double> x(10, 0.0);
  SpdProblem problem(pool, a);
  SolveControls controls = chaotic(10, 0, RandomizationScope::kOwnerComputes);
  controls.step_size = 0.0;
  EXPECT_THROW(problem.solve(b, x, controls), Error);
  controls.step_size = 1.5;
  EXPECT_THROW(problem.solve(b, x, controls), Error);
}

}  // namespace
}  // namespace asyrgs
