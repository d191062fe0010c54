// Quickstart: prepare an SPD problem once, then solve it repeatedly with
// the asynchronous randomized Gauss-Seidel solver.
//
//   build/examples/quickstart [--n 128] [--threads 8] [--tol 1e-8]
//
// Walks through the prepare-once / solve-many workflow:
//   1. assemble (or load) a sparse SPD matrix,
//   2. bind it into an SpdProblem handle (validation + analysis paid here),
//   3. solve with per-call controls — and solve again, against a second
//      right-hand side, without re-paying any setup,
//   4. check residuals and the structured outcome.
#include <iostream>

#include "asyrgs/asyrgs.hpp"

using namespace asyrgs;

int main(int argc, char** argv) {
  CliParser cli("quickstart", "minimal prepared-handle AsyRGS walkthrough");
  auto n_opt = cli.add_int("n", 64, "grid side (matrix is n^2 x n^2)");
  auto threads = cli.add_int("threads", 0, "worker threads (0 = all cores)");
  auto tol = cli.add_double("tol", 1e-8, "relative residual target");
  cli.parse(argc, argv);

  // 1. A model SPD problem: the 2-D Laplacian on an n x n grid.  Any
  //    CsrMatrix works — load your own with read_matrix_market_file().
  const CsrMatrix a = laplacian_2d(*n_opt, *n_opt);
  std::cout << "matrix: " << a.rows() << " x " << a.cols() << " with "
            << a.nnz() << " nonzeros\n";

  // 2. Prepare the problem.  This is where the per-matrix work happens:
  //    symmetry + positive-diagonal validation, diagonal reciprocals, and
  //    the solver scratch.  The handle binds the matrix and a thread pool;
  //    both must outlive it.
  SpdProblem problem(ThreadPool::global(), a, /*check_input=*/true);

  // 3. Per-call controls.  kBarrierPerSweep = the paper's "occasional
  //    synchronization" scheme: fully asynchronous within a sweep, one
  //    barrier per sweep, residual checked at the barrier.
  SolveControls controls;
  controls.method = SpdMethod::kAsyncRgs;  // kAuto would pick FCG at 1e-8
  controls.workers = static_cast<int>(*threads);
  controls.sweeps = 50000;  // budget; stops early at rel_tol
  controls.rel_tol = *tol;
  controls.sync = SyncMode::kBarrierPerSweep;

  // A right-hand side with known solution so we can verify the answer.
  const std::vector<double> x_true = random_vector(a.rows(), /*seed=*/1);
  const std::vector<double> b = rhs_from_solution(a, x_true);

  std::vector<double> x(a.rows(), 0.0);
  const SolveOutcome first = problem.solve(b, x, controls);

  std::cout << "first solve:  " << to_string(first.status) << " after "
            << first.iterations << " sweeps on " << first.workers
            << " workers in " << first.seconds << " s\n"
            << "  relative residual: " << relative_residual(a, b, x) << "\n"
            << "  error vs known solution: "
            << nrm2(subtract(x, x_true)) / nrm2(x_true) << "\n";

  // 4. Solve again — a different right-hand side, a different seed — on the
  //    same prepared handle.  No validation, no analysis, no allocation is
  //    repeated; this is the serving pattern for many requests against one
  //    operator.  A one-shot solve is the same two steps, run once.
  const std::vector<double> b2 = random_vector(a.rows(), /*seed=*/7);
  controls.seed = 2;
  std::vector<double> x2(a.rows(), 0.0);
  const SolveOutcome second = problem.solve(b2, x2, controls);

  std::cout << "second solve: " << to_string(second.status) << " after "
            << second.iterations << " sweeps (" << second.description
            << ")\n"
            << "  relative residual: " << relative_residual(a, b2, x2)
            << "\n";

  const ProblemStats stats = problem.stats();
  std::cout << "prepared-handle stats: " << stats.solves << " solves, "
            << stats.validation_passes << " validation pass(es), "
            << stats.scratch_allocations << " scratch allocations\n";

  return (first.converged() && second.converged()) ? 0 : 1;
}
