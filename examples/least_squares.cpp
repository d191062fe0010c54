// Overdetermined least squares with the asynchronous randomized coordinate
// descent solver (Section 8): regress labels directly on the document-term
// matrix instead of forming the Gram matrix.
//
//   build/examples/least_squares [--terms 1200] [--documents 8000]
#include <iostream>

#include "asyrgs/asyrgs.hpp"

using namespace asyrgs;

int main(int argc, char** argv) {
  CliParser cli("least_squares",
                "async randomized coordinate descent for min ||Fx - b||_2");
  auto terms = cli.add_int("terms", 1200, "columns of F");
  auto documents = cli.add_int("documents", 8000, "rows of F");
  auto sweeps = cli.add_int("sweeps", 200, "sweep budget");
  auto threads = cli.add_int("threads", 0, "worker threads (0 = all)");
  cli.parse(argc, argv);

  SocialGramOptions gopt;
  gopt.terms = *terms;
  gopt.documents = *documents;
  gopt.mean_doc_length = 10;
  const SocialGram system = make_social_gram(gopt);
  // Terms that never occur make F rank-deficient; drop their columns (the
  // paper's preprocessing).
  const ColumnCompression compressed = drop_empty_columns(system.factor);
  const CsrMatrix& f = compressed.matrix;
  std::cout << "factor F: " << f.rows() << " x " << f.cols() << " ("
            << system.factor.cols() - f.cols() << " empty columns dropped)\n";

  // Labels = linear model + noise: the least-squares problem is
  // inconsistent, so the solver must find the normal-equations solution.
  const std::vector<double> truth = random_vector(f.cols(), 3);
  std::vector<double> labels = rhs_from_solution(f, truth);
  Xoshiro256 rng(5);
  for (double& v : labels) v += 0.02 * normal(rng);

  ThreadPool& pool = ThreadPool::global();
  // Prepare the least-squares problem once: F^T is materialized (at the
  // handle's compact storage width), the column-norm denominators are
  // precomputed, and full column rank is validated.  Every labelling pass
  // after that is a plain solve() against the handle.
  LsqProblem problem(pool, f);
  SolveControls controls;
  controls.sweeps = static_cast<int>(*sweeps);
  controls.workers = static_cast<int>(*threads);
  controls.step_size = 0.95;  // Theorem 5 regime: beta < 1
  controls.sync = SyncMode::kBarrierPerSweep;
  controls.rel_tol = 1e-6;  // on ||F^T(b - Fx)|| / ||F^T b||

  std::vector<double> x(f.cols(), 0.0);
  WallTimer t;
  const SolveOutcome rep = problem.solve(labels, x, controls);
  std::cout << "status=" << to_string(rep.status) << " after "
            << rep.iterations << " sweeps on " << rep.workers
            << " threads in " << t.seconds() << " s\n";

  // How close are the recovered regression coefficients to the truth?
  // (They differ by the noise projection; report both metrics.)
  std::vector<double> r(labels.size());
  f.multiply(x.data(), r.data());
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = labels[i] - r[i];
  std::vector<double> g(static_cast<std::size_t>(f.cols()));
  f.multiply_transpose(r.data(), g.data());
  std::cout << "normal-equations residual ||F^T(b-Fx)||: " << nrm2(g) << "\n";
  std::cout << "coefficient error vs noiseless truth:    "
            << nrm2(subtract(x, truth)) / nrm2(truth) << "\n";
  return rep.converged() ? 0 : 1;
}
