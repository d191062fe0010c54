// Ablation D — Overdetermined least squares (Section 8, Theorem 5).
//
// Regression directly on the synthetic document-term factor F (m x n,
// m >> n): asynchronous randomized coordinate descent (iteration (21))
// against the sequential RCD (iteration (20)), randomized Kaczmarz, and
// CGNR.  Reports convergence (normal-equations residual) and the
// thread-scaling of the asynchronous variant.  Expected shape: async LSQ
// converges linearly and scales with threads; its per-iteration cost is
// higher than sequential RCD (which maintains the residual), matching the
// paper's cost analysis.
#include <iostream>

#include "bench_common.hpp"

using namespace asyrgs;
using namespace asyrgs::bench;

int main(int argc, char** argv) {
  CliParser cli("lsq_solvers",
                "Section 8: async least squares vs RCD, Kaczmarz, CGNR");
  auto terms = cli.add_int("terms", 1500, "columns of F (n)");
  auto documents = cli.add_int("documents", 9000, "rows of F (m)");
  auto sweeps = cli.add_int("sweeps", 40, "sweep budget for each method");
  auto threads_opt =
      cli.add_int_list("threads", {}, "thread sweep for async LSQ");
  cli.parse(argc, argv);

  print_banner("lsq_solvers", "Section 8 / Theorem 5 (methodological bench)");
  SocialGramOptions gopt;
  gopt.terms = *terms;
  gopt.documents = *documents;
  gopt.mean_doc_length = 10;
  gopt.seed = 42;
  const SocialGram system = make_social_gram(gopt);
  // Terms that never occur give empty columns; drop them as the paper did.
  const CsrMatrix f = drop_empty_columns(system.factor).matrix;
  const CsrMatrix ft = f.transpose();
  std::cout << "# factor: " << f.rows() << " x " << f.cols()
            << " nnz=" << f.nnz() << "\n";

  const std::vector<double> coeffs = random_vector(f.cols(), 3);
  std::vector<double> labels = rhs_from_solution(f, coeffs);
  // Make the system inconsistent (real regression noise).
  {
    Xoshiro256 rng(5);
    for (double& v : labels) v += 0.01 * normal(rng);
  }

  ThreadPool& pool = ThreadPool::global();
  const int s = static_cast<int>(*sweeps);

  Table table({"method", "threads", "sweeps/iters", "normal_residual",
               "time_s"});

  // Sequential RCD (iteration (20)).
  {
    std::vector<double> x(f.cols(), 0.0);
    RgsOptions opt;
    opt.sweeps = s;
    opt.step_size = 0.95;
    opt.track_history = true;
    WallTimer t;
    const RgsReport rep = rcd_lsq_solve(f, labels, x, opt);
    table.add_row({"rcd (seq)", "1", std::to_string(rep.sweeps_done),
                   fmt_sci(rep.final_relative_residual),
                   fmt_fixed(t.seconds(), 3)});
  }

  // Randomized Kaczmarz (consistent-system baseline; on noisy data it
  // stalls at the noise floor, as theory predicts).
  {
    std::vector<double> x(f.cols(), 0.0);
    SolveOptions opt;
    opt.max_iterations = s;
    opt.rel_tol = 0.0;
    WallTimer t;
    const SolveReport rep = kaczmarz_solve(f, labels, x, opt, 17);
    // Report its *normal equations* residual for comparability.
    std::vector<double> r(labels.size());
    f.multiply(x.data(), r.data());
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = labels[i] - r[i];
    std::vector<double> g(static_cast<std::size_t>(f.cols()));
    f.multiply_transpose(r.data(), g.data());
    std::vector<double> g0(static_cast<std::size_t>(f.cols()));
    f.multiply_transpose(labels.data(), g0.data());
    table.add_row({"kaczmarz", "1", std::to_string(rep.iterations),
                   fmt_sci(nrm2(g) / nrm2(g0)), fmt_fixed(t.seconds(), 3)});
  }

  // CGNR.
  {
    std::vector<double> x(f.cols(), 0.0);
    SolveOptions opt;
    opt.max_iterations = s;
    opt.rel_tol = 0.0;
    WallTimer t;
    const SolveReport rep = cgnr_solve(pool, f, labels, x, opt);
    table.add_row({"cgnr", "1", std::to_string(rep.iterations),
                   fmt_sci(rep.final_relative_residual),
                   fmt_fixed(t.seconds(), 3)});
  }

  // Async LSQ across threads (iteration (21)).
  for (int threads : thread_sweep_from(*threads_opt)) {
    std::vector<double> x(f.cols(), 0.0);
    SolveControls opt;
    opt.method = SpdMethod::kAsyncRgs;
    opt.sweeps = s;
    opt.step_size = 0.95;
    opt.workers = threads;
    opt.seed = 1;
    WallTimer t;
    LsqProblem(pool, f, ft).solve(labels, x, opt);
    const double secs = t.seconds();
    // Normal-equations residual of the final iterate.
    std::vector<double> r(labels.size());
    f.multiply(x.data(), r.data());
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = labels[i] - r[i];
    std::vector<double> g(static_cast<std::size_t>(f.cols()));
    f.multiply_transpose(r.data(), g.data());
    std::vector<double> g0(static_cast<std::size_t>(f.cols()));
    f.multiply_transpose(labels.data(), g0.data());
    table.add_row({"async-lsq", std::to_string(threads), std::to_string(s),
                   fmt_sci(nrm2(g) / nrm2(g0)), fmt_fixed(secs, 3)});
  }

  table.print(std::cout);
  std::cout << "# shape check: async-lsq reaches RCD-comparable accuracy "
               "and its wall time drops with threads;\n"
            << "# CGNR converges in far fewer iterations (Krylov vs basic "
               "iteration), as the paper concedes.\n";
  return 0;
}
