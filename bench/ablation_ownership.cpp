// Ablation F — Restricted randomization ("owner computes", Sections 1/10).
//
// Two of the paper's acknowledged limitations point at the same remedy:
//   * "Adapting the algorithm to the distributed memory setting is not
//     straightforward ... a more limited form of randomization should be
//     used";
//   * "Our algorithm also tends to generate much more cache misses than
//     classical asynchronous methods for structured matrices ... it may be
//     possible to circumvent this using a more restricted form of
//     randomization."
//
// This bench compares the shared scope (any worker updates any coordinate)
// against the owner-computes scope (worker w draws only from its contiguous
// partition) on a *structured* matrix (3-D Laplacian, where locality pays)
// and on the unstructured Gram matrix (where it cannot), reporting sweep
// throughput and the residual after a fixed budget.
#include <iostream>

#include "bench_common.hpp"

using namespace asyrgs;
using namespace asyrgs::bench;

int main(int argc, char** argv) {
  CliParser cli("ablation_ownership",
                "shared vs owner-computes randomization (cache locality)");
  auto sweeps = cli.add_int("sweeps", 40, "sweep budget per run");
  auto threads = cli.add_int("threads", 0, "worker threads (0 = all)");
  auto grid = cli.add_int("grid", 28, "3-D Laplacian grid side");
  auto repeats = cli.add_int("repeats", 3, "timing repetitions (min)");
  cli.parse(argc, argv);

  print_banner("ablation_ownership",
               "Sections 1/10 restricted-randomization extension");
  ThreadPool& pool = ThreadPool::global();
  const int workers = *threads > 0 ? static_cast<int>(*threads) : pool.size();

  struct Case {
    std::string label;
    CsrMatrix matrix;
  };
  std::vector<Case> cases;
  cases.push_back({"laplacian_3d", laplacian_3d(*grid, *grid, *grid)});
  {
    SocialGramOptions gopt;
    gopt.terms = 3000;
    gopt.documents = 12000;
    gopt.ridge = 0.5;
    gopt.topics = 100;
    gopt.topic_concentration = 0.92;
    cases.push_back({"social_gram", make_social_gram(gopt).gram});
  }

  Table table({"matrix", "scope", "time_per_sweep_ms", "rel_residual",
               "speed_vs_shared"});
  for (const Case& c : cases) {
    const std::vector<double> x_star = random_vector(c.matrix.rows(), 3);
    const std::vector<double> b = rhs_from_solution(c.matrix, x_star);

    double shared_time = 0.0;
    for (RandomizationScope scope :
         {RandomizationScope::kShared, RandomizationScope::kOwnerComputes}) {
      double best = 1e300;
      double residual = 0.0;
      for (int rep = 0; rep < *repeats; ++rep) {
        std::vector<double> x(c.matrix.rows(), 0.0);
        SolveControls opt;
        opt.method = SpdMethod::kAsyncRgs;
        opt.sweeps = static_cast<int>(*sweeps);
        opt.workers = workers;
        opt.seed = 1;
        opt.scope = scope;
        const SolveOutcome r =
            SpdProblem(pool, c.matrix, /*check_input=*/false).solve(b, x, opt);
        best = std::min(best, r.seconds);
        residual = relative_residual(c.matrix, b, x);
      }
      const double per_sweep_ms = best / static_cast<double>(*sweeps) * 1e3;
      if (scope == RandomizationScope::kShared) shared_time = best;
      table.add_row({c.label,
                     scope == RandomizationScope::kShared ? "shared"
                                                          : "owner-computes",
                     fmt_fixed(per_sweep_ms, 3), fmt_sci(residual, 2),
                     fmt_fixed(shared_time / best, 2)});
    }
  }
  table.print(std::cout);
  std::cout << "# shape check: owner-computes speeds up the structured "
               "matrix (locality) more than the unstructured Gram,\n"
            << "# at equal sweep counts and comparable accuracy — the "
               "restricted randomization the paper proposes.\n";
  return 0;
}
