// Ablation B — Step-size control (Section 6).
//
// Two questions the paper's Section 6 raises:
//  1. In the real parallel solver, how does the final error after a fixed
//     sweep budget depend on beta, and where does the measured optimum sit
//     relative to the theory's beta~ = 1/(1 + 2 rho tau) (with tau ~ P)?
//  2. In the simulator under hostile delay (2 rho tau >= 1, where beta = 1
//     has no guarantee), does shrinking beta restore convergence?
#include <cmath>
#include <iostream>

#include "bench_common.hpp"

using namespace asyrgs;
using namespace asyrgs::bench;

int main(int argc, char** argv) {
  CliParser cli("ablation_beta", "Step-size ablation (Section 6)");
  GramCli gram_cli = add_gram_options(cli);
  auto sweeps = cli.add_int("sweeps", 30, "AsyRGS sweep budget");
  auto threads = cli.add_int("threads", 0, "worker threads (0 = all)");
  cli.parse(argc, argv);

  print_banner("ablation_beta", "Section 6 (Theorem 3) ablation");
  const SocialGram system = build_gram(gram_cli);
  const CsrMatrix a = scaled_gram(system);
  print_matrix_profile(a);

  ThreadPool& pool = ThreadPool::global();
  const int workers = *threads > 0 ? static_cast<int>(*threads) : pool.size();
  const double rho_val = rho(a);
  // tau ~ P in the reference scenario (Section 4 discussion).
  const index_t tau_est = workers;
  const double beta_opt = optimal_beta_consistent(rho_val, tau_est);
  std::cout << "# threads=" << workers << " rho=" << fmt_sci(rho_val)
            << " tau~P=" << tau_est << " theory beta~="
            << fmt_fixed(beta_opt, 4) << "\n";

  const std::vector<double> x_star = random_vector(a.rows(), 5);
  const std::vector<double> b = rhs_from_solution(a, x_star);
  const double x_star_norm = a_norm(a, x_star);

  // --- Part 1: real parallel solver, beta sweep -----------------------------
  Table table({"beta", "rel_residual", "rel_anorm_err", "nu_tau(beta)"});
  std::vector<double> betas = {0.1, 0.25, 0.5, 0.75, 0.9, 1.0,
                               1.25, 1.5, beta_opt};
  std::sort(betas.begin(), betas.end());
  for (double beta : betas) {
    std::vector<double> x(a.rows(), 0.0);
    SolveControls opt;
    opt.method = SpdMethod::kAsyncRgs;
    opt.sweeps = static_cast<int>(*sweeps);
    opt.seed = 1;
    opt.workers = workers;
    opt.step_size = beta;
    SpdProblem(pool, a, /*check_input=*/false).solve(b, x, opt);
    const double nu = beta <= 1.0 ? nu_tau(rho_val, tau_est, beta) : 0.0;
    table.add_row({fmt_fixed(beta, 4),
                   fmt_sci(relative_residual(a, b, x)),
                   fmt_sci(a_norm_error(a, x, x_star) / x_star_norm),
                   beta <= 1.0 ? fmt_fixed(nu, 4) : "(n/a)"});
  }
  table.print(std::cout);
  std::cout << "# shape check: on this lightly-delayed hardware run the "
               "optimum sits near beta ~ 1;\n"
            << "# the theory's beta~ is the *guaranteed-safe* choice, not "
               "the empirical optimum (bounds are pessimistic).\n\n";

  // --- Part 2: simulator under hostile delay --------------------------------
  // Unit-diagonal matrix with lambda_max >> 2 under full-batch delay:
  // beta = 1 diverges, small beta converges (cf. Section 6: "a convergent
  // method for any delay").
  const index_t n = 48;
  const double c = 0.2;
  CooBuilder builder(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) builder.add(i, j, i == j ? 1.0 : c);
  const CsrMatrix hostile = builder.to_csr();
  const std::vector<double> hx_star = random_vector(n, 17);
  const std::vector<double> hb = rhs_from_solution(hostile, hx_star);
  const std::vector<double> hx0(static_cast<std::size_t>(n), 0.0);
  const double he0 = std::pow(a_norm_error(hostile, hx0, hx_star), 2);
  const double h_rho = rho(hostile);
  const BatchDelay batch(n);

  Table hostile_table({"beta", "E_m/E_0", "status"});
  for (double beta :
       {1.0, 0.5, 0.25, optimal_beta_consistent(h_rho, n - 1)}) {
    SimOptions opt;
    opt.iterations = static_cast<std::uint64_t>(n) * 40;
    opt.seed = 3;
    opt.step_size = beta;
    const SimResult sim =
        simulate_consistent(hostile, hb, hx0, hx_star, batch, opt);
    const double ratio = sim.final_error_sq / he0;
    hostile_table.add_row(
        {fmt_fixed(beta, 4), fmt_sci(ratio),
         ratio < 1.0 ? "converging" : "DIVERGING"});
  }
  std::cout << "# hostile-delay simulator: lambda_max="
            << fmt_fixed(1.0 + (static_cast<double>(n) - 1.0) * c, 1)
            << ", batch delay tau=" << (n - 1) << ", 2*rho*tau="
            << fmt_fixed(2.0 * h_rho * static_cast<double>(n - 1), 2) << "\n";
  hostile_table.print(std::cout);
  std::cout << "# shape check: beta=1 diverges here; small beta (incl. the "
               "theory's beta~) converges.\n";
  return 0;
}
