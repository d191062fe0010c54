// Ablation C — Applicability: randomized AsyRGS vs classical chaotic
// relaxation (asynchronous Jacobi) across matrix classes.
//
// The paper's applicability claim (Sections 1-2): historical asynchronous
// methods carry guarantees only on restricted classes — Chazan-Miranker
// convergence needs rho(|M|) < 1 for the Jacobi iteration matrix M, i.e.
// essentially diagonal dominance — while AsyRGS "will converge for
// essentially any large sparse symmetric positive definite matrix".
//
// Part 1 (real hardware) runs both methods on (a) a strictly diagonally
// dominant matrix and (b) an SPD block-coupled matrix with rho(|M|) >> 1,
// and prints each method's guarantee next to its measured residual.  On a
// cache-coherent multicore the observed delays are tiny, so chaotic
// relaxation often converges *beyond* its guarantee — the point is the
// guarantee column, not a hardware failure.
//
// Part 2 (simulator) enforces the delays hardware happens to avoid: under a
// full-sweep batch delay on the coupled matrix, the unit-step iteration
// diverges (no guarantee, and indeed no convergence), while the paper's
// step-size rule beta~ = 1/(1+2 rho tau) restores convergence — the
// randomized framework's guarantee is constructive where the classical one
// simply ends.
//
// Both parts check themselves: the driver exits 1 when a part-1 case whose
// guarantee column says "yes" misses a relative residual of 1e-8, or when
// part 2 loses its shape (bounded delay converging, full-sweep delay at
// beta = 1 diverging, beta~ converging).  CTest runs it as
// smoke_ablation_applicability at --n 2000 --threads 1.
#include <cmath>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace asyrgs;
using namespace asyrgs::bench;

namespace {

/// max_i sum_{j != i} |A_ij| / |A_ii|: an upper bound on rho(|M|) that is
/// also >= rho(|M|)'s dominant-block value for the block-coupled matrix;
/// < 1 certifies chaotic relaxation, and for block_coupled_spd the true
/// rho(|M|) = (block-1)*c equals the row sum, so > 1 here means "no
/// guarantee" exactly.
double jacobi_row_ratio(const CsrMatrix& a) {
  double worst = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    double diag = 0.0, off = 0.0;
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t t = 0; t < cols.size(); ++t) {
      if (cols[t] == i)
        diag = std::abs(vals[t]);
      else
        off += std::abs(vals[t]);
    }
    worst = std::max(worst, off / diag);
  }
  return worst;
}

/// Free-running solve from x = 0: AsyRGS (seed 1), or chaotic relaxation
/// with round-robin row ownership (the shared scope's cyclic order; one
/// writer per row, so non-atomic stores lose nothing).
double run_residual(ThreadPool& pool, const CsrMatrix& a,
                    const std::vector<double>& b, bool use_rgs, int sweeps,
                    int workers) {
  std::vector<double> x(a.rows(), 0.0);
  SolveControls opt;
  opt.sweeps = sweeps;
  opt.workers = workers;
  if (use_rgs) {
    opt.method = SpdMethod::kAsyncRgs;
    opt.seed = 1;
  } else {
    opt.method = SpdMethod::kAsyncJacobi;
    opt.scope = RandomizationScope::kShared;
    opt.atomic_writes = false;
  }
  SpdProblem(pool, a, /*check_input=*/false).solve(b, x, opt);
  for (double v : x)
    if (!std::isfinite(v)) return std::numeric_limits<double>::infinity();
  return relative_residual(a, b, x);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("ablation_applicability",
                "AsyRGS vs chaotic relaxation across matrix classes");
  auto n_opt = cli.add_int("n", 20000, "matrix dimension");
  auto sweeps = cli.add_int("sweeps", 300, "sweeps for both methods");
  auto threads = cli.add_int("threads", 0, "worker threads (0 = all)");
  auto coupling = cli.add_double(
      "coupling", 0.5, "off-diagonal coupling c of the non-dominant matrix");
  auto block = cli.add_int("block", 40, "dense block size (coupled matrix)");
  cli.parse(argc, argv);

  print_banner("ablation_applicability",
               "Sections 1-2 applicability claim (methodological ablation)");
  ThreadPool& pool = ThreadPool::global();
  const int workers = *threads > 0 ? static_cast<int>(*threads) : pool.size();
  const index_t n = *n_opt;
  const int s = static_cast<int>(*sweeps);
  // Target for every case whose table row claims a guarantee.
  constexpr double kGuaranteedTol = 1e-8;
  std::vector<std::string> failures;

  // (a) strictly diagonally dominant; (b) SPD, strongly block-coupled.
  RandomBandedOptions sdd_opt;
  sdd_opt.n = n;
  sdd_opt.offdiag_per_row = 12;
  sdd_opt.bandwidth = 128;
  sdd_opt.seed = 5;
  const CsrMatrix sdd = random_sdd(sdd_opt);
  const CsrMatrix coupled =
      block_coupled_spd(n, static_cast<index_t>(*block), *coupling);

  std::cout << "# part 1: real shared-memory run (" << workers
            << " threads, " << s << " sweeps)\n";
  Table table({"matrix", "rho(|M|)<=", "jacobi_guarantee", "jacobi_residual",
               "asyrgs_guarantee", "asyrgs_residual"});
  for (const auto& [name, mat] :
       {std::pair<const char*, const CsrMatrix*>{"sdd", &sdd},
        std::pair<const char*, const CsrMatrix*>{"block_coupled", &coupled}}) {
    const std::vector<double> x_star = random_vector(mat->rows(), 3);
    const std::vector<double> b = rhs_from_solution(*mat, x_star);
    const double ratio = jacobi_row_ratio(*mat);

    const double jac = run_residual(pool, *mat, b, false, s, workers);
    const double rgs = run_residual(pool, *mat, b, true, s, workers);

    // AsyRGS guarantee (Theorem 2 with tau ~ P on the unit-scaled matrix).
    const CsrMatrix scaled = UnitDiagonalScaling(*mat).scale_matrix(*mat);
    const double two_rho_tau =
        2.0 * rho(scaled) * static_cast<double>(workers);

    table.add_row({name, fmt_fixed(ratio, 2),
                   ratio < 1.0 ? "yes (dominant)" : "NONE",
                   fmt_sci(jac, 2),
                   two_rho_tau < 1.0 ? "yes (2*rho*tau<1)" : "needs beta<1",
                   fmt_sci(rgs, 2)});
    if (ratio < 1.0 && !(jac <= kGuaranteedTol))
      failures.push_back(std::string("chaotic relaxation on ") + name +
                         " is guaranteed but reached " + fmt_sci(jac, 2));
    if (two_rho_tau < 1.0 && !(rgs <= kGuaranteedTol))
      failures.push_back(std::string("AsyRGS on ") + name +
                         " is guaranteed but reached " + fmt_sci(rgs, 2));
  }
  table.print(std::cout);
  std::cout << "# on cache-coherent hardware delays are tiny, so chaotic "
               "relaxation can converge beyond its guarantee;\n"
            << "# the guarantee gap is what part 2 makes operational.\n\n";

  // --- Part 2: enforced worst-case delay (simulator) -------------------------
  const index_t n2 = 960;
  const CsrMatrix small_coupled =
      block_coupled_spd(n2, static_cast<index_t>(*block), *coupling);
  const std::vector<double> x_star = random_vector(n2, 7);
  const std::vector<double> b2 = rhs_from_solution(small_coupled, x_star);
  const std::vector<double> x0(static_cast<std::size_t>(n2), 0.0);
  const double e0 = std::pow(a_norm_error(small_coupled, x0, x_star), 2);
  const double rho_val = rho(small_coupled);

  std::cout << "# part 2: simulator with enforced batch delay on the "
               "coupled matrix (n=" << n2 << ")\n";
  Table sim_table({"delay", "beta", "E_m/E_0", "status"});
  struct Config {
    index_t batch;
    double beta;
    const char* label;
    bool converges;  ///< the shape part 2 demonstrates
  };
  const double beta_safe = optimal_beta_consistent(rho_val, n2 - 1);
  const Config configs[] = {
      {static_cast<index_t>(workers), 1.0, "tau=P (bounded)", true},
      {n2, 1.0, "tau=n (full sweep)", false},
      {n2, beta_safe, "tau=n, beta~", true},
  };
  for (const Config& cfg : configs) {
    const BatchDelay delay(cfg.batch);
    SimOptions opt;
    opt.iterations = static_cast<std::uint64_t>(n2) * 40;
    opt.seed = 3;
    opt.step_size = cfg.beta;
    const SimResult sim =
        simulate_consistent(small_coupled, b2, x0, x_star, delay, opt);
    const double ratio = sim.final_error_sq / e0;
    sim_table.add_row({cfg.label, fmt_fixed(cfg.beta, 4), fmt_sci(ratio, 2),
                       ratio < 1.0 ? "converging" : "DIVERGING"});
    if ((ratio < 1.0) != cfg.converges)
      failures.push_back(std::string(cfg.label) + " should be " +
                         (cfg.converges ? "converging" : "diverging") +
                         " but E_m/E_0 = " + fmt_sci(ratio, 2));
  }
  sim_table.print(std::cout);
  std::cout << "# shape check: bounded delay converges at beta=1; full-sweep "
               "delay diverges at beta=1 and is rescued by beta~ —\n"
            << "# randomization + step-size control give guarantees where "
               "chaotic-relaxation theory has none.\n";
  for (const std::string& f : failures)
    std::cerr << "ablation_applicability: FAILED: " << f << "\n";
  return failures.empty() ? 0 : 1;
}
