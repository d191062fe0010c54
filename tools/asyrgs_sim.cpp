// asyrgs_sim — convergence-vs-tau curves from the deterministic simulators.
//
//   asyrgs_sim --kind sdd --n 600 --model fixed --taus 0,16,64,256
//   asyrgs_sim --model event --taus 8,64,256            # taus = processors
//   asyrgs_sim --engine replay --model uniform --taus 8,32
//   asyrgs_sim --smoke                                  # CI self-check
//
// For each tau (or, for --model event, each virtual-processor count) the
// tool runs the requested engine — `virtual` drives the production update
// kernel through simulate/virtual_engine, `replay` re-executes the paper's
// governing iterations via simulate/async_sim — averages the final squared
// A-norm error over --trials direction seeds, and emits one JSON object:
//
//   {"kind":"sdd","n":600,"model":"fixed","engine":"virtual","beta":1,
//    "curves":[{"tau":16,"applicable":true,"measured_ratio":...,
//               "envelope":...,"record_points":[...],"error_sq":[...]},...]}
//
// `envelope` is the Theorem 2 (consistent models) or Theorem 4
// (inconsistent models) free-running bound evaluated at the measured
// spectrum, with `applicable` reporting whether the theorem's precondition
// held (2 rho tau beta^2 adjustment positive); curves with applicable=false
// carry envelope=1.  docs/TUNING.md discusses choosing n against P/tau so
// the preconditions hold.
//
// --smoke runs a fixed miniature configuration and additionally verifies
// the virtual engine's determinism contract (two identical runs bit-equal;
// zero-delay run equal to the sequential solver; weighted-sampler runs
// bit-reproducible and convergent), exiting nonzero on any violation — the
// CTest hook `smoke_sim` builds on this.
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "asyrgs/asyrgs.hpp"

using namespace asyrgs;

namespace {

struct CurvePoint {
  std::int64_t label = 0;  ///< the --taus entry (tau, or processors for event)
  index_t tau = 0;         ///< effective tau (measured tau-hat for event)
  EnvelopeCheck check;
  std::vector<std::uint64_t> record_points;
  std::vector<double> error_sq;
};

struct RunConfig {
  CsrMatrix a;
  std::vector<double> b;
  std::vector<double> x0;
  std::vector<double> x_star;
  double e0 = 0.0;
  TheoremInputs inputs;  ///< tau/beta filled per curve point
};

RunConfig make_config(const std::string& kind, index_t n, std::uint64_t seed) {
  RunConfig c;
  CsrMatrix raw;
  if (kind == "laplacian1d") {
    raw = laplacian_1d(n);
  } else if (kind == "sdd") {
    RandomBandedOptions opt;
    opt.n = n;
    opt.offdiag_per_row = 6;
    opt.bandwidth = 32;
    opt.dominance_margin = 0.1;
    opt.seed = seed;
    raw = random_sdd(opt);
  } else {
    throw Error("unknown --kind (laplacian1d|sdd)");
  }
  c.a = UnitDiagonalScaling(raw).scale_matrix(raw);
  c.x_star = random_vector(n, seed + 1);
  c.b = rhs_from_solution(c.a, c.x_star);
  c.x0.assign(static_cast<std::size_t>(n), 0.0);
  c.e0 = std::pow(a_norm_error(c.a, c.x0, c.x_star), 2);

  ThreadPool pool(2);
  c.inputs = measure_theorem_inputs(
      pool, c.a, /*tau=*/0, /*beta=*/1.0,
      static_cast<int>(std::min<index_t>(n, 400)));
  return c;
}

void write_json(std::ostream& out, const std::string& kind, index_t n,
                const std::string& model, const std::string& engine,
                double beta, const std::vector<CurvePoint>& curves) {
  out << "{\"kind\":\"" << kind << "\",\"n\":" << n << ",\"model\":\""
      << model << "\",\"engine\":\"" << engine << "\",\"beta\":" << beta
      << ",\"curves\":[";
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const CurvePoint& c = curves[i];
    if (i > 0) out << ",";
    out << "{\"label\":" << c.label << ",\"tau\":" << c.tau
        << ",\"applicable\":" << (c.check.applicable ? "true" : "false")
        << ",\"conforms\":" << (c.check.conforms ? "true" : "false")
        << ",\"measured_ratio\":" << c.check.measured_ratio
        << ",\"envelope\":" << c.check.envelope << ",\"m\":" << c.check.m
        << ",\"record_points\":[";
    for (std::size_t j = 0; j < c.record_points.size(); ++j)
      out << (j ? "," : "") << c.record_points[j];
    out << "],\"error_sq\":[";
    for (std::size_t j = 0; j < c.error_sq.size(); ++j)
      out << (j ? "," : "") << c.error_sq[j];
    out << "]}";
  }
  out << "]}\n";
}

/// Exact bit equality of two iterates — the determinism contract --smoke
/// enforces.
bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) return false;
  return true;
}

int run_smoke() {
  // Miniature fixed configuration: the checks mirror the acceptance tests
  // so a packaging/toolchain regression surfaces in CI smoke, not only in
  // the full suite.
  RunConfig c = make_config("laplacian1d", 64, 5);
  VirtualEngineOptions opt;
  opt.iterations = 64 * 8;
  opt.seed = 7;

  const ZeroDelay zero;
  const SimResult v1 = run_virtual_consistent(c.a, c.b, c.x0, c.x_star, zero, opt);
  const SimResult v2 = run_virtual_consistent(c.a, c.b, c.x0, c.x_star, zero, opt);
  if (!bit_equal(v1.x, v2.x)) {
    std::cerr << "smoke: repeated virtual runs are not bit-identical\n";
    return 2;
  }
  std::vector<double> x_seq = c.x0;
  RgsOptions ropt;
  ropt.sweeps = 8;
  ropt.seed = 7;
  rgs_solve(c.a, c.b, x_seq, ropt);
  if (!bit_equal(v1.x, x_seq)) {
    std::cerr << "smoke: zero-delay virtual run differs from sequential rgs\n";
    return 3;
  }

  EventSimOptions event;
  event.processors = 8;
  event.iterations = 64 * 8;
  event.seed = 7;
  VirtualEngineOptions eopt;
  eopt.step_size = 0.5;
  const VirtualEventResult e1 =
      run_virtual_event(c.a, c.b, c.x0, c.x_star, event, eopt);
  const VirtualEventResult e2 =
      run_virtual_event(c.a, c.b, c.x0, c.x_star, event, eopt);
  if (!bit_equal(e1.result.x, e2.result.x)) {
    std::cerr << "smoke: repeated event-driven runs are not bit-identical\n";
    return 4;
  }
  if (!(e1.result.final_error_sq < c.e0)) {
    std::cerr << "smoke: event-driven run did not reduce the error\n";
    return 5;
  }

  // Weighted-sampler conformance: the virtual engine drives the production
  // draw path (Philox stream mapped through the alias table), so a fixed
  // (seed, weights) run must be bit-reproducible and must still converge.
  {
    std::vector<double> w(static_cast<std::size_t>(c.a.rows()));
    for (index_t i = 0; i < c.a.rows(); ++i) {
      const nnz_t lo = c.a.row_ptr()[static_cast<std::size_t>(i)];
      const nnz_t hi = c.a.row_ptr()[static_cast<std::size_t>(i) + 1];
      double acc = 0.0;
      for (nnz_t t = lo; t < hi; ++t) {
        const double v = c.a.values()[static_cast<std::size_t>(t)];
        acc += v * v;
      }
      w[static_cast<std::size_t>(i)] = acc;
    }
    AliasTable weighted;
    weighted.build(w.data(), c.a.rows());
    const SimResult w1 =
        run_virtual_consistent(c.a, c.b, c.x0, c.x_star, zero, opt, &weighted);
    const SimResult w2 =
        run_virtual_consistent(c.a, c.b, c.x0, c.x_star, zero, opt, &weighted);
    if (!bit_equal(w1.x, w2.x)) {
      std::cerr << "smoke: repeated weighted-sampler runs are not "
                   "bit-identical\n";
      return 6;
    }
    if (!(w1.final_error_sq < c.e0)) {
      std::cerr << "smoke: weighted-sampler run did not reduce the error\n";
      return 7;
    }
  }

  std::vector<CurvePoint> curves;
  for (std::int64_t tau : {0, 4, 16}) {
    const FixedDelay delay(static_cast<index_t>(tau));
    VirtualEngineOptions copt;
    copt.iterations = 64 * 8;
    copt.seed = 7;
    copt.record_every = 64;
    const SimResult run =
        run_virtual_consistent(c.a, c.b, c.x0, c.x_star, delay, copt);
    CurvePoint p;
    p.label = tau;
    p.tau = static_cast<index_t>(tau);
    TheoremInputs in = c.inputs;
    in.tau = p.tau;
    in.beta = 1.0;
    p.check = check_consistent_envelope(in, c.e0, run.final_error_sq,
                                        copt.iterations);
    p.record_points = run.record_points;
    p.error_sq = run.error_sq_history;
    curves.push_back(std::move(p));
  }
  write_json(std::cout, "laplacian1d", 64, "fixed", "virtual", 1.0, curves);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("asyrgs_sim",
                "convergence-vs-tau curves from the deterministic simulators");
  auto kind = cli.add_string("kind", "sdd", "laplacian1d|sdd");
  auto n = cli.add_int("n", 600, "dimension");
  auto model = cli.add_string(
      "model", "fixed", "fixed|uniform|batch|window|bernoulli|event");
  auto engine = cli.add_string("engine", "virtual", "virtual|replay");
  auto taus = cli.add_int_list("taus", {0, 8, 32, 128},
                               "tau sweep (processor counts for event)");
  auto iterations = cli.add_int("iterations", 0, "updates (0 = 30 n)");
  auto step = cli.add_double("step", 1.0, "step size beta");
  auto p_incl = cli.add_double("p", 0.5, "bernoulli: inclusion probability");
  auto trials = cli.add_int("trials", 3, "direction seeds averaged");
  auto seed = cli.add_int("seed", 1, "base seed (matrix uses seed, trials t)");
  auto record_every = cli.add_int("record-every", 0,
                                  "error-trace cadence (0 = final only)");
  auto out_path = cli.add_string("out", "", "output path (default stdout)");
  auto smoke = cli.add_flag("smoke", "run the fixed CI self-check and exit");

  try {
    cli.parse(argc, argv);
    if (*smoke) return run_smoke();

    RunConfig c = make_config(*kind, static_cast<index_t>(*n),
                              static_cast<std::uint64_t>(*seed));
    const std::uint64_t m =
        *iterations > 0 ? static_cast<std::uint64_t>(*iterations)
                        : static_cast<std::uint64_t>(30 * *n);
    const bool use_virtual = *engine == "virtual";
    require(use_virtual || *engine == "replay",
            "unknown --engine (virtual|replay)");

    std::vector<CurvePoint> curves;
    for (std::int64_t label : taus.value()) {
      CurvePoint point;
      point.label = label;
      double err_acc = 0.0;
      for (std::int64_t t = 0; t < *trials; ++t) {
        SimOptions opt;
        opt.iterations = m;
        opt.seed = static_cast<std::uint64_t>(*seed + 1000 * (t + 1));
        opt.step_size = *step;
        if (t == 0)
          opt.record_every = static_cast<std::uint64_t>(*record_every);

        SimResult run;
        std::unique_ptr<ConsistentDelayModel> consistent;
        std::unique_ptr<InconsistentDelayModel> inconsistent;
        if (*model == "fixed") {
          consistent = std::make_unique<FixedDelay>(static_cast<index_t>(label));
        } else if (*model == "uniform") {
          consistent = std::make_unique<UniformDelay>(
              static_cast<index_t>(label), opt.seed);
        } else if (*model == "batch") {
          consistent =
              std::make_unique<BatchDelay>(static_cast<index_t>(label));
        } else if (*model == "window") {
          inconsistent =
              std::make_unique<WindowExclusion>(static_cast<index_t>(label));
        } else if (*model == "bernoulli") {
          inconsistent = std::make_unique<BernoulliInclusion>(
              static_cast<index_t>(label), *p_incl, opt.seed);
        } else if (*model == "event") {
          EventSimOptions event;
          event.processors = static_cast<int>(label);
          event.iterations = m;
          event.seed = opt.seed;
          auto sched = std::make_unique<EventDrivenSchedule>(
              EventDrivenSchedule::build(c.a, event));
          point.tau = sched->tau();
          inconsistent = std::move(sched);
        } else {
          throw Error("unknown --model");
        }

        if (consistent) {
          point.tau = consistent->tau();
          run = use_virtual
                    ? run_virtual_consistent(c.a, c.b, c.x0, c.x_star,
                                             *consistent, opt)
                    : simulate_consistent(c.a, c.b, c.x0, c.x_star,
                                          *consistent, opt);
        } else {
          if (*model != "event") point.tau = inconsistent->tau();
          run = use_virtual
                    ? run_virtual_inconsistent(c.a, c.b, c.x0, c.x_star,
                                               *inconsistent, opt)
                    : simulate_inconsistent(c.a, c.b, c.x0, c.x_star,
                                            *inconsistent, opt);
        }
        err_acc += run.final_error_sq;
        if (t == 0) {
          point.record_points = run.record_points;
          point.error_sq = run.error_sq_history;
        }
      }
      TheoremInputs in = c.inputs;
      in.tau = point.tau;
      in.beta = *step;
      const double mean_err = err_acc / static_cast<double>(*trials);
      const bool is_consistent =
          *model == "fixed" || *model == "uniform" || *model == "batch";
      point.check =
          is_consistent
              ? check_consistent_envelope(in, c.e0, mean_err, m)
              : check_inconsistent_envelope(in, c.e0, mean_err, m);
      curves.push_back(std::move(point));
    }

    if (out_path.value().empty()) {
      write_json(std::cout, *kind, static_cast<index_t>(*n), *model, *engine,
                 *step, curves);
    } else {
      std::ofstream file(*out_path);
      require(file.good(), "cannot open --out path");
      write_json(file, *kind, static_cast<index_t>(*n), *model, *engine,
                 *step, curves);
      std::cerr << "wrote " << *out_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
