#include "asyrgs/solve.hpp"

#include "asyrgs/problem.hpp"
#include "asyrgs/support/timer.hpp"

namespace asyrgs {

namespace {

const char* method_name(SpdMethod m) {
  switch (m) {
    case SpdMethod::kAuto:
      return "auto";
    case SpdMethod::kAsyncRgs:
      return "asyrgs";
    case SpdMethod::kFcgAsyRgs:
      return "fcg+asyrgs";
    case SpdMethod::kCg:
      return "cg";
    case SpdMethod::kAsyncKaczmarz:
      return "kaczmarz";
  }
  return "?";
}

}  // namespace

SpdSolveSummary solve_spd(ThreadPool& pool, const CsrMatrix& a,
                          const std::vector<double>& b, std::vector<double>& x,
                          const SpdSolveOptions& options) {
  require(options.rel_tol > 0.0, "solve_spd: rel_tol must be positive");

  // One-shot use of the prepared-handle machinery: construction performs the
  // per-matrix analysis (diagonal reciprocals, optional symmetry check via
  // the matrix's cached transpose), solve() the per-call work.  The timer
  // starts after preparation, preserving the legacy convention that
  // summary.seconds excludes input validation.
  SpdProblem problem(pool, a, options.check_input);
  WallTimer timer;

  SolveControls controls;
  // kAuto passes through: SpdProblem::solve resolves it (rel_tol > 0 is
  // guaranteed above, so its rule reduces to the documented >= 1e-4 split).
  controls.method = options.method;
  controls.rel_tol = options.rel_tol;
  controls.seed = options.seed;
  controls.workers = options.threads;
  controls.inner_sweeps = options.inner_sweeps;
  // AsyRGS runs the paper's occasional-synchronization scheme so the
  // tolerance is actually checked; Krylov methods take the outer cap.
  controls.sweeps = options.max_iterations > 0 ? options.max_iterations
                                               : 100000;
  controls.max_iterations = options.max_iterations;
  controls.sync = SyncMode::kBarrierPerSweep;

  SolveOutcome out = problem.solve(b, x, controls);

  SpdSolveSummary summary;
  summary.method_used = out.method_used;
  summary.converged = out.converged();
  summary.iterations = out.iterations;
  summary.relative_residual = out.relative_residual;
  summary.status = out.status;
  summary.description =
      out.description + " [" + method_name(out.method_used) + "]";
  summary.seconds = timer.seconds();
  return summary;
}

}  // namespace asyrgs
