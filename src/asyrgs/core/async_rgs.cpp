// The one-shot AsyRGS entry points, as thin wrappers over a temporary
// prepared handle (asyrgs/problem.hpp).  The kernels and the engine
// invocation live in problem.cpp / core/kernels.hpp — these functions only
// bind a throwaway SpdProblem and translate SolveOutcome back to the legacy
// AsyncRgsReport shape, so one-shot and prepared solves share every
// instruction of the hot path (and equal-seed runs are
// bit-identical through either interface).
#include "asyrgs/core/async_rgs.hpp"

#include "asyrgs/problem.hpp"

namespace asyrgs {

AsyncRgsReport async_rgs_solve(ThreadPool& pool, const CsrMatrix& a,
                               const std::vector<double>& b,
                               std::vector<double>& x,
                               const AsyncRgsOptions& options) {
  SpdProblem problem(pool, a, /*check_input=*/false);
  return detail::report_from_outcome(
      problem.solve(b, x, to_controls(options)));
}

AsyncRgsReport async_rgs_solve_block(ThreadPool& pool, const CsrMatrix& a,
                                     const MultiVector& b, MultiVector& x,
                                     const AsyncRgsOptions& options) {
  SpdProblem problem(pool, a, /*check_input=*/false);
  return detail::report_from_outcome(
      problem.solve(b, x, to_controls(options)));
}

}  // namespace asyrgs
