#include "asyrgs/iter/precond.hpp"

#include "asyrgs/core/async_rgs.hpp"
#include "asyrgs/core/rgs.hpp"
#include "asyrgs/problem.hpp"
#include "asyrgs/support/prng.hpp"

namespace asyrgs {

void IdentityPreconditioner::apply(const std::vector<double>& r,
                                   std::vector<double>& z) {
  z = r;
}

JacobiPreconditioner::JacobiPreconditioner(const CsrMatrix& a) {
  inv_diag_ = a.diagonal();
  for (double& d : inv_diag_) {
    require(d != 0.0, "JacobiPreconditioner: zero diagonal entry");
    d = 1.0 / d;
  }
}

void JacobiPreconditioner::apply(const std::vector<double>& r,
                                 std::vector<double>& z) {
  require(r.size() == inv_diag_.size(), "JacobiPreconditioner: shape mismatch");
  z.resize(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) z[i] = inv_diag_[i] * r[i];
}

RgsPreconditioner::RgsPreconditioner(const CsrMatrix& a, int sweeps,
                                     double step_size, std::uint64_t seed)
    : a_(a), sweeps_(sweeps), step_size_(step_size), seed_(seed) {
  require(sweeps > 0, "RgsPreconditioner: sweeps must be positive");
}

void RgsPreconditioner::apply(const std::vector<double>& r,
                              std::vector<double>& z) {
  z.assign(r.size(), 0.0);
  RgsOptions opt;
  opt.sweeps = sweeps_;
  opt.step_size = step_size_;
  // A fresh direction stream per application keeps applications independent
  // (and the preconditioner "variable" in the flexible-Krylov sense).
  opt.seed = splitmix64(seed_ + ++applications_);
  rgs_solve(a_, r, z, opt);
}

std::string RgsPreconditioner::name() const {
  return "rgs(sweeps=" + std::to_string(sweeps_) + ")";
}

AsyRgsPreconditioner::AsyRgsPreconditioner(ThreadPool& pool,
                                           const CsrMatrix& a, int sweeps,
                                           int workers, double step_size,
                                           std::uint64_t seed,
                                           bool atomic_writes)
    : owned_(std::make_unique<SpdProblem>(pool, a, /*check_input=*/false)),
      problem_(owned_.get()),
      sweeps_(sweeps),
      workers_(workers),
      step_size_(step_size),
      seed_(seed),
      atomic_writes_(atomic_writes) {
  require(sweeps > 0, "AsyRgsPreconditioner: sweeps must be positive");
  // Every application reads the compact copy: build it with the owned
  // handle rather than inside the first application.
  owned_->prepare_compact();
}

AsyRgsPreconditioner::AsyRgsPreconditioner(SpdProblem& problem, int sweeps,
                                           int workers, double step_size,
                                           std::uint64_t seed,
                                           bool atomic_writes)
    : problem_(&problem),
      sweeps_(sweeps),
      workers_(workers),
      step_size_(step_size),
      seed_(seed),
      atomic_writes_(atomic_writes) {
  require(sweeps > 0, "AsyRgsPreconditioner: sweeps must be positive");
}

AsyRgsPreconditioner::~AsyRgsPreconditioner() = default;

void AsyRgsPreconditioner::apply(const std::vector<double>& r,
                                 std::vector<double>& z) {
  z.assign(r.size(), 0.0);
  // Identical options to the pre-handle implementation; only the prepared
  // state (diagonal reciprocals, rhs packing buffer, direction scratch) is
  // now reused across applications instead of rebuilt each outer iteration.
  SolveControls controls;
  controls.method = SpdMethod::kAsyncRgs;
  controls.sweeps = sweeps_;
  controls.step_size = step_size_;
  controls.workers = workers_;
  controls.atomic_writes = atomic_writes_;
  controls.sync = SyncMode::kFreeRunning;
  // A fresh direction stream per application keeps applications independent
  // (and the preconditioner "variable" in the flexible-Krylov sense).
  controls.seed = splitmix64(seed_ + ++applications_);
  problem_->solve(r, z, controls);
}

std::string AsyRgsPreconditioner::name() const {
  return "asyrgs(sweeps=" + std::to_string(sweeps_) +
         ",workers=" + std::to_string(workers_) + ")";
}

}  // namespace asyrgs
