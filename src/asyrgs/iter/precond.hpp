// Preconditioner interface and implementations.
//
// The paper's headline practical use of AsyRGS is as a preconditioner inside
// a flexible Krylov method (Section 9, Table 1, Figure 3): the
// preconditioner application z = M(r) runs a fixed number of asynchronous
// randomized Gauss-Seidel sweeps on A z = r from z = 0.  Because the sweeps
// are randomized and asynchronous, M changes from call to call — hence the
// *flexible* CG outer method (Notay [16]).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "asyrgs/core/async_rgs.hpp"
#include "asyrgs/sparse/csr.hpp"
#include "asyrgs/support/thread_pool.hpp"

namespace asyrgs {

class SpdProblem;  // asyrgs/problem.hpp (prepared-solver handle)

/// Approximate application of A^{-1}: z ~= A^{-1} r.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// Computes z from r; z is overwritten (sized by the caller).
  virtual void apply(const std::vector<double>& r, std::vector<double>& z) = 0;

  /// Human-readable identifier for logs/benchmarks.
  [[nodiscard]] virtual std::string name() const = 0;

  /// True when successive applications with the same input may differ
  /// (requires a flexible outer method).
  [[nodiscard]] virtual bool is_variable() const { return false; }
};

/// z = r (no preconditioning); turns FCG into plain CG.
class IdentityPreconditioner final : public Preconditioner {
 public:
  void apply(const std::vector<double>& r, std::vector<double>& z) override;
  [[nodiscard]] std::string name() const override { return "identity"; }
};

/// z = D^{-1} r with D = diag(A).
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const CsrMatrix& a);
  void apply(const std::vector<double>& r, std::vector<double>& z) override;
  [[nodiscard]] std::string name() const override { return "jacobi"; }

 private:
  std::vector<double> inv_diag_;
};

/// `sweeps` sequential randomized Gauss-Seidel sweeps on A z = r from z = 0.
/// Deterministic given the seed sequence, but still *variable* across
/// applications because each application consumes fresh random directions.
class RgsPreconditioner final : public Preconditioner {
 public:
  RgsPreconditioner(const CsrMatrix& a, int sweeps, double step_size = 1.0,
                    std::uint64_t seed = 99);
  void apply(const std::vector<double>& r, std::vector<double>& z) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] bool is_variable() const override { return true; }

 private:
  const CsrMatrix& a_;
  int sweeps_;
  double step_size_;
  std::uint64_t seed_;
  std::uint64_t applications_ = 0;
};

/// `sweeps` asynchronous randomized Gauss-Seidel sweeps on A z = r from
/// z = 0, on `workers` threads (the paper's Table 1 / Figure 3
/// preconditioner).
///
/// Every application runs through one prepared SpdProblem handle — owned by
/// the preconditioner (first constructor) or borrowed from the caller
/// (second constructor) — so the matrix analysis and per-worker scratch are
/// paid once, not once per outer iteration.
///
/// Thread-safety: apply() runs a team on the shared pool; concurrent apply()
/// calls on one instance are not supported (the application counter that
/// reseeds each call is unsynchronized by design).
class AsyRgsPreconditioner final : public Preconditioner {
 public:
  AsyRgsPreconditioner(ThreadPool& pool, const CsrMatrix& a, int sweeps,
                       int workers, double step_size = 1.0,
                       std::uint64_t seed = 99, bool atomic_writes = true);
  /// Borrows an existing prepared handle (not owned; must outlive this
  /// preconditioner).  Used by SpdProblem's own FCG path so the outer solve
  /// and the inner sweeps share one set of cached reciprocals and scratch.
  AsyRgsPreconditioner(SpdProblem& problem, int sweeps, int workers,
                       double step_size = 1.0, std::uint64_t seed = 99,
                       bool atomic_writes = true);
  ~AsyRgsPreconditioner() override;  // out-of-line: SpdProblem is incomplete

  void apply(const std::vector<double>& r, std::vector<double>& z) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] bool is_variable() const override { return true; }

  [[nodiscard]] int sweeps() const noexcept { return sweeps_; }
  [[nodiscard]] int workers() const noexcept { return workers_; }

 private:
  std::unique_ptr<SpdProblem> owned_;  // first constructor only
  SpdProblem* problem_;                // always valid
  int sweeps_;
  int workers_;
  double step_size_;
  std::uint64_t seed_;
  bool atomic_writes_;
  std::uint64_t applications_ = 0;
};

}  // namespace asyrgs
