// Prepared-solver handles: pay matrix analysis once, solve many times.
//
// The paper's methodology (and its motivating big-data workload, Section 9)
// fixes the matrix and varies only the right-hand side, worker count, and
// synchronization regime.  A server answering many solves against one
// operator should therefore pay per-matrix costs — symmetry/diagonal
// validation, compact storage and partition analysis (SPD), the transpose
// (least squares), diagonal reciprocals, column-norm denominators,
// per-worker scratch — exactly once.  This header provides that split:
//
//   SpdProblem / LsqProblem   per-problem state: matrix + attached pool +
//                             cached analysis + reusable solver scratch
//   SolveControls             per-call knobs: method, tolerance, seed,
//                             workers, sync/scope, step size
//   SolveOutcome              unified structured result (SolveStatus enum
//                             instead of per-solver bool/string shapes)
//
// These are the library's only request shape: a one-shot solve constructs
// a handle and calls solve() once.  Every solve validates its controls
// first (SpdProblem::solve documents the rules), for every method.
//
// Thread-safety: a handle's prepared state is immutable after construction
// and its mutable scratch is guarded by an internal (recursive) mutex —
// concurrent solve() calls on one handle from different threads are safe and
// are serialized, running one after another (the attached ThreadPool hosts
// one team at a time anyway).  For genuinely parallel solves use one handle
// per pool.  The bound CsrMatrix and ThreadPool must outlive the handle.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "asyrgs/core/async_rgs.hpp"
#include "asyrgs/linalg/multivector.hpp"
#include "asyrgs/sampling/direction_sampler.hpp"
#include "asyrgs/sparse/csr.hpp"
#include "asyrgs/support/thread_pool.hpp"

namespace asyrgs {

/// Solution strategy for SPD problems (kAuto picks by accuracy target: plain
/// AsyRGS in the low-accuracy regime where basic iterations shine, AsyRGS as
/// a flexible-CG preconditioner when high accuracy is sought — the paper's
/// Section 9 guidance).
enum class SpdMethod {
  kAuto,      ///< pick by accuracy target (see SpdProblem::solve docs)
  kAsyncRgs,  ///< asynchronous randomized Gauss-Seidel
  kFcgAsyRgs, ///< flexible CG preconditioned by AsyRGS
  kCg,        ///< plain conjugate gradients (synchronous baseline)
  /// Asynchronous row-action Kaczmarz on the shared engine: directions are
  /// rows, each update projects x onto its row's hyperplane (relaxed by
  /// beta).  Served by LsqProblem — it needs no symmetry and handles
  /// rectangular and inconsistent systems; SpdProblem::solve rejects it
  /// with a pointer there.
  kAsyncKaczmarz,
};

/// How a solve ended — the structured replacement for the per-solver
/// `bool converged` / description-string conventions.
enum class SolveStatus {
  /// The requested relative-residual tolerance was reached.
  kConverged,
  /// A tolerance was requested (rel_tol > 0 under a synchronizing mode, or
  /// a Krylov method) but the iteration budget ran out first.
  kToleranceNotReached,
  /// The fixed iteration budget ran to completion with no tolerance in
  /// play (free-running asynchronous runs, or rel_tol == 0).
  kBudgetCompleted,
  /// The request never ran: a serving layer declined it (queue at
  /// ServiceOptions::max_queue, submit racing shutdown, or a deadline that
  /// expired while queued).  Direct handle solves never produce this; the
  /// ticket's `description` names the reason.  See serve/service.hpp.
  kRejected,
};

/// Human-readable status name ("converged", "tolerance-not-reached",
/// "budget-completed", "rejected").
[[nodiscard]] const char* to_string(SolveStatus status) noexcept;

/// Requested CSR storage policy for a prepared handle, resolved once at
/// construction (see resolve_storage_policy for the exact rules).  kAuto
/// builds a compact int32-index copy of the bound matrix at preparation
/// time when the shape fits — halving the index bandwidth of every row
/// scan.  The int32 arithmetic is bit-identical to full width, which is
/// why kAuto narrows by default without breaking reproducibility contracts.
enum class StorageMode {
  kAuto,         ///< int32/double when the shape fits, else full width
  kInt64Double,  ///< full width; no compact copy is built
};

/// Human-readable mode name ("auto", "int64_double").
[[nodiscard]] const char* to_string(StorageMode mode) noexcept;

/// Resolves a storage request against the widest coordinate a policy's
/// index type must represent (`max_index` = cols() for SPD handles; for
/// least-squares handles max(rows(), cols()), because the transpose's
/// column indices are row indices) and the matrix's nonzero count.  kAuto
/// narrows whenever both fit int32 and stays full width otherwise.  The
/// nnz guard is deliberately conservative: the compact row-pointer array
/// physically stays 64-bit, but a matrix whose nnz overflows int32 is far
/// past the regime where index narrowing pays, and refusing it keeps every
/// count derived from the compact copy (row extents, per-partition nnz)
/// safely inside 32-bit arithmetic.  Exposed separately so both overflow
/// guards are testable by shape arithmetic alone — exercising them through
/// a real handle would require materializing a > 2^31-entry operator.
[[nodiscard]] StoragePolicy resolve_storage_policy(StorageMode mode,
                                                   index_t max_index,
                                                   nnz_t nnz) noexcept;

/// Per-call knobs for a prepared handle, deliberately separated from the
/// per-problem state (matrix, pool, validation policy) bound at handle
/// construction.  The asynchronous engine (core/engine.hpp) reads them
/// directly.  Defaults: kAuto resolves to FCG when 0 < rel_tol < 1e-4, so a
/// caller who wants the asynchronous method at a tight tolerance sets
/// method = kAsyncRgs; the 10-sweep kFreeRunning default never checks a
/// tolerance, so tolerance-stopped solves pick a synchronizing mode and a
/// budget to match.
struct SolveControls {
  /// Solution strategy.  LsqProblem accepts kAuto/kAsyncRgs (randomized
  /// coordinate descent) and kAsyncKaczmarz (row action); SpdProblem
  /// accepts everything but kAsyncKaczmarz.
  SpdMethod method = SpdMethod::kAuto;
  /// Sweep budget for the asynchronous/randomized methods (one sweep = n
  /// coordinate updates across the team).
  int sweeps = 10;
  /// Outer-iteration cap for the Krylov methods (kCg / kFcgAsyRgs);
  /// 0 = auto (10000).
  int max_iterations = 0;
  double step_size = 1.0;    ///< beta; Theorems 3-5 want beta < 1 for bounds
  std::uint64_t seed = 1;    ///< keys the Philox direction stream
  int workers = 0;           ///< team size; 0 = pool capacity
  bool atomic_writes = true; ///< false = racy "non atomic" variant
  SyncMode sync = SyncMode::kFreeRunning;
  RandomizationScope scope = RandomizationScope::kShared;
  double sync_interval_seconds = 0.05;  ///< kTimedBarrier rendezvous cadence
  bool track_history = false;
  /// Target on the method's convergence metric (relative residual; normal
  /// equations residual for least squares).  0 disables tolerance stopping.
  double rel_tol = 0.0;
  /// kFcgAsyRgs only: AsyRGS sweeps per preconditioner application.
  int inner_sweeps = 2;
  /// Direction-draw distribution for the asynchronous methods (see
  /// sampling/direction_sampler.hpp).  kUniform is the paper's setting and
  /// bit-identical to the pre-sampling engine.  Non-uniform policies
  /// require RandomizationScope::kShared; kResidual additionally requires
  /// a synchronizing mode (its table refreshes at rendezvous) and the
  /// single-RHS paths.  The Krylov methods reject non-uniform policies —
  /// they draw no random directions.
  SamplingPolicy sampling = SamplingPolicy::kUniform;
  /// kResidual only: rebuild the residual-weighted table every this many
  /// synchronization rendezvous (sweeps under kBarrierPerSweep, rounds
  /// under kTimedBarrier).  Must be >= 1; see docs/TUNING.md for sizing.
  int resample_sweeps = 8;
  /// Topology-aware partitioned scheduling (SpdProblem single-RHS AsyRGS
  /// only).  0 = off (the paper's any-worker-any-coordinate model).  >= 1
  /// reorders the operator by reverse Cuthill-McKee, cuts it into this many
  /// cache-line-aligned partitions balanced by nonzeros, and has each
  /// worker draw only from the partitions it owns plus their halos — the
  /// locality layer for graph-Laplacian scale (docs/TUNING.md).  Clamped to
  /// the dimension; the clamp is surfaced as SolveOutcome::partitions_used.
  /// Requires kUniform sampling and RandomizationScope::kShared.
  int partitions = 0;
  /// Probability in [0, 1) that a partitioned draw steals a halo row
  /// (a neighbour-owned boundary row) instead of an owned row — the
  /// cross-partition coupling knob.  Liu-Wright-style restricted sampling:
  /// 0 is pure owner-computes; a few percent restores the information flow
  /// across cuts that the convergence theory leans on.  Requires
  /// partitions >= 1.
  double steal_rate = 0.0;
};

/// Unified result of a handle solve.
struct SolveOutcome {
  SolveStatus status = SolveStatus::kBudgetCompleted;
  /// Resolved strategy (SpdProblem methods; for LsqProblem kAsyncRgs =
  /// coordinate descent, kAsyncKaczmarz = row action).
  SpdMethod method_used = SpdMethod::kAuto;
  /// Sweeps or outer iterations, per method.  A tolerance-stopped
  /// kBarrierPerSweep solve checks its exact residual at scheduled
  /// rendezvous only (docs/API.md, SyncMode), so this can exceed the first
  /// sweep below rel_tol by the schedule's overshoot.
  int iterations = 0;
  long long updates = 0;     ///< coordinate updates (asynchronous methods)
  /// Team size the run actually used: the requested team clamped to the
  /// pool, or 1 for a solve issued from inside a running team of the same
  /// pool (the pool runs such a nested team inline, on one worker).
  int workers = 0;
  /// Asynchronous methods with a tolerance or history under a synchronizing
  /// mode: the exact convergence metric at the returned iterate, and
  /// kConverged means it is <= rel_tol.  Krylov methods: the final
  /// residual their iteration reports.
  double relative_residual = 0.0;
  double seconds = 0.0;      ///< iteration-loop wall time
  /// CSR storage policy the kernels actually ran against — the handle's
  /// resolved policy for the asynchronous methods, kInt64Double for the
  /// Krylov outer methods (which always read the bound full-width matrix).
  StoragePolicy storage_used = StoragePolicy::kInt64Double;
  /// Direction-draw distribution the run used (kUniform for the Krylov
  /// methods, which draw no directions).
  SamplingPolicy sampling_used = SamplingPolicy::kUniform;
  /// Partition count the run actually used (SolveControls::partitions after
  /// clamping to the dimension); 0 = unpartitioned scheduling.
  int partitions_used = 0;
  /// Halo steal probability the partitioned run used (0 when unpartitioned).
  double steal_rate_used = 0.0;
  std::vector<double> residual_history;  ///< per synchronization, if tracked
  std::string description;   ///< human-readable method/mode summary

  [[nodiscard]] bool converged() const noexcept {
    return status == SolveStatus::kConverged;
  }
};

namespace detail {
/// Reusable per-handle solver scratch (rhs packing, engine buffers); defined
/// in problem.cpp so the unstable engine/kernel internals never enter this
/// public header.
struct ProblemScratch;

/// Prepare-time partition analysis for SpdProblem (RCM permutation, the one
/// permuted operator — built at the handle's storage width — and the
/// permuted diagonal reciprocals); defined in problem.cpp.  Immutable once
/// built, shared between clones like the compact storage copies.
struct SpdPartitionState;
}  // namespace detail

/// Counters of the preparation work a handle has performed — lets tests (and
/// monitoring) assert that analysis is paid once per problem, not per solve.
struct ProblemStats {
  int validation_passes = 0;  ///< symmetry/diagonal/rank checks performed
  /// Explicit A^T constructions triggered.  Only LsqProblem builds one (its
  /// column kernels read A^T); SpdProblem's symmetry check needs none, so
  /// an SPD handle always reports 0.
  int transpose_builds = 0;
  /// Completed solve() calls, counting inner preconditioner applications:
  /// one kFcgAsyRgs solve contributes 1 + (outer iterations), because each
  /// preconditioner application re-enters solve() on this handle.  The
  /// counter evidences amortization, not requests served.
  long long solves = 0;
  /// Scratch growth events (direction buffers, team-reduce, slabs); a
  /// repeat solve with unchanged shapes/team must not increase this.
  long long scratch_allocations = 0;
  /// Storage policy resolved at preparation (what the asynchronous kernels
  /// run against).
  StoragePolicy storage = StoragePolicy::kInt64Double;
  /// Alias-table build passes paid so far: 1 per lazily cached static
  /// weighted sampler (amortized across solves), plus every residual-policy
  /// build/refresh.  Repeat kWeighted solves must not increase this.
  long long sampler_builds = 0;
  /// RCM partition analyses performed (0 or 1 per handle: built on the
  /// first partitioned solve or prepare_partitions() call and cached;
  /// clones inherit the analysis and report 0).
  int partition_builds = 0;
};

/// Prepared handle for repeated solves of SPD A x = b against one matrix.
///
/// Construction performs all per-matrix analysis: the strictly-positive-
/// diagonal check and reciprocal precomputation always; the symmetry
/// validation (is_symmetric: one merge of each entry with its mirror, no
/// transpose) when `check_input` is set; the compact int32 copy when the
/// storage policy narrows.  The RCM partition analysis follows on the first
/// partitioned solve or prepare_partitions().  solve() then pays only
/// per-call work.
class SpdProblem {
 public:
  /// Binds `a` (kept by reference; must outlive the handle) and `pool`.
  /// `check_input` validates symmetry up front — recommended for
  /// user-supplied matrices, skippable for generated/trusted ones.
  /// `storage` selects the CSR policy the asynchronous kernels run against
  /// (resolve_storage_policy documents the kAuto rules); a narrow policy
  /// builds its compact copy here, once, so solves pay none of it.
  SpdProblem(ThreadPool& pool, const CsrMatrix& a, bool check_input = true,
             StorageMode storage = StorageMode::kAuto);

  /// Shard clone: binds `pool` to the matrix of `other` and reuses its
  /// completed analysis (diagonal reciprocals, the symmetry verdict, and —
  /// when already built — the partition analysis) instead of re-validating —
  /// the per-shard construction path of SolverService, where N pools serve
  /// one analyzed matrix.  O(n), no O(nnz) work; the clone's ProblemStats
  /// start at zero validation passes / partition builds.
  /// `other` must be fully constructed; cloning is safe concurrently with
  /// solves on `other` (the lazily built caches are read under its lock).
  SpdProblem(ThreadPool& pool, const SpdProblem& other);
  ~SpdProblem();  // out-of-line: ProblemScratch is incomplete here

  SpdProblem(const SpdProblem&) = delete;
  SpdProblem& operator=(const SpdProblem&) = delete;

  /// Solves A x = b starting from `x` (in place) with per-call `controls`.
  /// With SpdMethod::kAuto the method is AsyRGS when rel_tol == 0 or
  /// rel_tol >= 1e-4 (the low-accuracy regime) and FCG+AsyRGS otherwise.
  ///
  /// Every solve, of every method and on both handles, first rejects
  /// controls it cannot honour (throws Error): sweeps, workers and
  /// max_iterations must be >= 0, rel_tol finite and >= 0, step_size in
  /// (0, 2) and sync_interval_seconds > 0.
  SolveOutcome solve(const std::vector<double>& b, std::vector<double>& x,
                     const SolveControls& controls = {});

  /// Block variant: every coordinate update applies to all columns of X
  /// (the paper's 51-right-hand-side experiment).  Asynchronous only
  /// (method must be kAuto or kAsyncRgs).
  SolveOutcome solve(const MultiVector& b, MultiVector& x,
                     const SolveControls& controls = {});

  /// Forces the RCM partition analysis now instead of on the first
  /// partitioned solve — the prepare-time hook SolverService uses so shard
  /// clones inherit the analysis and serving never pays it on a request.
  /// Idempotent; counted once in ProblemStats::partition_builds.
  void prepare_partitions();

  [[nodiscard]] const CsrMatrix& matrix() const noexcept { return a_; }
  [[nodiscard]] ThreadPool& pool() const noexcept { return pool_; }
  [[nodiscard]] index_t dimension() const noexcept { return a_.rows(); }
  /// The CSR policy resolved at construction (what the asynchronous solve
  /// paths run against; also in ProblemStats::storage).
  [[nodiscard]] StoragePolicy storage() const noexcept { return storage_; }
  [[nodiscard]] ProblemStats stats() const;

 private:
  friend class AsyRgsPreconditioner;

  /// The cached partition analysis, building it on first use (caller must
  /// hold mutex_).
  const detail::SpdPartitionState& partition_state();

  SolveOutcome solve_async_single(const std::vector<double>& b,
                                  std::vector<double>& x,
                                  const SolveControls& controls);
  SolveOutcome solve_async_partitioned(const std::vector<double>& b,
                                       std::vector<double>& x,
                                       const SolveControls& controls);
  SolveOutcome solve_krylov(const std::vector<double>& b,
                            std::vector<double>& x,
                            const SolveControls& controls, SpdMethod method);
  /// Policy-concrete bodies behind the storage dispatch (problem.cpp).
  template <class Matrix>
  SolveOutcome solve_async_single_on(const Matrix& a,
                                     const std::vector<double>& b,
                                     std::vector<double>& x,
                                     const SolveControls& controls);
  template <class Matrix>
  SolveOutcome solve_async_partitioned_on(const Matrix& a,
                                          const std::vector<double>& b,
                                          std::vector<double>& x,
                                          const SolveControls& controls);
  template <class Matrix>
  SolveOutcome solve_block_on(const Matrix& a, const MultiVector& b,
                              MultiVector& x, const SolveControls& controls);

  ThreadPool& pool_;
  const CsrMatrix& a_;
  /// Compact copy built at preparation when storage_ narrows (null
  /// otherwise).  shared_ptr so shard clones alias one copy.
  std::shared_ptr<const CsrMatrix32> a32_;
  StoragePolicy storage_ = StoragePolicy::kInt64Double;
  std::vector<double> inv_diag_;
  /// kWeighted sampler (weights: squared row norms of the bound full-width
  /// matrix), built lazily on the first weighted solve and cached — guarded
  /// by mutex_ like all mutable solve state.
  std::optional<DirectionSampler> weighted_sampler_;
  /// Partition analysis (RCM order + permuted operator), built lazily on
  /// the first partitioned solve or prepare_partitions() and cached —
  /// mutex_-guarded; clones alias the prototype's state.
  std::shared_ptr<const detail::SpdPartitionState> partition_;
  mutable std::recursive_mutex mutex_;  // recursive: FCG solves re-enter via
                                        // the preconditioner's inner solves
  std::unique_ptr<detail::ProblemScratch> scratch_;
  ProblemStats stats_;
};

/// Prepared handle for repeated least-squares solves min ||A x - b|| against
/// one matrix (asynchronous randomized coordinate descent, Section 8).
///
/// Construction materializes (or borrows) A^T, precomputes the column
/// squared-norm denominators, and validates full column rank, so solves pay
/// none of it.
class LsqProblem {
 public:
  /// Binds `a` and builds A^T through the matrix's shared transpose cache
  /// (so several handles against one matrix construct the transpose a
  /// single time).  `storage` narrows both
  /// A and A^T; because the transpose's column indices are row indices,
  /// narrowing requires max(rows, cols) to fit the index width (see
  /// resolve_storage_policy).
  LsqProblem(ThreadPool& pool, const CsrMatrix& a,
             StorageMode storage = StorageMode::kAuto);

  /// Binds a caller-materialized transpose (not copied; `a` and `at` must
  /// outlive the handle).  Validates that shapes are transposed.
  LsqProblem(ThreadPool& pool, const CsrMatrix& a, const CsrMatrix& at,
             StorageMode storage = StorageMode::kAuto);

  /// Shard clone: binds `pool` to the matrix of `other` and reuses its
  /// analysis — the shared A^T (same instance, held through the matrix
  /// cache) and the column squared-norm denominators — skipping the rank
  /// check.  The clone's ProblemStats start at zero validation passes /
  /// transpose builds.  Safe concurrently with solves on `other`.
  LsqProblem(ThreadPool& pool, const LsqProblem& other);
  ~LsqProblem();  // out-of-line: ProblemScratch is incomplete here

  LsqProblem(const LsqProblem&) = delete;
  LsqProblem& operator=(const LsqProblem&) = delete;

  /// Solves min ||A x - b|| from `x` (in place).  `controls.method` routes
  /// between the two asynchronous methods: kAuto/kAsyncRgs run randomized
  /// coordinate descent over the columns of A (iteration (21));
  /// kAsyncKaczmarz runs the row-action method — directions are rows, each
  /// update projects x onto its row's hyperplane with the 1/||A_i||^2
  /// denominators precomputed at preparation (zero rows no-op).  The
  /// Krylov methods are rejected, and the controls are validated as
  /// SpdProblem::solve documents.  Convergence metric for both:
  /// ||A^T(b - Ax)|| / ||A^T b|| — for inconsistent systems the Kaczmarz
  /// iterate converges to a neighbourhood of the least-squares solution
  /// (radius shrinking with beta), so pair it with a modest rel_tol.
  SolveOutcome solve(const std::vector<double>& b, std::vector<double>& x,
                     const SolveControls& controls = {});

  [[nodiscard]] const CsrMatrix& matrix() const noexcept { return a_; }
  [[nodiscard]] const CsrMatrix& transpose() const noexcept { return *at_; }
  /// The CSR policy resolved at construction.
  [[nodiscard]] StoragePolicy storage() const noexcept { return storage_; }
  [[nodiscard]] ProblemStats stats() const;

 private:
  /// Policy-concrete solve bodies behind the storage dispatch (problem.cpp):
  /// coordinate descent over columns, and the Kaczmarz row-action method.
  template <class Matrix>
  SolveOutcome solve_on(const Matrix& a, const Matrix& at,
                        const std::vector<double>& b, std::vector<double>& x,
                        const SolveControls& controls);
  template <class Matrix>
  SolveOutcome solve_kaczmarz_on(const Matrix& a, const Matrix& at,
                                 const std::vector<double>& b,
                                 std::vector<double>& x,
                                 const SolveControls& controls);

  ThreadPool& pool_;
  const CsrMatrix& a_;
  std::shared_ptr<const CsrMatrix> at_holder_;  // cached-transpose mode
  const CsrMatrix* at_;
  /// Compact copies of (A, A^T) when storage_ narrows (both null
  /// otherwise).  shared_ptr so shard clones alias them.
  std::shared_ptr<const CsrMatrix32> a32_;
  std::shared_ptr<const CsrMatrix32> at32_;
  StoragePolicy storage_ = StoragePolicy::kInt64Double;
  std::vector<double> col_sq_;      // ||A_{:,j}||^2 update denominators
  std::vector<double> row_sq_;      // ||A_i||^2 (Kaczmarz sampling weights)
  std::vector<double> inv_row_sq_;  // 1/||A_i||^2 projection denominators
                                    // (0 for zero rows: their update no-ops)
  /// Lazily cached kWeighted samplers — columns (coordinate descent,
  /// weights col_sq_) and rows (Kaczmarz, weights row_sq_); mutex_-guarded.
  std::optional<DirectionSampler> weighted_cols_;
  std::optional<DirectionSampler> weighted_rows_;
  mutable std::recursive_mutex mutex_;
  std::unique_ptr<detail::ProblemScratch> scratch_;
  ProblemStats stats_;
};

}  // namespace asyrgs
