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
// Thread-safety: a handle's prepared state is immutable once built (the
// operators built on demand sit in slots filled exactly once, see
// SpdProblem) and its mutable scratch is guarded by an internal (recursive)
// mutex — concurrent solve() calls on one handle from different threads are
// safe and are serialized, running one after another (the attached
// ThreadPool hosts one team at a time anyway).  For genuinely parallel
// solves use one handle per pool.  The bound CsrMatrix and ThreadPool must
// outlive the handle.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
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
  /// Chaotic relaxation (asynchronous Jacobi, Chazan-Miranker 1969), the
  /// baseline the paper positions against: the AsyRGS update with the
  /// damping step_size in (0, 1], over each worker's owned rows in a fixed
  /// cyclic order — rows {w, w+P, ...} under RandomizationScope::kShared,
  /// the contiguous chunk under kOwnerComputes.  No random draws (the seed
  /// is unused).  Converges when the Jacobi iteration matrix M = D^-1(D - A)
  /// has rho(|M|) < 1 — essentially diagonal dominance; on a general SPD
  /// matrix it may diverge.  SpdProblem single right-hand side only.
  kAsyncJacobi,
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
/// runs the asynchronous kernels on a compact int32-index copy of the bound
/// matrix when the shape fits — halving the index bandwidth of every row
/// scan.  LsqProblem builds its compact A, and A^T from it, at
/// construction; SpdProblem builds its copy once, when first needed
/// (SpdProblem::prepare_compact).  The int32 arithmetic is bit-identical to
/// full width, which is why kAuto narrows by default without breaking
/// reproducibility contracts.
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
  /// beta; Theorems 3-5 want beta < 1 for bounds.  kAsyncJacobi: the
  /// damping, in (0, 1].
  double step_size = 1.0;
  std::uint64_t seed = 1;    ///< keys the Philox direction stream
  int workers = 0;           ///< team size; 0 = pool capacity
  bool atomic_writes = true; ///< false = racy "non atomic" variant
  SyncMode sync = SyncMode::kFreeRunning;
  RandomizationScope scope = RandomizationScope::kShared;
  bool track_history = false;
  /// Target on the method's convergence metric (relative residual; normal
  /// equations residual for least squares).  0 disables tolerance stopping.
  double rel_tol = 0.0;
  /// kFcgAsyRgs only: AsyRGS sweeps per preconditioner application, >= 1
  /// (every solve rejects a smaller value).
  int inner_sweeps = 2;
  /// Direction-draw distribution for the asynchronous methods (see
  /// sampling/direction_sampler.hpp).  kUniform is the paper's setting and
  /// bit-identical to the pre-sampling engine.  kWeighted requires
  /// RandomizationScope::kShared; kAsyncJacobi and the Krylov methods
  /// reject it — they draw no random directions.
  SamplingPolicy sampling = SamplingPolicy::kUniform;
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

/// Partition analysis for SpdProblem (RCM permutation, the one permuted
/// operator — built at the handle's storage width — and the permuted
/// diagonal reciprocals); defined in problem.cpp.
struct SpdPartitionState;

/// The per-matrix state an SpdProblem shares with all its shard clones: the
/// diagonal reciprocals, and the operators built on demand — the compact
/// natural-order copy, the partition analysis and the kWeighted sampler —
/// each in a slot filled at most once; defined in problem.cpp.
struct SpdOperators;

/// The per-matrix state an LsqProblem shares with all its shard clones: the
/// (A, A^T) pair its kernels read, at the handle's storage width; the
/// column and row squared norms and reciprocal row norms; and the kWeighted
/// samplers (columns for coordinate descent, rows for Kaczmarz), each in a
/// slot filled at most once, by the first weighted solve that draws from
/// it; defined in problem.cpp.
struct LsqOperators;
}  // namespace detail

/// Counters of the preparation work a handle has performed — lets tests (and
/// monitoring) assert that analysis is paid once per problem, not per solve.
struct ProblemStats {
  int validation_passes = 0;  ///< symmetry/diagonal/rank checks performed
  /// Explicit A^T constructions this handle paid: 1 for an LsqProblem bound
  /// to a matrix (its column kernels read A^T, built at construction), 0
  /// for its shard clones, which share that build.  SpdProblem's symmetry
  /// check needs none, so an SPD handle always reports 0.
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
  /// Alias-table builds this handle paid: by the first kWeighted solve
  /// that draws from a sampler (SpdProblem has one, LsqProblem one for its
  /// columns and one for its rows).  Each sampler is built once per matrix
  /// and shared like the partition analysis, so a prototype and its shard
  /// clones sum to at most 1 per sampler whichever handle built it, and
  /// repeat kWeighted solves never increase the sum.
  long long sampler_builds = 0;
  /// RCM partition analyses this handle built (0 or 1): by
  /// prepare_partitions() or the first partitioned solve.  A prototype and
  /// its shard clones share one analysis, so their counts sum to at most 1
  /// whichever handle built it.
  int partition_builds = 0;
  /// Compact natural-order copies this handle built (0 or 1; always 0 when
  /// the storage policy stays full width): by prepare_compact() or the
  /// first solve that reads the copy.  Shared like the partition analysis.
  int compact_builds = 0;
};

/// Prepared handle for repeated solves of SPD A x = b against one matrix.
///
/// Construction only validates and computes reciprocals: the strictly-
/// positive-diagonal check and reciprocal precomputation always, and the
/// symmetry validation (is_symmetric's merge of each entry with its mirror,
/// no transpose) when `check_input` is set, all in one pass over A
/// (symmetry_scan).  The two operators a
/// solve may read beside the bound matrix are built once, when first
/// needed: the compact natural-order copy (narrow storage policies; read by
/// every unpartitioned asynchronous solve, including FCG's inner sweeps)
/// and the RCM partition analysis (read by partitioned solves).  Each is
/// filled by its hook — prepare_compact(), prepare_partitions() — or else
/// by the first solve that reads it, and each sits in one slot that the
/// prototype and every shard clone share, clones taken before the build
/// included.  A handle therefore holds only the operators its solves have
/// read or its owner declared, and a service of N shards builds each at
/// most once.  Beyond such a first-use build, solve() pays only per-call
/// work.
class SpdProblem {
 public:
  /// Binds `a` (kept by reference; must outlive the handle) and `pool`.
  /// `check_input` validates symmetry up front — recommended for
  /// user-supplied matrices, skippable for generated/trusted ones.
  /// `storage` selects the CSR policy the asynchronous kernels run against
  /// (resolve_storage_policy documents the kAuto rules); it is resolved
  /// here, but a narrow policy's compact copy waits for prepare_compact()
  /// or the first solve that reads it.
  SpdProblem(ThreadPool& pool, const CsrMatrix& a, bool check_input = true,
             StorageMode storage = StorageMode::kAuto);

  /// Shard clone: binds `pool` to the matrix of `other` and shares its
  /// analysis (diagonal reciprocals and the symmetry verdict) instead of
  /// re-validating, and its operator slots — the per-shard construction
  /// path of SolverService, where N pools serve one analyzed matrix.
  /// Whichever handle fills a slot, before or after the clone was taken,
  /// every sharer reads that one build.  Copies no per-matrix array; the
  /// clone's ProblemStats start at zero.  `other` must be fully
  /// constructed; cloning is safe concurrently with solves on `other`.
  SpdProblem(ThreadPool& pool, const SpdProblem& other);
  ~SpdProblem();  // out-of-line: ProblemScratch is incomplete here

  SpdProblem(const SpdProblem&) = delete;
  SpdProblem& operator=(const SpdProblem&) = delete;

  /// Solves A x = b starting from `x` (in place) with per-call `controls`.
  /// With SpdMethod::kAuto the method is AsyRGS when rel_tol == 0 or
  /// rel_tol >= 1e-4 (the low-accuracy regime) and FCG+AsyRGS otherwise.
  ///
  /// Every solve, of every method and on both handles, first rejects
  /// controls it cannot honour (throws Error), before it builds anything:
  /// sweeps, workers and max_iterations must be >= 0, inner_sweeps >= 1,
  /// rel_tol finite and >= 0, step_size in (0, 2), and non-uniform sampling
  /// needs RandomizationScope::kShared.  kAsyncJacobi further requires
  /// step_size <= 1, uniform sampling and no partitions.
  SolveOutcome solve(const std::vector<double>& b, std::vector<double>& x,
                     const SolveControls& controls = {});

  /// Block variant: every coordinate update applies to all columns of X
  /// (the paper's 51-right-hand-side experiment).  Asynchronous only
  /// (method must be kAuto or kAsyncRgs).
  SolveOutcome solve(const MultiVector& b, MultiVector& x,
                     const SolveControls& controls = {});

  /// Builds the RCM partition analysis now instead of on the first
  /// partitioned solve — the prepare-time hook a server calls when it
  /// expects partitioned requests, so none of them pays the analysis.
  /// Idempotent, and a no-op when a sharing handle already built it;
  /// counted in the building handle's ProblemStats::partition_builds.
  void prepare_partitions();

  /// Builds the compact natural-order copy now instead of on the first
  /// solve that reads it (every unpartitioned asynchronous solve, FCG's
  /// included) — the sibling hook of prepare_partitions() for a server
  /// whose requests run unpartitioned.  A no-op under a full-width policy;
  /// otherwise idempotent and shared like prepare_partitions(), counted in
  /// ProblemStats::compact_builds.
  void prepare_compact();

  [[nodiscard]] const CsrMatrix& matrix() const noexcept { return a_; }
  [[nodiscard]] ThreadPool& pool() const noexcept { return pool_; }
  [[nodiscard]] index_t dimension() const noexcept { return a_.rows(); }
  /// The CSR policy resolved at construction (what the asynchronous solve
  /// paths run against; also in ProblemStats::storage).
  [[nodiscard]] StoragePolicy storage() const noexcept { return storage_; }
  [[nodiscard]] ProblemStats stats() const;

 private:
  friend class AsyRgsPreconditioner;

  /// The shared partition analysis, building it on first use (caller must
  /// hold mutex_, which guards the build count).
  const detail::SpdPartitionState& partition_state();
  /// The shared compact copy, building it on first use; null under a
  /// full-width policy (caller must hold mutex_).
  const CsrMatrix32* compact();

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
  StoragePolicy storage_ = StoragePolicy::kInt64Double;
  /// The reciprocals and the compact copy, partition and sampler slots,
  /// shared with every clone (set at construction, never reassigned; the
  /// slots synchronize their own filling).
  std::shared_ptr<detail::SpdOperators> operators_;
  mutable std::recursive_mutex mutex_;  // recursive: FCG solves re-enter via
                                        // the preconditioner's inner solves
  std::unique_ptr<detail::ProblemScratch> scratch_;
  ProblemStats stats_;
};

/// Prepared handle for repeated least-squares solves min ||A x - b|| against
/// one matrix (asynchronous randomized coordinate descent, Section 8).
///
/// Construction builds A^T once, at the handle's storage width, precomputes
/// the column squared-norm denominators, and validates full column rank, so
/// solves pay none of it.  That state sits in one holder that the handle
/// and every shard clone share, like SpdProblem's operators: a service of N
/// shards holds one A^T.
class LsqProblem {
 public:
  /// Binds `a` (kept by reference; must outlive the handle) and `pool`, and
  /// builds the pair the kernels read.  `storage` selects its width: kAuto
  /// narrows A to int32 indices and transposes the narrowed copy, so the
  /// handle holds no full-width A^T; kInt64Double transposes `a` itself.
  /// The transpose's column indices are row indices, so narrowing requires
  /// max(rows, cols) to fit the index width (see resolve_storage_policy).
  LsqProblem(ThreadPool& pool, const CsrMatrix& a,
             StorageMode storage = StorageMode::kAuto);

  /// Shard clone: binds `pool` to the matrix of `other` and shares its
  /// per-matrix state — the operator pair, the norms and the sampler slots
  /// — skipping the rank check, and copying no per-matrix array.  The
  /// clone's ProblemStats start at zero validation passes / transpose
  /// builds.  Safe concurrently with solves on `other`.
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
  StoragePolicy storage_ = StoragePolicy::kInt64Double;
  /// The operator pair, norms and sampler slots, shared with every clone
  /// (set at construction, never reassigned; the slots synchronize their
  /// own filling).
  std::shared_ptr<detail::LsqOperators> operators_;
  mutable std::recursive_mutex mutex_;
  std::unique_ptr<detail::ProblemScratch> scratch_;
  ProblemStats stats_;
};

}  // namespace asyrgs
