#include "asyrgs/problem.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "asyrgs/core/engine.hpp"
#include "asyrgs/core/kernels.hpp"
#include "asyrgs/gen/partition.hpp"
#include "asyrgs/iter/cg.hpp"
#include "asyrgs/iter/fcg.hpp"
#include "asyrgs/iter/precond.hpp"
#include "asyrgs/linalg/norms.hpp"
#include "asyrgs/sparse/properties.hpp"
#include "asyrgs/support/aligned.hpp"
#include "asyrgs/support/timer.hpp"

namespace asyrgs {

namespace detail {

/// Per-handle reusable solver scratch: the packed (b, 1/diag) pairs refilled
/// each solve (in RCM order on the partitioned path), plus the engine's
/// per-worker buffers.  Lives behind a pimpl so problem.hpp stays free of
/// the unstable engine/kernel internals.
struct ProblemScratch {
  std::vector<RhsDiagPair> rhs_diag;
  EngineScratch engine;
  /// Partitioned-solve staging: the iterate in RCM order, cache-line
  /// aligned so partition-owned slices never share a line (the boundaries
  /// are cut at kPartitionAlignRows multiples).
  aligned_vector<double> xp;
};

/// Partition analysis for SpdProblem: the RCM analysis, whose permuted
/// operator is built at the handle's storage width (so partitioned solves
/// run the same storage the unpartitioned path does, from the one permuted
/// copy), and the handle's diagonal reciprocals in RCM order — kept because
/// the update reads them sequentially beside b, where gathering them per
/// request would cost a random-access pass.  Immutable once constructed.
struct SpdPartitionState {
  PartitionAnalysis analysis;
  std::vector<double> inv_diag;  ///< 1/diag in permuted (RCM) order

  SpdPartitionState(const CsrMatrix& a, StoragePolicy policy,
                    const std::vector<double>& handle_inv_diag)
      : analysis(a, policy), inv_diag(handle_inv_diag.size()) {
    // The symmetric permutation maps diagonal to diagonal (new row i holds
    // old row perm[i]'s), so these are the handle's validated reciprocals.
    for (std::size_t i = 0; i < inv_diag.size(); ++i)
      inv_diag[i] =
          handle_inv_diag[static_cast<std::size_t>(analysis.perm()[i])];
  }
};

/// One operator built at most once, by whichever sharing handle asks first;
/// call_once publishes it to every other sharer.  A build that throws
/// leaves the slot empty for the next caller to retry.
template <class T>
struct SharedSlot {
  std::once_flag once;
  std::unique_ptr<const T> value;

  /// The held operator, building it with `build()` if no sharer has; the
  /// build is counted in `builds` of the handle that ran it.
  template <class Build, class Count>
  const T& get(Build&& build, Count& builds) {
    std::call_once(once, [&] {
      value = build();
      ++builds;
    });
    return *value;
  }
};

struct SpdOperators {
  std::vector<double> inv_diag;  ///< 1/diag, written once at construction
  SharedSlot<CsrMatrix32> compact;
  SharedSlot<SpdPartitionState> partition;
  /// kWeighted draws (weights: squared row norms of the bound matrix).
  SharedSlot<AliasTable> sampler;
};

struct LsqOperators {
  /// The pair the kernels read under kInt32Double: A narrowed, and A^T
  /// transposed from it.  Both empty under full width.
  std::optional<CsrMatrix32> a32;
  std::optional<CsrMatrix32> at32;
  /// A^T under full width, read beside the bound A; empty when narrow.
  std::optional<CsrMatrix> at;
  std::vector<double> col_sq;      ///< ||A_{:,j}||^2 update denominators
  std::vector<double> row_sq;      ///< ||A_i||^2 (Kaczmarz sampling weights)
  std::vector<double> inv_row_sq;  ///< 1/||A_i||^2 projection denominators
                                   ///< (0 for zero rows: their update no-ops)
  SharedSlot<AliasTable> col_sampler;  ///< coordinate descent, ∝ col_sq
  SharedSlot<AliasTable> row_sampler;  ///< Kaczmarz, ∝ row_sq
};

}  // namespace detail

namespace {

/// Preconditions every handle solve checks first, whatever the method: a
/// control no path can honour is an error, never a silent default (a NaN
/// rel_tol would otherwise skip every check, and a negative count would
/// fall back to the pool capacity or the Krylov default).
void validate_controls(const SolveControls& controls, const char* who) {
  // One message per violated precondition; `who` names the entry point.
  auto fail = [&](const char* what) {
    throw Error(std::string(who) + ": " + what);
  };
  if (controls.sweeps < 0) fail("sweeps must be non-negative");
  if (controls.max_iterations < 0)
    fail("max_iterations must be non-negative (0 = auto)");
  if (controls.workers < 0)
    fail("workers must be non-negative (0 = pool capacity)");
  if (!(controls.step_size > 0.0 && controls.step_size < 2.0))
    fail("step size must be in (0, 2)");
  if (!(std::isfinite(controls.rel_tol) && controls.rel_tol >= 0.0))
    fail("rel_tol must be finite and non-negative");
  if (controls.inner_sweeps < 1)
    fail("inner_sweeps must be positive (kFcgAsyRgs's sweeps per "
         "preconditioner application)");
  if (controls.sampling != SamplingPolicy::kUniform &&
      controls.scope != RandomizationScope::kShared)
    fail("non-uniform sampling requires the shared randomization scope "
         "(owner-computes partitions have no global distribution)");
}

/// Preconditions for partitioned scheduling.  Callers that cannot serve it
/// at all (block, least squares, Krylov) reject partitions != 0 themselves
/// with a pointer to the supported path; this validates the knobs on any
/// path, including that steal_rate is inert without partitions.
void validate_partition_controls(const SolveControls& controls,
                                 const char* who) {
  auto fail = [&](const char* what) {
    throw Error(std::string(who) + ": " + what);
  };
  if (controls.partitions < 0) fail("partitions must be non-negative");
  if (controls.partitions == 0) {
    if (controls.steal_rate != 0.0)
      fail("steal_rate requires partitioned scheduling (partitions >= 1)");
    return;
  }
  if (!(controls.steal_rate >= 0.0 && controls.steal_rate < 1.0))
    fail("steal_rate must be in [0, 1)");
  if (controls.sampling != SamplingPolicy::kUniform)
    fail("partitioned scheduling draws uniformly within partitions; "
         "non-uniform sampling policies apply to the unpartitioned engine");
  if (controls.scope != RandomizationScope::kShared)
    fail("partitioned scheduling supplies its own ownership structure; use "
         "the shared randomization scope");
}

/// The kWeighted alias table in `slot`, built from `weights()` (one weight
/// per direction) by the first weighted solve of any handle sharing the
/// slot and counted in that handle's `builds`; null for uniform draws.  The
/// caller holds its handle's mutex.
template <class Weights>
const AliasTable* weighted_sampler(SamplingPolicy policy,
                                   detail::SharedSlot<AliasTable>& slot,
                                   Weights&& weights, long long& builds) {
  if (policy != SamplingPolicy::kWeighted) return nullptr;
  return &slot.get(
      [&] {
        const std::vector<double>& w = weights();
        auto table = std::make_unique<AliasTable>();
        table->build(w.data(), static_cast<index_t>(w.size()));
        return table;
      },
      builds);
}

const char* sync_name(SyncMode sync) {
  switch (sync) {
    case SyncMode::kFreeRunning:
      return "free running";
    case SyncMode::kBarrierPerSweep:
      return "barrier per sweep";
  }
  return "?";
}

int clamp_workers(int requested, const ThreadPool& pool) {
  int workers = requested > 0 ? requested : pool.size();
  if (workers > pool.size()) workers = pool.size();
  return workers;
}

/// The tail of every asynchronous solve path: builds the plan with
/// `make_plan()`, runs it through the engine with the update functor that
/// `make_update.template operator()<kAtomicWrites>()` returns for the
/// controls' write mode, and reports the run.  `seconds` times the plan's
/// construction and the run.  The description reads "<head>, <P> threads,
/// <lead><sync mode><note>[, weighted sampling][, <storage> storage]",
/// naming the team the engine actually ran (out.workers).
template <class Matrix, class MakePlan, class Residual, class MakeUpdate>
SolveOutcome run_async(ThreadPool& pool, detail::EngineScratch& scratch,
                       const SolveControls& controls, MakePlan&& make_plan,
                       Residual& residual, MakeUpdate&& make_update,
                       const char* head, const std::string& lead = "",
                       const std::string& note = "") {
  SolveOutcome out;
  WallTimer timer;
  const detail::DirectionPlan plan = make_plan();
  if (controls.atomic_writes) {
    const auto update = make_update.template operator()<true>();
    detail::run_engine(pool, controls, plan, update, residual, out, &scratch);
  } else {
    const auto update = make_update.template operator()<false>();
    detail::run_engine(pool, controls, plan, update, residual, out, &scratch);
  }
  out.seconds = timer.seconds();

  out.storage_used = Matrix::kStorage;
  out.sampling_used = controls.sampling;
  out.description = std::string(head) + ", " + std::to_string(out.workers) +
                    " threads, " + lead + sync_name(controls.sync) + note;
  if (controls.sampling == SamplingPolicy::kWeighted)
    out.description += ", weighted sampling";
  if (Matrix::kStorage != StoragePolicy::kInt64Double)
    out.description +=
        std::string(", ") + to_string(Matrix::kStorage) + " storage";
  return out;
}

}  // namespace

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::kConverged:
      return "converged";
    case SolveStatus::kToleranceNotReached:
      return "tolerance-not-reached";
    case SolveStatus::kBudgetCompleted:
      return "budget-completed";
    case SolveStatus::kRejected:
      return "rejected";
  }
  return "?";
}

const char* to_string(StorageMode mode) noexcept {
  switch (mode) {
    case StorageMode::kAuto:
      return "auto";
    case StorageMode::kInt64Double:
      return "int64_double";
  }
  return "?";
}

StoragePolicy resolve_storage_policy(StorageMode mode, index_t max_index,
                                     nnz_t nnz) noexcept {
  if (mode == StorageMode::kInt64Double) return StoragePolicy::kInt64Double;
  // Narrowing is free of arithmetic consequences (results stay
  // bit-identical), so auto takes the bandwidth win whenever both guards
  // pass: the index width for the coordinates, and the (conservative — see
  // the header) int32 bound on the nonzero count.
  const bool fits =
      index_width_fits<std::int32_t>(max_index) &&
      nnz <= static_cast<nnz_t>(std::numeric_limits<std::int32_t>::max());
  return fits ? StoragePolicy::kInt32Double : StoragePolicy::kInt64Double;
}

// --- SpdProblem --------------------------------------------------------------

SpdProblem::SpdProblem(ThreadPool& pool, const CsrMatrix& a, bool check_input,
                       StorageMode storage)
    : pool_(pool),
      a_(a),
      operators_(std::make_shared<detail::SpdOperators>()),
      scratch_(std::make_unique<detail::ProblemScratch>()) {
  require(a.square(), "SpdProblem: matrix must be square");
  std::vector<double>& inv_diag = operators_->inv_diag;
  inv_diag = a.diagonal();
  for (double& d : inv_diag) {
    require(d > 0.0, "SpdProblem: diagonal must be strictly positive "
                     "(matrix cannot be SPD)");
    d = 1.0 / d;
  }
  ++stats_.validation_passes;
  // The symmetry check merges each entry with its mirror in place; no SPD
  // kernel reads A^T, so none is built.
  if (check_input)
    require(is_symmetric(a, 1e-12 * inf_norm(a)),
            "SpdProblem: matrix is not symmetric");
  // Only the policy is resolved here; its compact copy is built on demand.
  storage_ = resolve_storage_policy(storage, a.cols(), a.nnz());
  stats_.storage = storage_;
}

SpdProblem::SpdProblem(ThreadPool& pool, const SpdProblem& other)
    : pool_(pool),
      a_(other.a_),
      storage_(other.storage_),
      operators_(other.operators_),
      scratch_(std::make_unique<detail::ProblemScratch>()) {
  // Sharing the slots (not their current contents) is what lets a clone
  // taken before a build read it: the shard-clone contract (analysis once
  // per service) holds for the on-demand operators too.
  stats_.storage = storage_;
}

SpdProblem::~SpdProblem() = default;

const detail::SpdPartitionState& SpdProblem::partition_state() {
  return operators_->partition.get(
      [&] {
        return std::make_unique<const detail::SpdPartitionState>(
            a_, storage_, operators_->inv_diag);
      },
      stats_.partition_builds);
}

const CsrMatrix32* SpdProblem::compact() {
  if (storage_ != StoragePolicy::kInt32Double) return nullptr;
  return &operators_->compact.get(
      [&] {
        return std::make_unique<const CsrMatrix32>(
            convert_storage<std::int32_t>(a_));
      },
      stats_.compact_builds);
}

void SpdProblem::prepare_partitions() {
  const std::scoped_lock lock(mutex_);
  partition_state();
}

void SpdProblem::prepare_compact() {
  const std::scoped_lock lock(mutex_);
  compact();
}

ProblemStats SpdProblem::stats() const {
  const std::scoped_lock lock(mutex_);
  ProblemStats s = stats_;
  s.scratch_allocations = scratch_->engine.allocations();
  return s;
}

SolveOutcome SpdProblem::solve(const std::vector<double>& b,
                               std::vector<double>& x,
                               const SolveControls& controls) {
  const std::scoped_lock lock(mutex_);
  require(static_cast<index_t>(b.size()) == a_.rows() && x.size() == b.size(),
          "SpdProblem::solve: shape mismatch");
  validate_controls(controls, "SpdProblem::solve");
  SpdMethod method = controls.method;
  require(method != SpdMethod::kAsyncKaczmarz,
          "SpdProblem::solve: the Kaczmarz row-action method is served by "
          "LsqProblem (it needs no symmetry and covers rectangular and "
          "inconsistent systems)");
  if (method == SpdMethod::kAuto) {
    // The paper's Section 9 guidance: basic asynchronous iterations in the
    // low-accuracy regime, AsyRGS-preconditioned flexible CG when high
    // accuracy is sought.
    method = (controls.rel_tol <= 0.0 || controls.rel_tol >= 1e-4)
                 ? SpdMethod::kAsyncRgs
                 : SpdMethod::kFcgAsyRgs;
  }
  if (method == SpdMethod::kAsyncJacobi)
    require(controls.step_size <= 1.0,
            "SpdProblem::solve: chaotic relaxation's damping (step_size) "
            "must be in (0, 1]");
  if (method != SpdMethod::kAsyncRgs)
    require(controls.sampling == SamplingPolicy::kUniform,
            "SpdProblem::solve: sampling policies weight AsyRGS's random "
            "draws (the method must resolve to kAsyncRgs); chaotic "
            "relaxation sweeps its rows in a fixed order and the Krylov "
            "methods draw no directions");
  validate_partition_controls(controls, "SpdProblem::solve");
  if (controls.partitions != 0)
    require(method == SpdMethod::kAsyncRgs,
            "SpdProblem::solve: partitioned scheduling applies to AsyRGS "
            "only (the method must resolve to kAsyncRgs)");
  const bool krylov =
      method == SpdMethod::kCg || method == SpdMethod::kFcgAsyRgs;
  SolveOutcome out =
      krylov                     ? solve_krylov(b, x, controls, method)
      : controls.partitions != 0 ? solve_async_partitioned(b, x, controls)
                                 : solve_async_single(b, x, controls);
  out.method_used = method;
  ++stats_.solves;
  return out;
}

SolveOutcome SpdProblem::solve_async_single(const std::vector<double>& b,
                                            std::vector<double>& x,
                                            const SolveControls& controls) {
  if (const CsrMatrix32* a32 = compact())
    return solve_async_single_on(*a32, b, x, controls);
  return solve_async_single_on(a_, b, x, controls);
}

template <class Matrix>
SolveOutcome SpdProblem::solve_async_single_on(const Matrix& a,
                                               const std::vector<double>& b,
                                               std::vector<double>& x,
                                               const SolveControls& controls) {
  using Index = typename Matrix::index_type;
  const index_t n = a.rows();
  const int workers = clamp_workers(controls.workers, pool_);

  detail::pack_rhs_diag(b, operators_->inv_diag, scratch_->rhs_diag);
  detail::SingleRhsResidual residual(a, scratch_->rhs_diag, x.data(),
                                     scratch_->engine.reduce(workers));
  // Weights from the bound full-width matrix, so the distribution does not
  // depend on the storage policy the kernels run against.
  const AliasTable* const sampler =
      weighted_sampler(controls.sampling, operators_->sampler,
                       [&] { return detail::row_sq_norms(a_); },
                       stats_.sampler_builds);

  // Chaotic relaxation is the same update over a cyclic plan of owned rows
  // instead of random draws.
  const bool chaotic = controls.method == SpdMethod::kAsyncJacobi;
  return run_async<Matrix>(
      pool_, scratch_->engine, controls,
      [&] {
        return chaotic
                   ? detail::DirectionPlan::cyclic(controls.scope, n, workers)
                   : detail::DirectionPlan(controls.seed, controls.scope, n,
                                           workers, sampler);
      },
      residual,
      [&]<bool kAtomic>() {
        return detail::SingleRhsUpdate<kAtomic, Index>{
            a.row_ptr().data(),        a.col_idx().data(), a.values().data(),
            scratch_->rhs_diag.data(), x.data(),           controls.step_size};
      },
      chaotic ? "chaotic relaxation" : "AsyRGS");
}

SolveOutcome SpdProblem::solve_async_partitioned(
    const std::vector<double>& b, std::vector<double>& x,
    const SolveControls& controls) {
  const PartitionAnalysis& analysis = partition_state().analysis;
  if (analysis.storage() == StoragePolicy::kInt32Double)
    return solve_async_partitioned_on(analysis.permuted<std::int32_t>(), b, x,
                                      controls);
  return solve_async_partitioned_on(analysis.permuted(), b, x, controls);
}

template <class Matrix>
SolveOutcome SpdProblem::solve_async_partitioned_on(
    const Matrix& a, const std::vector<double>& b, std::vector<double>& x,
    const SolveControls& controls) {
  using Index = typename Matrix::index_type;
  const detail::SpdPartitionState& st = partition_state();
  const int workers = clamp_workers(controls.workers, pool_);

  // The cut is partition-count-keyed and cached on the analysis; the clamp
  // to [1, n] happens inside and is surfaced via partitions_used.
  const std::shared_ptr<const GraphPartition> cut =
      st.analysis.cut(controls.partitions);
  const int partitions = cut->count();

  // Permute the problem into RCM space: xp[i] = x[perm[i]], and b[perm[i]]
  // goes straight into the (b, 1/diag) pairs beside the permuted
  // reciprocals.  The engine then runs entirely on the permuted operator,
  // with the iterate in cache-line-aligned storage and partition boundaries
  // cut at line multiples — cross-worker sharing of an iterate line happens
  // only on deliberate halo steals.
  const std::vector<index_t>& perm = st.analysis.perm();
  aligned_vector<double>& xp = scratch_->xp;
  std::vector<detail::RhsDiagPair>& rhs_diag = scratch_->rhs_diag;
  xp.resize(b.size());
  rhs_diag.resize(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    const std::size_t o = static_cast<std::size_t>(perm[i]);
    xp[i] = x[o];
    rhs_diag[i] = {b[o], st.inv_diag[i]};
  }

  // The residual norm is permutation-invariant, so evaluating it on the
  // permuted system reports exactly the metric the unpartitioned path
  // would.
  detail::SingleRhsResidual residual(a, rhs_diag, xp.data(),
                                     scratch_->engine.reduce(workers));

  std::string steal = std::to_string(controls.steal_rate);
  // Trim to the informative digits (to_string pads to 6 decimals).
  while (steal.size() > 1 && steal.back() == '0') steal.pop_back();
  if (!steal.empty() && steal.back() == '.') steal.pop_back();
  SolveOutcome out = run_async<Matrix>(
      pool_, scratch_->engine, controls,
      [&] {
        return detail::DirectionPlan(controls.seed, cut, controls.steal_rate,
                                     workers);
      },
      residual,
      [&]<bool kAtomic>() {
        return detail::SingleRhsUpdate<kAtomic, Index>{
            a.row_ptr().data(), a.col_idx().data(), a.values().data(),
            rhs_diag.data(),    xp.data(),          controls.step_size};
      },
      "AsyRGS", "",
      ", " + std::to_string(partitions) + " partitions (RCM, steal " + steal +
          ")");

  for (std::size_t i = 0; i < b.size(); ++i)
    x[static_cast<std::size_t>(perm[i])] = xp[i];
  out.partitions_used = partitions;
  out.steal_rate_used = controls.steal_rate;
  return out;
}

SolveOutcome SpdProblem::solve_krylov(const std::vector<double>& b,
                                      std::vector<double>& x,
                                      const SolveControls& controls,
                                      SpdMethod method) {
  const int workers = clamp_workers(controls.workers, pool_);
  const int max_iterations =
      controls.max_iterations > 0 ? controls.max_iterations : 10000;
  const double rel_tol = controls.rel_tol > 0.0 ? controls.rel_tol : 1e-8;

  // FCG's inner sweeps read the compact copy: build it (if no sharer has)
  // before the timer, so `seconds` stays iteration time.
  if (method == SpdMethod::kFcgAsyRgs) compact();

  SolveOutcome out;
  out.workers = workers;
  WallTimer timer;
  if (method == SpdMethod::kFcgAsyRgs) {
    // The preconditioner borrows this prepared handle, so every outer
    // iteration's inner sweeps reuse the cached reciprocals and scratch.
    AsyRgsPreconditioner precond(*this, controls.inner_sweeps, workers,
                                 /*step_size=*/1.0, controls.seed,
                                 controls.atomic_writes);
    FcgOptions fo;
    fo.base.max_iterations = max_iterations;
    fo.base.rel_tol = rel_tol;
    fo.base.track_history = controls.track_history;
    const FcgReport rep = fcg_solve(pool_, a_, b, x, precond, fo, workers);
    out.status = rep.base.converged ? SolveStatus::kConverged
                                    : SolveStatus::kToleranceNotReached;
    out.iterations = rep.base.iterations;
    out.relative_residual = rep.base.final_relative_residual;
    out.residual_history = rep.base.residual_history;
    out.description = "flexible CG + " + precond.name();
  } else {
    SolveOptions so;
    so.max_iterations = max_iterations;
    so.rel_tol = rel_tol;
    so.track_history = controls.track_history;
    const SolveReport rep =
        cg_solve(pool_, a_, b, x, so, nullptr, controls.workers);
    out.status = rep.converged ? SolveStatus::kConverged
                               : SolveStatus::kToleranceNotReached;
    out.iterations = rep.iterations;
    out.relative_residual = rep.final_relative_residual;
    out.residual_history = rep.residual_history;
    out.description = "conjugate gradients";
  }
  out.seconds = timer.seconds();
  return out;
}

SolveOutcome SpdProblem::solve(const MultiVector& b, MultiVector& x,
                               const SolveControls& controls) {
  const std::scoped_lock lock(mutex_);
  require(b.rows() == a_.rows() && x.rows() == a_.rows() &&
              b.cols() == x.cols(),
          "SpdProblem::solve(block): shape mismatch");
  validate_controls(controls, "SpdProblem::solve(block)");
  require(controls.method == SpdMethod::kAuto ||
              controls.method == SpdMethod::kAsyncRgs,
          "SpdProblem::solve(block): only AsyRGS (kAuto or kAsyncRgs) "
          "supports block right-hand sides");
  validate_partition_controls(controls, "SpdProblem::solve(block)");
  require(controls.partitions == 0,
          "SpdProblem::solve(block): partitioned scheduling is "
          "single-right-hand-side only");
  const CsrMatrix32* a32 = compact();
  SolveOutcome out = a32 ? solve_block_on(*a32, b, x, controls)
                         : solve_block_on(a_, b, x, controls);
  out.method_used = SpdMethod::kAsyncRgs;
  ++stats_.solves;
  return out;
}

template <class Matrix>
SolveOutcome SpdProblem::solve_block_on(const Matrix& a, const MultiVector& b,
                                        MultiVector& x,
                                        const SolveControls& controls) {
  using Index = typename Matrix::index_type;
  const index_t n = a.rows();
  const index_t k = b.cols();
  const int workers = clamp_workers(controls.workers, pool_);

  detail::BlockResidual residual(a, b, x, scratch_->engine.reduce(workers));
  const AliasTable* const sampler =
      weighted_sampler(controls.sampling, operators_->sampler,
                       [&] { return detail::row_sq_norms(a_); },
                       stats_.sampler_builds);

  // Per-worker gamma scratch in one aligned slab, strided to whole cache
  // lines with a guard line between workers: adjacent heap allocations here
  // would false-share and destroy block-solve scaling.
  const std::size_t doubles_per_line = kCacheLineBytes / sizeof(double);
  const std::size_t stride =
      ((static_cast<std::size_t>(k) + doubles_per_line - 1) /
       doubles_per_line) *
          doubles_per_line +
      doubles_per_line;
  double* const gamma = scratch_->engine.slab(workers, stride);
  return run_async<Matrix>(
      pool_, scratch_->engine, controls,
      [&] {
        return detail::DirectionPlan(controls.seed, controls.scope, n, workers,
                                     sampler);
      },
      residual,
      [&]<bool kAtomic>() {
        return detail::BlockRhsUpdate<kAtomic, Index>{
            &a, &b, &x, operators_->inv_diag.data(), controls.step_size, gamma,
            stride};
      },
      "AsyRGS block", std::to_string(k) + " rhs, ");
}

// --- LsqProblem --------------------------------------------------------------

namespace {

/// The per-matrix state of a least-squares handle under `policy`.  Both
/// operands share one width, because the update kernel walks rows of A and
/// rows of A^T in one pass.  A^T is transposed once, straight at that width,
/// so no full-width A^T ever sits beside the compact pair.  Computes the
/// norms too, validating full column rank.  The squared row norms double as
/// the Strohmer-Vershynin sampling weights and (reciprocated) as the
/// Kaczmarz projection denominators.  Zero rows are legal — their weight is
/// 0 and their inverse is 0, so the row is never preferred and its update
/// no-ops.  Counts the transpose in `transpose_builds`.
std::shared_ptr<detail::LsqOperators> lsq_operators(const CsrMatrix& a,
                                                    StoragePolicy policy,
                                                    int& transpose_builds) {
  auto ops = std::make_shared<detail::LsqOperators>();
  if (policy == StoragePolicy::kInt32Double) {
    ops->a32.emplace(convert_storage<std::int32_t>(a));
    ops->at32.emplace(ops->a32->transpose());
    ops->col_sq = detail::column_sq_norms(*ops->at32);
  } else {
    ops->at.emplace(a.transpose());
    ops->col_sq = detail::column_sq_norms(*ops->at);
  }
  ++transpose_builds;
  for (double s : ops->col_sq)
    require(s > 0.0, "LsqProblem: zero column (A must have full rank)");
  ops->row_sq = detail::row_sq_norms(a);
  ops->inv_row_sq.resize(ops->row_sq.size());
  for (std::size_t i = 0; i < ops->row_sq.size(); ++i)
    ops->inv_row_sq[i] = ops->row_sq[i] > 0.0 ? 1.0 / ops->row_sq[i] : 0.0;
  return ops;
}

}  // namespace

LsqProblem::LsqProblem(ThreadPool& pool, const CsrMatrix& a,
                       StorageMode storage)
    : pool_(pool),
      a_(a),
      // A^T's column indices are row indices of A, so narrowing must fit
      // the larger of the two dimensions.
      storage_(resolve_storage_policy(storage, std::max(a.rows(), a.cols()),
                                      a.nnz())),
      scratch_(std::make_unique<detail::ProblemScratch>()) {
  operators_ = lsq_operators(a, storage_, stats_.transpose_builds);
  ++stats_.validation_passes;
  stats_.storage = storage_;
}

LsqProblem::LsqProblem(ThreadPool& pool, const LsqProblem& other)
    : pool_(pool),
      a_(other.a_),
      storage_(other.storage_),
      operators_(other.operators_),
      scratch_(std::make_unique<detail::ProblemScratch>()) {
  stats_.storage = storage_;
}

LsqProblem::~LsqProblem() = default;

ProblemStats LsqProblem::stats() const {
  const std::scoped_lock lock(mutex_);
  ProblemStats s = stats_;
  s.scratch_allocations = scratch_->engine.allocations();
  return s;
}

SolveOutcome LsqProblem::solve(const std::vector<double>& b,
                               std::vector<double>& x,
                               const SolveControls& controls) {
  const std::scoped_lock lock(mutex_);
  require(static_cast<index_t>(b.size()) == a_.rows() &&
              static_cast<index_t>(x.size()) == a_.cols(),
          "LsqProblem::solve: shape mismatch");
  validate_controls(controls, "LsqProblem::solve");
  require(controls.method == SpdMethod::kAuto ||
              controls.method == SpdMethod::kAsyncRgs ||
              controls.method == SpdMethod::kAsyncKaczmarz,
          "LsqProblem::solve: least squares is served by the asynchronous "
          "methods (kAsyncRgs coordinate descent or kAsyncKaczmarz row "
          "action)");
  validate_partition_controls(controls, "LsqProblem::solve");
  require(controls.partitions == 0,
          "LsqProblem::solve: partitioned scheduling is served by "
          "SpdProblem (it partitions a symmetric operator's graph)");
  const bool kaczmarz = controls.method == SpdMethod::kAsyncKaczmarz;
  const detail::LsqOperators& ops = *operators_;
  SolveOutcome out;
  if (ops.at32)
    out = kaczmarz ? solve_kaczmarz_on(*ops.a32, *ops.at32, b, x, controls)
                   : solve_on(*ops.a32, *ops.at32, b, x, controls);
  else
    out = kaczmarz ? solve_kaczmarz_on(a_, *ops.at, b, x, controls)
                   : solve_on(a_, *ops.at, b, x, controls);
  out.method_used =
      kaczmarz ? SpdMethod::kAsyncKaczmarz : SpdMethod::kAsyncRgs;
  ++stats_.solves;
  return out;
}

template <class Matrix>
SolveOutcome LsqProblem::solve_on(const Matrix& a, const Matrix& at,
                                  const std::vector<double>& b,
                                  std::vector<double>& x,
                                  const SolveControls& controls) {
  using Index = typename Matrix::index_type;
  const index_t n = a.cols();
  const int workers = clamp_workers(controls.workers, pool_);

  const bool check = controls.track_history || controls.rel_tol > 0.0;
  double* const r =
      check ? scratch_->engine.dense(static_cast<std::size_t>(a.rows()))
            : nullptr;
  detail::LsqResidual residual(a, at, b, x.data(),
                               scratch_->engine.reduce(workers), r, check);

  // Coordinate-descent weights: the column squared norms computed at
  // preparation.
  const AliasTable* const sampler = weighted_sampler(
      controls.sampling, operators_->col_sampler,
      [&]() -> const std::vector<double>& { return operators_->col_sq; },
      stats_.sampler_builds);

  return run_async<Matrix>(
      pool_, scratch_->engine, controls,
      [&] {
        return detail::DirectionPlan(controls.seed, controls.scope, n, workers,
                                     sampler);
      },
      residual,
      [&]<bool kAtomic>() {
        return detail::LsqUpdate<kAtomic, Index>{
            a.row_ptr().data(),        a.col_idx().data(),
            a.values().data(),         at.row_ptr().data(),
            at.col_idx().data(),       at.values().data(),
            b.data(),                  operators_->col_sq.data(),
            x.data(),                  controls.step_size};
      },
      "AsyRCD least squares");
}

template <class Matrix>
SolveOutcome LsqProblem::solve_kaczmarz_on(const Matrix& a, const Matrix& at,
                                           const std::vector<double>& b,
                                           std::vector<double>& x,
                                           const SolveControls& controls) {
  using Index = typename Matrix::index_type;
  // Directions are the ROWS of A (one sweep = m row projections), unlike
  // coordinate descent whose directions are columns.
  const index_t m = a.rows();
  const int workers = clamp_workers(controls.workers, pool_);

  // Same normal-equations metric as coordinate descent, so outcomes of the
  // two methods are directly comparable (and inconsistent systems — where
  // ||b - Ax|| cannot reach zero — still report a meaningful residual).
  const bool check = controls.track_history || controls.rel_tol > 0.0;
  double* const r =
      check ? scratch_->engine.dense(static_cast<std::size_t>(a.rows()))
            : nullptr;
  detail::LsqResidual residual(a, at, b, x.data(),
                               scratch_->engine.reduce(workers), r, check);

  // The Strohmer-Vershynin distribution p_i ∝ ||A_i||^2, from the
  // prepare-time norms.
  const AliasTable* const sampler = weighted_sampler(
      controls.sampling, operators_->row_sampler,
      [&]() -> const std::vector<double>& { return operators_->row_sq; },
      stats_.sampler_builds);

  return run_async<Matrix>(
      pool_, scratch_->engine, controls,
      [&] {
        return detail::DirectionPlan(controls.seed, controls.scope, m, workers,
                                     sampler);
      },
      residual,
      [&]<bool kAtomic>() {
        return detail::KaczmarzUpdate<kAtomic, Index>{
            a.row_ptr().data(),            a.col_idx().data(),
            a.values().data(),             b.data(),
            operators_->inv_row_sq.data(), x.data(),
            controls.step_size};
      },
      "AsyKaczmarz least squares");
}

}  // namespace asyrgs
