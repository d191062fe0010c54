#include "asyrgs/problem.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
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
/// each solve, plus the engine's per-worker buffers.  Lives behind a pimpl
/// so problem.hpp stays free of the unstable engine/kernel internals.
struct ProblemScratch {
  std::vector<RhsDiagPair> rhs_diag;
  EngineScratch engine;
  /// Partitioned-solve staging: the iterate in RCM order, cache-line
  /// aligned so partition-owned slices never share a line (the boundaries
  /// are cut at kPartitionAlignRows multiples), and the permuted rhs.
  aligned_vector<double> xp;
  std::vector<double> bp;
};

/// Prepare-time partition analysis for SpdProblem: the RCM analysis, whose
/// permuted operator is built at the handle's storage width (so partitioned
/// solves run the same storage the unpartitioned path does, from the one
/// permuted copy), and the handle's diagonal reciprocals in RCM order.
/// Immutable once constructed; clones alias it via shared_ptr exactly like
/// the compact storage copy.
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
  if (!(controls.sync_interval_seconds > 0.0))
    fail("sync interval must be positive");
}

/// Preconditions shared by every non-uniform sampling request.  The block
/// path passes residual_ok = false: its residual metric is a Frobenius norm
/// over all columns, which has no per-direction weight to refresh.
void validate_sampling_controls(const SolveControls& controls, const char* who,
                                bool residual_ok = true) {
  auto fail = [&](const char* what) {
    throw Error(std::string(who) + ": " + what);
  };
  if (controls.sampling == SamplingPolicy::kUniform) return;
  if (controls.scope != RandomizationScope::kShared)
    fail("non-uniform sampling requires the shared randomization scope "
         "(owner-computes partitions have no global distribution)");
  if (controls.sampling == SamplingPolicy::kResidual) {
    if (!residual_ok)
      fail("residual-weighted sampling is single-right-hand-side only");
    if (controls.sync == SyncMode::kFreeRunning)
      fail("residual-weighted sampling refreshes its table at "
           "synchronization points; use barrier-per-sweep or timed-barrier "
           "mode");
    if (controls.resample_sweeps < 1)
      fail("resample_sweeps must be at least 1");
  }
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

std::string sampling_note(const SolveControls& controls) {
  switch (controls.sampling) {
    case SamplingPolicy::kUniform:
      return "";
    case SamplingPolicy::kWeighted:
      return ", weighted sampling";
    case SamplingPolicy::kResidual:
      return ", residual sampling (refresh every " +
             std::to_string(std::max(1, controls.resample_sweeps)) +
             " rendezvous)";
  }
  return "";
}

/// w_i = (b_i - A_i x)^2 with plain reads of x — legal only before the
/// engine starts or inside a refresh callback (team parked at the barrier).
template <class Matrix>
void row_residual_weights(const Matrix& a, const std::vector<double>& b,
                          const double* x, std::vector<double>& w) {
  w.resize(b.size());
  for (index_t i = 0; i < a.rows(); ++i) {
    double ri = b[static_cast<std::size_t>(i)];
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t s = 0; s < cols.size(); ++s) ri -= vals[s] * x[cols[s]];
    w[static_cast<std::size_t>(i)] = ri * ri;
  }
}

/// w_j = (A^T (b - A x))_j^2 — squared gradient magnitudes of the
/// least-squares objective (the natural per-column residual weight for
/// coordinate descent).  Same read contract as row_residual_weights;
/// `r` is reusable scratch of a.rows() doubles.
template <class Matrix>
void col_residual_weights(const Matrix& a, const Matrix& at,
                          const std::vector<double>& b, const double* x,
                          std::vector<double>& r, std::vector<double>& w) {
  r.resize(b.size());
  for (index_t i = 0; i < a.rows(); ++i) {
    double ri = b[static_cast<std::size_t>(i)];
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t s = 0; s < cols.size(); ++s) ri -= vals[s] * x[cols[s]];
    r[static_cast<std::size_t>(i)] = ri;
  }
  w.resize(static_cast<std::size_t>(at.rows()));
  for (index_t j = 0; j < at.rows(); ++j) {
    const auto rows = at.row_cols(j);
    const auto vals = at.row_vals(j);
    double g = 0.0;
    for (std::size_t s = 0; s < rows.size(); ++s)
      g += vals[s] * r[rows[s]];
    w[static_cast<std::size_t>(j)] = g * g;
  }
}

const char* sync_name(SyncMode sync) {
  switch (sync) {
    case SyncMode::kFreeRunning:
      return "free running";
    case SyncMode::kBarrierPerSweep:
      return "barrier per sweep";
    case SyncMode::kTimedBarrier:
      return "timed barrier";
  }
  return "?";
}

int clamp_workers(int requested, const ThreadPool& pool) {
  int workers = requested > 0 ? requested : pool.size();
  if (workers > pool.size()) workers = pool.size();
  return workers;
}

/// "<head>, <P> threads, <mode>[, <storage> storage]": the description of an
/// asynchronous run, naming the team it actually ran on (out.workers, set by
/// the engine).
void describe_async(SolveOutcome& out, const char* head,
                    const std::string& mode, StoragePolicy storage) {
  out.description = std::string(head) + ", " + std::to_string(out.workers) +
                    " threads, " + mode;
  if (storage != StoragePolicy::kInt64Double)
    out.description += std::string(", ") + to_string(storage) + " storage";
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
      scratch_(std::make_unique<detail::ProblemScratch>()) {
  require(a.square(), "SpdProblem: matrix must be square");
  inv_diag_ = a.diagonal();
  for (double& d : inv_diag_) {
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
  // Narrowing happens last, after validation passed, so a rejected matrix
  // never pays the compact copy.
  storage_ = resolve_storage_policy(storage, a.cols(), a.nnz());
  if (storage_ == StoragePolicy::kInt32Double)
    a32_ = std::make_shared<const CsrMatrix32>(
        convert_storage<std::int32_t, double>(a));
  stats_.storage = storage_;
}

SpdProblem::SpdProblem(ThreadPool& pool, const SpdProblem& other)
    : pool_(pool),
      a_(other.a_),
      a32_(other.a32_),
      storage_(other.storage_),
      inv_diag_(other.inv_diag_),
      scratch_(std::make_unique<detail::ProblemScratch>()) {
  // The compact copy is aliased, not rebuilt — the shard-clone contract
  // (analysis once per service) extends to the narrowing pass.
  stats_.storage = storage_;
  // The partition analysis is built lazily, so unlike the members above it
  // must be read under the prototype's lock (cloning stays safe concurrently
  // with solves on `other`).  The clone aliases the analysis and reports
  // zero partition_builds, like transpose_builds.
  const std::scoped_lock lock(other.mutex_);
  partition_ = other.partition_;
}

SpdProblem::~SpdProblem() = default;

const detail::SpdPartitionState& SpdProblem::partition_state() {
  if (!partition_) {
    partition_ = std::make_shared<const detail::SpdPartitionState>(
        a_, storage_, inv_diag_);
    ++stats_.partition_builds;
  }
  return *partition_;
}

void SpdProblem::prepare_partitions() {
  const std::scoped_lock lock(mutex_);
  partition_state();
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
  if (method != SpdMethod::kAsyncRgs)
    require(controls.sampling == SamplingPolicy::kUniform,
            "SpdProblem::solve: the Krylov methods draw no random "
            "directions; sampling policies apply to the asynchronous "
            "methods");
  validate_partition_controls(controls, "SpdProblem::solve");
  if (controls.partitions != 0)
    require(method == SpdMethod::kAsyncRgs,
            "SpdProblem::solve: partitioned scheduling applies to the "
            "asynchronous method only (the method must resolve to "
            "kAsyncRgs)");
  SolveOutcome out =
      method != SpdMethod::kAsyncRgs ? solve_krylov(b, x, controls, method)
      : controls.partitions != 0     ? solve_async_partitioned(b, x, controls)
                                     : solve_async_single(b, x, controls);
  out.method_used = method;
  ++stats_.solves;
  return out;
}

SolveOutcome SpdProblem::solve_async_single(const std::vector<double>& b,
                                            std::vector<double>& x,
                                            const SolveControls& controls) {
  if (a32_) return solve_async_single_on(*a32_, b, x, controls);
  return solve_async_single_on(a_, b, x, controls);
}

template <class Matrix>
SolveOutcome SpdProblem::solve_async_single_on(const Matrix& a,
                                               const std::vector<double>& b,
                                               std::vector<double>& x,
                                               const SolveControls& controls) {
  using Index = typename Matrix::index_type;
  validate_sampling_controls(controls, "SpdProblem::solve");
  const index_t n = a.rows();
  const int workers = clamp_workers(controls.workers, pool_);

  detail::pack_rhs_diag(b, inv_diag_, scratch_->rhs_diag);
  detail::SingleRhsResidual residual(a, b, x.data(), workers,
                                     scratch_->engine.reduce(workers));

  detail::EngineSampling sampling;
  std::optional<DirectionSampler> residual_sampler;
  if (controls.sampling == SamplingPolicy::kWeighted) {
    if (!weighted_sampler_) {
      // Weights from the bound full-width matrix so the distribution is
      // independent of the storage policy the kernels run against; built
      // once per handle, reused by every later weighted solve.
      const std::vector<double> w = detail::row_sq_norms(a_);
      weighted_sampler_.emplace(DirectionSampler::weighted(w.data(), n));
      ++stats_.sampler_builds;
    }
    sampling.sampler = &*weighted_sampler_;
  } else if (controls.sampling == SamplingPolicy::kResidual) {
    // Seed the table from the caller's initial iterate (deterministic
    // input, so fixed-seed runs keep the multiset contract until the
    // first refresh), then rebuild every resample_sweeps rendezvous.
    std::vector<double> w;
    row_residual_weights(a, b, x.data(), w);
    residual_sampler.emplace(DirectionSampler::residual(w.data(), n));
    sampling.sampler = &*residual_sampler;
    const int period = std::max(1, controls.resample_sweeps);
    DirectionSampler* const sampler = &*residual_sampler;
    const double* const xp = x.data();
    sampling.refresh = [&a, &b, xp, sampler, period, w = std::move(w),
                        calls = 0]() mutable {
      if (++calls % period != 0) return;
      row_residual_weights(a, b, xp, w);
      sampler->rebuild(w.data(), static_cast<index_t>(w.size()));
    };
  }

  SolveOutcome out;
  WallTimer timer;
  detail::dispatch_atomic(controls.atomic_writes, [&]<bool kAtomic>() {
    const detail::SingleRhsUpdate<kAtomic, Index> update{
        a.row_ptr().data(),        a.col_idx().data(), a.values().data(),
        scratch_->rhs_diag.data(), x.data(),           controls.step_size};
    detail::run_engine_sampled(pool_, controls, n, workers, sampling, update,
                               residual, out, &scratch_->engine);
  });
  out.seconds = timer.seconds();
  if (residual_sampler)
    stats_.sampler_builds += residual_sampler->rebuilds();

  describe_async(out, "AsyRGS",
                 sync_name(controls.sync) + sampling_note(controls),
                 Matrix::kStorage);
  out.storage_used = Matrix::kStorage;
  out.sampling_used = controls.sampling;
  return out;
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
  const detail::SpdPartitionState& st = *partition_;
  const index_t n = a.rows();
  const int workers = clamp_workers(controls.workers, pool_);

  // The cut is partition-count-keyed and cached on the analysis; the clamp
  // to [1, n] happens inside and is surfaced via partitions_used.
  const std::shared_ptr<const GraphPartition> cut =
      st.analysis.cut(controls.partitions);
  const int partitions = cut->count();

  // Permute the problem into RCM space: xp[i] = x[perm[i]], bp likewise.
  // The engine then runs entirely on the permuted operator, with the
  // iterate in cache-line-aligned storage and partition boundaries cut at
  // line multiples — cross-worker sharing of an iterate line happens only
  // on deliberate halo steals.
  const std::vector<index_t>& perm = st.analysis.perm();
  aligned_vector<double>& xp = scratch_->xp;
  std::vector<double>& bp = scratch_->bp;
  xp.resize(b.size());
  bp.resize(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    const std::size_t o = static_cast<std::size_t>(perm[i]);
    xp[i] = x[o];
    bp[i] = b[o];
  }

  detail::pack_rhs_diag(bp, st.inv_diag, scratch_->rhs_diag);
  // The residual norm is permutation-invariant, so evaluating it on the
  // permuted system reports exactly the metric the unpartitioned path
  // would.
  detail::SingleRhsResidual residual(a, bp, xp.data(), workers,
                                     scratch_->engine.reduce(workers));

  SolveOutcome out;
  WallTimer timer;
  detail::dispatch_atomic(controls.atomic_writes, [&]<bool kAtomic>() {
    const detail::SingleRhsUpdate<kAtomic, Index> update{
        a.row_ptr().data(),        a.col_idx().data(), a.values().data(),
        scratch_->rhs_diag.data(), xp.data(),          controls.step_size};
    detail::run_engine_with_plan(
        pool_, controls, n, workers,
        [&](int team) {
          return detail::PartitionedDirectionPlan(controls.seed, *cut,
                                                  controls.steal_rate, team);
        },
        /*refresh=*/std::function<void()>{}, update, residual, out,
        &scratch_->engine);
  });
  out.seconds = timer.seconds();

  for (std::size_t i = 0; i < b.size(); ++i)
    x[static_cast<std::size_t>(perm[i])] = xp[i];

  std::string steal = std::to_string(controls.steal_rate);
  // Trim to the informative digits (to_string pads to 6 decimals).
  while (steal.size() > 1 && steal.back() == '0') steal.pop_back();
  if (!steal.empty() && steal.back() == '.') steal.pop_back();
  describe_async(out, "AsyRGS",
                 std::string(sync_name(controls.sync)) + ", " +
                     std::to_string(partitions) + " partitions (RCM, steal " +
                     steal + ")",
                 Matrix::kStorage);
  out.storage_used = Matrix::kStorage;
  out.sampling_used = controls.sampling;
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
          "SpdProblem::solve(block): only the asynchronous method supports "
          "block right-hand sides");
  validate_sampling_controls(controls, "SpdProblem::solve(block)",
                             /*residual_ok=*/false);
  validate_partition_controls(controls, "SpdProblem::solve(block)");
  require(controls.partitions == 0,
          "SpdProblem::solve(block): partitioned scheduling is "
          "single-right-hand-side only");
  SolveOutcome out = a32_ ? solve_block_on(*a32_, b, x, controls)
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

  detail::BlockResidual residual(a, b, x, workers,
                                 scratch_->engine.reduce(workers));

  detail::EngineSampling sampling;
  if (controls.sampling == SamplingPolicy::kWeighted) {
    if (!weighted_sampler_) {
      const std::vector<double> w = detail::row_sq_norms(a_);
      weighted_sampler_.emplace(DirectionSampler::weighted(w.data(), n));
      ++stats_.sampler_builds;
    }
    sampling.sampler = &*weighted_sampler_;
  }

  SolveOutcome out;
  WallTimer timer;
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
  detail::dispatch_atomic(controls.atomic_writes, [&]<bool kAtomic>() {
    const detail::BlockRhsUpdate<kAtomic, Index> update{
        &a, &b, &x, inv_diag_.data(), controls.step_size, gamma, stride};
    detail::run_engine_sampled(pool_, controls, n, workers, sampling, update,
                               residual, out, &scratch_->engine);
  });
  out.seconds = timer.seconds();

  describe_async(out, "AsyRGS block",
                 std::to_string(k) + " rhs, " + sync_name(controls.sync) +
                     sampling_note(controls),
                 Matrix::kStorage);
  out.storage_used = Matrix::kStorage;
  out.sampling_used = controls.sampling;
  return out;
}

// --- LsqProblem --------------------------------------------------------------

namespace {

/// Builds the compact (A, A^T) pair for the int32 least-squares policy.
/// Both operands narrow or neither: the update kernel walks rows of A and
/// rows of A^T in one pass, and mixing widths there would force per-access
/// dispatch.
void narrow_lsq_pair(const CsrMatrix& a, const CsrMatrix& at,
                     std::shared_ptr<const CsrMatrix32>& a_out,
                     std::shared_ptr<const CsrMatrix32>& at_out) {
  a_out = std::make_shared<const CsrMatrix32>(
      convert_storage<std::int32_t, double>(a));
  at_out = std::make_shared<const CsrMatrix32>(
      convert_storage<std::int32_t, double>(at));
}

}  // namespace

LsqProblem::LsqProblem(ThreadPool& pool, const CsrMatrix& a,
                       StorageMode storage)
    : pool_(pool),
      a_(a),
      scratch_(std::make_unique<detail::ProblemScratch>()) {
  bool built_now = false;
  at_holder_ = a.transpose_shared(&built_now);
  at_ = at_holder_.get();
  if (built_now) ++stats_.transpose_builds;
  col_sq_ = detail::column_sq_norms(*at_);
  for (double s : col_sq_)
    require(s > 0.0, "LsqProblem: zero column (A must have full rank)");
  // Kaczmarz prepare-time analysis: squared row norms double as the
  // Strohmer-Vershynin sampling weights and (reciprocated) as the row
  // projection denominators.  Zero rows are legal — their weight is 0 and
  // their inverse is 0, so the row is never preferred and its update no-ops.
  row_sq_ = detail::row_sq_norms(a);
  inv_row_sq_.resize(row_sq_.size());
  for (std::size_t i = 0; i < row_sq_.size(); ++i)
    inv_row_sq_[i] = row_sq_[i] > 0.0 ? 1.0 / row_sq_[i] : 0.0;
  ++stats_.validation_passes;
  // A^T's column indices are row indices of A, so narrowing must fit the
  // larger of the two dimensions.
  storage_ =
      resolve_storage_policy(storage, std::max(a.rows(), a.cols()), a.nnz());
  if (storage_ == StoragePolicy::kInt32Double)
    narrow_lsq_pair(a, *at_, a32_, at32_);
  stats_.storage = storage_;
}

LsqProblem::LsqProblem(ThreadPool& pool, const CsrMatrix& a,
                       const CsrMatrix& at, StorageMode storage)
    : pool_(pool),
      a_(a),
      at_(&at),
      scratch_(std::make_unique<detail::ProblemScratch>()) {
  require(at.rows() == a.cols() && at.cols() == a.rows(),
          "LsqProblem: `at` must be the transpose of `a`");
  col_sq_ = detail::column_sq_norms(at);
  for (double s : col_sq_)
    require(s > 0.0, "LsqProblem: zero column (A must have full rank)");
  // Kaczmarz prepare-time analysis: squared row norms double as the
  // Strohmer-Vershynin sampling weights and (reciprocated) as the row
  // projection denominators.  Zero rows are legal — their weight is 0 and
  // their inverse is 0, so the row is never preferred and its update no-ops.
  row_sq_ = detail::row_sq_norms(a);
  inv_row_sq_.resize(row_sq_.size());
  for (std::size_t i = 0; i < row_sq_.size(); ++i)
    inv_row_sq_[i] = row_sq_[i] > 0.0 ? 1.0 / row_sq_[i] : 0.0;
  ++stats_.validation_passes;
  storage_ =
      resolve_storage_policy(storage, std::max(a.rows(), a.cols()), a.nnz());
  if (storage_ == StoragePolicy::kInt32Double)
    narrow_lsq_pair(a, at, a32_, at32_);
  stats_.storage = storage_;
}

LsqProblem::LsqProblem(ThreadPool& pool, const LsqProblem& other)
    : pool_(pool),
      a_(other.a_),
      at_holder_(other.at_holder_),
      at_(other.at_),
      a32_(other.a32_),
      at32_(other.at32_),
      storage_(other.storage_),
      col_sq_(other.col_sq_),
      row_sq_(other.row_sq_),
      inv_row_sq_(other.inv_row_sq_),
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
  SolveOutcome out;
  if (a32_)
    out = kaczmarz ? solve_kaczmarz_on(*a32_, *at32_, b, x, controls)
                   : solve_on(*a32_, *at32_, b, x, controls);
  else
    out = kaczmarz ? solve_kaczmarz_on(a_, *at_, b, x, controls)
                   : solve_on(a_, *at_, b, x, controls);
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
  validate_sampling_controls(controls, "LsqProblem::solve");
  const index_t n = a.cols();
  const int workers = clamp_workers(controls.workers, pool_);

  const bool check = controls.track_history || controls.rel_tol > 0.0;
  double* const r =
      check ? scratch_->engine.dense(static_cast<std::size_t>(a.rows()))
            : nullptr;
  detail::LsqResidual residual(a, at, b, x.data(), workers,
                               scratch_->engine.reduce(workers), r, check);

  detail::EngineSampling sampling;
  std::optional<DirectionSampler> residual_sampler;
  if (controls.sampling == SamplingPolicy::kWeighted) {
    if (!weighted_cols_) {
      // Coordinate-descent weights: the column squared norms already
      // computed (full-width) at preparation.
      weighted_cols_.emplace(DirectionSampler::weighted(col_sq_.data(), n));
      ++stats_.sampler_builds;
    }
    sampling.sampler = &*weighted_cols_;
  } else if (controls.sampling == SamplingPolicy::kResidual) {
    std::vector<double> rbuf, w;
    col_residual_weights(a, at, b, x.data(), rbuf, w);
    residual_sampler.emplace(DirectionSampler::residual(w.data(), n));
    sampling.sampler = &*residual_sampler;
    const int period = std::max(1, controls.resample_sweeps);
    DirectionSampler* const sampler = &*residual_sampler;
    const double* const xp = x.data();
    sampling.refresh = [&a, &at, &b, xp, sampler, period,
                        rbuf = std::move(rbuf), w = std::move(w),
                        calls = 0]() mutable {
      if (++calls % period != 0) return;
      col_residual_weights(a, at, b, xp, rbuf, w);
      sampler->rebuild(w.data(), static_cast<index_t>(w.size()));
    };
  }

  SolveOutcome out;
  WallTimer timer;
  detail::dispatch_atomic(controls.atomic_writes, [&]<bool kAtomic>() {
    const detail::LsqUpdate<kAtomic, Index> update{
        &a, &at, b.data(), col_sq_.data(), x.data(), controls.step_size};
    detail::run_engine_sampled(pool_, controls, n, workers, sampling, update,
                               residual, out, &scratch_->engine);
  });
  out.seconds = timer.seconds();
  if (residual_sampler)
    stats_.sampler_builds += residual_sampler->rebuilds();

  describe_async(out, "AsyRCD least squares",
                 sync_name(controls.sync) + sampling_note(controls),
                 Matrix::kStorage);
  out.storage_used = Matrix::kStorage;
  out.sampling_used = controls.sampling;
  return out;
}

template <class Matrix>
SolveOutcome LsqProblem::solve_kaczmarz_on(const Matrix& a, const Matrix& at,
                                           const std::vector<double>& b,
                                           std::vector<double>& x,
                                           const SolveControls& controls) {
  using Index = typename Matrix::index_type;
  validate_sampling_controls(controls, "LsqProblem::solve(kaczmarz)");
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
  detail::LsqResidual residual(a, at, b, x.data(), workers,
                               scratch_->engine.reduce(workers), r, check);

  detail::EngineSampling sampling;
  std::optional<DirectionSampler> residual_sampler;
  if (controls.sampling == SamplingPolicy::kWeighted) {
    if (!weighted_rows_) {
      // The Strohmer-Vershynin distribution p_i ∝ ||A_i||^2, from the
      // prepare-time norms of the full-width matrix.
      weighted_rows_.emplace(DirectionSampler::weighted(row_sq_.data(), m));
      ++stats_.sampler_builds;
    }
    sampling.sampler = &*weighted_rows_;
  } else if (controls.sampling == SamplingPolicy::kResidual) {
    std::vector<double> w;
    row_residual_weights(a, b, x.data(), w);
    residual_sampler.emplace(DirectionSampler::residual(w.data(), m));
    sampling.sampler = &*residual_sampler;
    const int period = std::max(1, controls.resample_sweeps);
    DirectionSampler* const sampler = &*residual_sampler;
    const double* const xp = x.data();
    sampling.refresh = [&a, &b, xp, sampler, period, w = std::move(w),
                        calls = 0]() mutable {
      if (++calls % period != 0) return;
      row_residual_weights(a, b, xp, w);
      sampler->rebuild(w.data(), static_cast<index_t>(w.size()));
    };
  }

  SolveOutcome out;
  WallTimer timer;
  detail::dispatch_atomic(controls.atomic_writes, [&]<bool kAtomic>() {
    const detail::KaczmarzUpdate<kAtomic, Index> update{
        a.row_ptr().data(), a.col_idx().data(), a.values().data(), b.data(),
        inv_row_sq_.data(), x.data(),           controls.step_size};
    detail::run_engine_sampled(pool_, controls, m, workers, sampling, update,
                               residual, out, &scratch_->engine);
  });
  out.seconds = timer.seconds();
  if (residual_sampler)
    stats_.sampler_builds += residual_sampler->rebuilds();

  describe_async(out, "AsyKaczmarz least squares",
                 sync_name(controls.sync) + sampling_note(controls),
                 Matrix::kStorage);
  out.storage_used = Matrix::kStorage;
  out.sampling_used = controls.sampling;
  return out;
}

}  // namespace asyrgs
