// AsyRGS — Asynchronous Randomized Gauss-Seidel (the paper's contribution).
//
// P workers share one iterate x in memory and run Algorithm 1 of the paper
// concurrently with no coordination:
//
//   loop:
//     pick a random row r                     (Philox at the global index)
//     read the entries of x touched by A_r    (relaxed atomic loads)
//     gamma <- (b_r - A_r x) / A_rr
//     x_r   <- x_r + beta * gamma             (atomic CAS add: Assumption A-1)
//
// Worker w executes exactly the global iteration indices {w, w+P, w+2P, ...}
// of the Philox stream, so the multiset of random directions is identical
// for every worker count — the methodology the paper uses (via Random123)
// to isolate the price of asynchronism in Figure 2.
//
// Execution modes (Section 5 discussion):
//  * kFreeRunning     - no synchronization at all; Theorem 2(b)/3(b)/4(b)
//                       regime ("long-term linear convergence").
//  * kBarrierPerSweep - workers synchronize after every sweep of n total
//                       updates; Theorem 2(a)/3(a)/4(a) regime ("occasional
//                       synchronization": rate 1 - nu_tau/2kappa per sweep).
//
// Write modes (Figure 2 center/right experiment):
//  * atomic_writes = true  - CAS fetch-add (Assumption A-1 enforced);
//  * atomic_writes = false - racy load+store; lost updates possible.  The
//                            paper observed "no consistent advantage to
//                            using atomic writes" — the benches reproduce
//                            that comparison.
//
// Reads are *inconsistent* (the only variant the paper implements, Section
// 9): enforcing Assumption A-2 in a real shared-memory run would serialize
// the very reads the method tries to overlap.  The bounded-delay simulator
// (simulate/async_sim.hpp) provides the consistent-read model for theorem
// validation.
#pragma once

#include <cstdint>

#include "asyrgs/core/rgs.hpp"
#include "asyrgs/linalg/multivector.hpp"
#include "asyrgs/sparse/csr.hpp"
#include "asyrgs/support/thread_pool.hpp"

namespace asyrgs {

/// Inter-sweep synchronization scheme.
enum class SyncMode {
  kFreeRunning,      ///< fully asynchronous across sweeps
  kBarrierPerSweep,  ///< occasional synchronization (one barrier per sweep)
  /// Time-based occasional synchronization (Section 5 discussion: "a time
  /// based scheme for synchronizing the processors should be sufficient,
  /// and will not suffer from large wait times due to load imbalance"):
  /// workers run freely and rendezvous whenever `sync_interval_seconds` has
  /// elapsed; residual checks/early stopping happen at the rendezvous.
  kTimedBarrier,
};

/// Randomization scope (Section 10 / limitations discussion).
enum class RandomizationScope {
  /// Every worker may update every coordinate (the paper's algorithm; the
  /// analyzed model).
  kShared,
  /// "Owner computes": worker w draws rows only from its contiguous
  /// partition — the restricted randomization the paper proposes for the
  /// distributed-memory setting and as a cache-miss mitigation.  Each
  /// partition runs its own Philox stream; updates still read the shared
  /// iterate across partition boundaries.
  ///
  /// Pair this scope with kBarrierPerSweep or kTimedBarrier when running a
  /// *finite* budget: under kFreeRunning a worker that drains its budget
  /// early leaves its partition frozen against neighbours' mid-solve
  /// values, and no other worker can repair it (shared-scope randomization
  /// self-repairs; partitioned randomization cannot).  With synchronized
  /// sweeps, or when iterating to a residual tolerance, the scope is safe.
  kOwnerComputes,
};

/// Options for the asynchronous solver.
struct AsyncRgsOptions {
  int sweeps = 10;           ///< total updates = sweeps * n across all workers
  double step_size = 1.0;    ///< beta; Theorems 3-4 need beta < 1 for bounds
  std::uint64_t seed = 1;    ///< keys the shared Philox direction stream
  int workers = 0;           ///< team size; 0 = pool capacity
  bool atomic_writes = true; ///< false = racy "non atomic" variant
  SyncMode sync = SyncMode::kFreeRunning;
  RandomizationScope scope = RandomizationScope::kShared;
  /// kTimedBarrier only: seconds between rendezvous points.
  double sync_interval_seconds = 0.05;
  /// With kBarrierPerSweep/kTimedBarrier: track the relative residual at
  /// each synchronization and stop early when it reaches rel_tol (> 0).
  /// Without track_history, kBarrierPerSweep checks the tolerance on a
  /// predicted schedule of sweeps, not after every sweep
  /// (detail::next_check_sweep in core/engine.hpp).
  bool track_history = false;
  double rel_tol = 0.0;
};

/// Outcome of an AsyRGS run.
struct AsyncRgsReport {
  int sweeps_done = 0;
  long long updates = 0;
  int workers = 0;
  double seconds = 0.0;  ///< wall time of the iteration loop only
  bool converged = false;
  double final_relative_residual = 0.0;  ///< when history/tolerance active
  std::vector<double> residual_history;  ///< per sweep (barrier mode only)
};

/// Runs AsyRGS on SPD A x = b starting from `x` (updated in place).
/// Requires a strictly positive diagonal (iteration (3) of the paper).
///
/// Thread-safety: `a` and `b` are read-only and may be shared; `x` is
/// written concurrently by the worker team for the duration of the call —
/// do not read it from other threads until the function returns.  The pool
/// hosts one team at a time; a nested call from inside a running team
/// shrinks to a single worker instead of deadlocking.
AsyncRgsReport async_rgs_solve(ThreadPool& pool, const CsrMatrix& a,
                               const std::vector<double>& b,
                               std::vector<double>& x,
                               const AsyncRgsOptions& options = {});

/// Block variant: each coordinate update applies to all columns of X (the
/// paper's 51-right-hand-side experiment).  Atomicity is per scalar entry.
AsyncRgsReport async_rgs_solve_block(ThreadPool& pool, const CsrMatrix& a,
                                     const MultiVector& b, MultiVector& x,
                                     const AsyncRgsOptions& options = {});

}  // namespace asyrgs
