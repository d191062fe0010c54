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
//
// The method runs through the prepared handle: SpdProblem::solve with
// SpdMethod::kAsyncRgs (asyrgs/problem.hpp), on the shared engine in
// core/engine.hpp and the update kernels in core/kernels.hpp.  This header
// holds the two enums its knobs select from, shared by every asynchronous
// path.
#pragma once

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

}  // namespace asyrgs
