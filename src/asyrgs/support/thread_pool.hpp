// Persistent worker-thread pool.
//
// Why not OpenMP: the asynchronous solver needs (a) explicit worker identity
// so that worker w executes exactly its share of each sweep's global
// iteration indices, s*n + w + t*P (this is what fixes the random direction
// multiset across thread counts, Section 9 of the paper), (b) precisely placed
// barriers for the occasional-synchronization scheme, and (c) deterministic
// team sizes under test.  A small dedicated pool gives all three and keeps
// the build self-contained.
//
// The calling thread always participates as worker 0, so a team of size 1
// runs inline with zero synchronization cost.
#pragma once

#include <exception>
#include <functional>
#include <memory>

#include "asyrgs/support/common.hpp"

namespace asyrgs {

namespace detail {

/// Resolves a requested pool capacity: a positive request wins verbatim;
/// otherwise the reported hardware concurrency, clamped to >= 1 because the
/// standard permits std::thread::hardware_concurrency() to return 0
/// ("unknown").  Split out as pure arithmetic so the 0 guard is testable
/// without stubbing the global (tests pass hardware_threads explicitly).
[[nodiscard]] constexpr int auto_pool_size(int requested,
                                           unsigned hardware_threads) noexcept {
  if (requested > 0) return requested;
  const int hw = static_cast<int>(hardware_threads);
  return hw > 0 ? hw : 1;
}

/// Per-shard auto team size for a service dividing `hardware_threads`
/// across `shards` pools: each shard gets hw / shards, the first hw % shards
/// shards one extra (8 threads / 3 shards = 3, 3, 2 — no core idled by
/// integer truncation).  A positive request wins verbatim; unknown (0)
/// hardware concurrency and shards > hw both clamp to 1.  Used by
/// SolverService; exposed here next to auto_pool_size so both sizing
/// policies share the testable-arithmetic treatment.
[[nodiscard]] constexpr int shard_auto_workers(
    int requested, int shard, int shards, unsigned hardware_threads) noexcept {
  if (requested > 0) return requested;
  const int hw = static_cast<int>(hardware_threads);
  if (hw <= 0) return 1;
  const int workers = hw / shards + (shard < hw % shards ? 1 : 0);
  return workers >= 1 ? workers : 1;
}

}  // namespace detail

/// Fixed-size pool of persistent worker threads executing "team" jobs.
///
/// A team job is a callable `fn(worker_id, team_size)` executed concurrently
/// by `team_size` workers (caller thread = worker 0).  On top of that,
/// `parallel_for` provides static and dynamic loop partitioning.
///
/// Exceptions thrown by workers are captured; the first one is rethrown on
/// the calling thread after the team completes.
///
/// Re-entrancy: a job running inside the pool that starts another team job
/// executes it serially on the current thread (team size 1).  This makes
/// compositions such as "Flexible CG (parallel SpMV) preconditioned by
/// AsyRGS (parallel team)" safe regardless of call structure.
class ThreadPool {
 public:
  /// Creates a pool able to host teams of up to `max_workers` (defaults to
  /// std::thread::hardware_concurrency()).
  explicit ThreadPool(int max_workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Maximum team size this pool supports.
  [[nodiscard]] int size() const noexcept;

  /// Runs `fn(worker_id, team_size)` on `workers` threads and blocks until
  /// all return.  `workers` is clamped to [1, size()].
  void run_team(int workers, const std::function<void(int, int)>& fn);

  /// Statically partitioned parallel loop: splits [begin, end) into
  /// `workers` contiguous chunks and invokes `range_fn(lo, hi)` per chunk.
  /// workers == 0 selects size().
  void parallel_for(index_t begin, index_t end,
                    const std::function<void(index_t, index_t)>& range_fn,
                    int workers = 0);

  /// Dynamically scheduled parallel loop for irregular work (e.g. SpMV rows
  /// of a matrix with highly skewed row lengths): workers grab chunks of
  /// `grain` iterations from a shared counter.
  void parallel_for_dynamic(index_t begin, index_t end, index_t grain,
                            const std::function<void(index_t, index_t)>& range_fn,
                            int workers = 0);

  /// True when called from inside a pool worker (team jobs would nest).
  [[nodiscard]] static bool inside_worker() noexcept;

  /// Process-wide pool, lazily constructed with hardware concurrency.
  /// Benchmarks and examples share this instance so thread creation cost is
  /// paid once.
  static ThreadPool& global();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace asyrgs
