// Shared asynchronous execution engine (internal).
//
// The hot loop common to every asynchronous solve path of the prepared
// handles (asyrgs/problem.hpp): direction planning, the three
// synchronization modes, and team-parallel residual evaluation at
// synchronization points.  The engine reads the caller's SolveControls and
// fills the run's fields of its SolveOutcome, so the outcome status is
// decided here, once.  Everything here is an implementation detail of the
// handles — the header exists so that the solve paths share one engine and
// so that the determinism test suite and the kernel micro-benchmarks can
// exercise the pieces in isolation.  No symbol in asyrgs::detail is a
// stable public API.
//
// Performance notes (the properties the PR-2 overhaul established; keep
// them when editing):
//  * Directions are drawn in batches.  Each worker refills a reusable
//    direction buffer via Philox4x32::fill_indices[_strided] — a few ns per
//    draw instead of a full 10-round Philox evaluation per update — and the
//    once-per-sweep-equivalent yield (oversubscribed hosts) and the clock
//    check (timed mode) happen only at refill boundaries, so the per-update
//    path contains no modulo, no branch on sync mode, and no timer call.
//  * The update functor is a concrete struct templated on atomicity, not a
//    std::function and not a runtime `atomic_writes` branch.
//  * Residuals at synchronization points run as a team-wide parallel
//    reduction over the workers already rendezvoused at the barrier, rather
//    than serially on worker 0 while the team spins.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "asyrgs/gen/partition.hpp"
#include "asyrgs/problem.hpp"
#include "asyrgs/sampling/direction_sampler.hpp"
#include "asyrgs/support/aligned.hpp"
#include "asyrgs/support/barrier.hpp"
#include "asyrgs/support/prng.hpp"
#include "asyrgs/support/thread_pool.hpp"
#include "asyrgs/support/timer.hpp"

namespace asyrgs::detail {

/// Direction-buffer capacity: the number of picks a worker plans ahead per
/// refill.  Large enough to amortize the batched Philox evaluation and the
/// per-chunk bookkeeping to noise, small enough (8 KiB of indices) to stay
/// L1-resident next to the iterate.
inline constexpr std::size_t kDirectionChunk = 1024;

/// How many picks ahead of the in-flight update the engine hands the update
/// functor for prefetching (clamped to the chunk).  At ~25 ns/update a
/// lookahead of 4 covers L2/L3 latency for the next rows' index/value
/// arrays; measured best in the 2-8 range, flat beyond.
inline constexpr std::size_t kPrefetchDistance = 4;

/// Per-worker direction schedule honouring the randomization scope, keyed by
/// `seed` like PartitionedDirectionPlan.
///
/// kShared: one Philox stream over global indices; worker w consumes
/// positions {w, w+P, ...} (free-running/timed) or the per-sweep split
/// (barrier mode) — all modes consume the identical direction multiset.
///
/// kOwnerComputes: worker w owns the contiguous partition
/// [w*n/P-ish, ...) and draws uniformly from it via a worker-keyed stream.
///
/// `pick`/`pick_in_sweep` evaluate one direction (kept for tests and as the
/// executable specification); the `fill*` APIs produce the same draws in
/// batches and are what the engine uses.
///
/// The deterministic virtual engine (simulate/virtual_engine.hpp) consumes
/// this planner too: because the shared scope tiles ONE global Philox stream
/// across workers (worker w owns positions {w, w+P, ...}), a team-1 plan
/// enumerates the identical stream in global order — the virtual engine
/// replays that global order on a single thread, so its direction multiset
/// (and, at P = 1, the exact sequence) matches every real team size.
///
/// An optional DirectionSampler generalizes WHAT each stream position
/// draws (sampling/direction_sampler.hpp): a null or kUniform sampler
/// keeps the exact pre-sampling code path (same fill_indices_strided
/// calls, byte-identical draws); a weighted sampler pulls the raw 64-bit
/// words at the SAME stream positions and maps each through its alias
/// table, so the position multiset — and with it the cross-worker-count
/// invariance — is untouched.  Weighted draws require the shared scope
/// (validated by run_engine_sampled; owner-computes streams partition the
/// index space and have no global distribution to weight).
class DirectionPlan {
 public:
  DirectionPlan(std::uint64_t seed, RandomizationScope scope, index_t n,
                int team, const DirectionSampler* sampler = nullptr)
      : scope_(scope), n_(n), team_(team), shared_(seed),
        sampler_(sampler != nullptr && sampler->weighted_draws() ? sampler
                                                                 : nullptr) {
    ASYRGS_ASSERT(sampler_ == nullptr ||
                  (scope_ == RandomizationScope::kShared &&
                   sampler_->directions() == n));
    if (scope_ == RandomizationScope::kOwnerComputes) {
      lo_.resize(static_cast<std::size_t>(team));
      size_.resize(static_cast<std::size_t>(team));
      streams_.reserve(static_cast<std::size_t>(team));
      const index_t base = n / team;
      const index_t extra = n % team;
      index_t lo = 0;
      for (int w = 0; w < team; ++w) {
        const index_t size = base + (w < extra ? 1 : 0);
        lo_[static_cast<std::size_t>(w)] = lo;
        size_[static_cast<std::size_t>(w)] = size;
        lo += size;
        streams_.emplace_back(
            splitmix64(seed + 0x9E3779B97F4A7C15ull *
                                  static_cast<std::uint64_t>(w + 1)));
      }
    }
  }

  /// Updates worker w performs per sweep.
  [[nodiscard]] index_t per_sweep(int w) const {
    if (scope_ == RandomizationScope::kOwnerComputes)
      return size_[static_cast<std::size_t>(w)];
    // Count of global indices congruent to w modulo team in [0, n); zero
    // when w >= n (more workers than rows: the formula below would round
    // the negative numerator up to 1 and steal a position from the next
    // sweep, double-consuming it and breaking the multiset invariant).
    if (static_cast<index_t>(w) >= n_) return 0;
    return (n_ - 1 - static_cast<index_t>(w)) / team_ + 1;
  }

  /// Total updates worker w performs over `sweeps` sweeps in free-running /
  /// timed numbering.  For the shared scope this counts the global indices
  /// congruent to w modulo team in [0, sweeps*n) — exactly tiling the
  /// global stream so the direction multiset is identical to the
  /// sequential run.
  [[nodiscard]] std::uint64_t total_updates(int w, int sweeps) const {
    if (scope_ == RandomizationScope::kOwnerComputes)
      return static_cast<std::uint64_t>(sweeps) *
             static_cast<std::uint64_t>(size_[static_cast<std::size_t>(w)]);
    const std::uint64_t total = static_cast<std::uint64_t>(sweeps) *
                                static_cast<std::uint64_t>(n_);
    if (static_cast<std::uint64_t>(w) >= total) return 0;
    return (total - 1 - static_cast<std::uint64_t>(w)) /
               static_cast<std::uint64_t>(team_) +
           1;
  }

  /// Direction for worker w's k-th update (free-running/timed numbering).
  [[nodiscard]] index_t pick(int w, std::uint64_t k) const {
    if (scope_ == RandomizationScope::kOwnerComputes) {
      const std::size_t sw = static_cast<std::size_t>(w);
      return lo_[sw] + streams_[sw].index_at(k, size_[sw]);
    }
    const std::uint64_t j =
        static_cast<std::uint64_t>(w) + k * static_cast<std::uint64_t>(team_);
    if (sampler_ != nullptr) return sampler_->map(shared_.at(j));
    return shared_.index_at(j, n_);
  }

  /// Direction for worker w's t-th update of sweep `sweep` (barrier mode).
  [[nodiscard]] index_t pick_in_sweep(int w, int sweep, index_t t) const {
    if (scope_ == RandomizationScope::kOwnerComputes) {
      const std::size_t sw = static_cast<std::size_t>(w);
      const std::uint64_t k = static_cast<std::uint64_t>(sweep) *
                                  static_cast<std::uint64_t>(size_[sw]) +
                              static_cast<std::uint64_t>(t);
      return lo_[sw] + streams_[sw].index_at(k, size_[sw]);
    }
    const std::uint64_t j = static_cast<std::uint64_t>(sweep) *
                                static_cast<std::uint64_t>(n_) +
                            static_cast<std::uint64_t>(w) +
                            static_cast<std::uint64_t>(t) *
                                static_cast<std::uint64_t>(team_);
    if (sampler_ != nullptr) return sampler_->map(shared_.at(j));
    return shared_.index_at(j, n_);
  }

  /// out[i] = pick(w, k0 + i) for i in [0, count), batched.
  void fill(int w, std::uint64_t k0, std::size_t count, index_t* out) const {
    if (count == 0) return;
    if (scope_ == RandomizationScope::kOwnerComputes) {
      const std::size_t sw = static_cast<std::size_t>(w);
      streams_[sw].fill_indices(k0, count, size_[sw], out);
      const index_t lo = lo_[sw];
      for (std::size_t i = 0; i < count; ++i) out[i] += lo;
      return;
    }
    const std::uint64_t first =
        static_cast<std::uint64_t>(w) + k0 * static_cast<std::uint64_t>(team_);
    if (sampler_ != nullptr) {
      // Same stream positions, raw words instead of reduced indices; the
      // sampler maps them in place through its alias table.
      shared_.fill_at_strided(first, static_cast<std::uint64_t>(team_), count,
                              reinterpret_cast<std::uint64_t*>(out));
      sampler_->map_in_place(out, count);
      return;
    }
    shared_.fill_indices_strided(first, static_cast<std::uint64_t>(team_),
                                 count, n_, out);
  }

  /// out[i] = pick_in_sweep(w, sweep, t0 + i) for i in [0, count), batched.
  void fill_in_sweep(int w, int sweep, index_t t0, std::size_t count,
                     index_t* out) const {
    if (count == 0) return;
    if (scope_ == RandomizationScope::kOwnerComputes) {
      const std::size_t sw = static_cast<std::size_t>(w);
      const std::uint64_t k0 = static_cast<std::uint64_t>(sweep) *
                                   static_cast<std::uint64_t>(size_[sw]) +
                               static_cast<std::uint64_t>(t0);
      streams_[sw].fill_indices(k0, count, size_[sw], out);
      const index_t lo = lo_[sw];
      for (std::size_t i = 0; i < count; ++i) out[i] += lo;
      return;
    }
    const std::uint64_t first = static_cast<std::uint64_t>(sweep) *
                                    static_cast<std::uint64_t>(n_) +
                                static_cast<std::uint64_t>(w) +
                                static_cast<std::uint64_t>(t0) *
                                    static_cast<std::uint64_t>(team_);
    if (sampler_ != nullptr) {
      shared_.fill_at_strided(first, static_cast<std::uint64_t>(team_), count,
                              reinterpret_cast<std::uint64_t*>(out));
      sampler_->map_in_place(out, count);
      return;
    }
    shared_.fill_indices_strided(first, static_cast<std::uint64_t>(team_),
                                 count, n_, out);
  }

  [[nodiscard]] int team() const noexcept { return team_; }

 private:
  RandomizationScope scope_;
  index_t n_;
  int team_;
  Philox4x32 shared_;
  const DirectionSampler* sampler_;
  std::vector<index_t> lo_;
  std::vector<index_t> size_;
  std::vector<Philox4x32> streams_;
};

/// Topology-aware per-worker schedule over a GraphPartition
/// (gen/partition.hpp) with stochastic boundary stealing — the partitioned
/// alternative to DirectionPlan, sharing its interface so the engine bodies
/// serve both (run_engine_with_plan).
///
/// Worker w of a team of T executes partitions {w, w+T, w+2T, ...}
/// round-robin; partition p draws from its OWN Philox stream (keyed by seed
/// and p), and the position of sweep s's t-th draw in that stream is
/// s * size_p + t — independent of which worker executes it.  The direction
/// multiset for a fixed (seed, partition, steal_rate) is therefore
/// invariant across team sizes: the partitioned analogue of the shared
/// scope's stream-tiling invariance, with the same test obligations
/// (tests/test_partition.cpp).
///
/// Each draw consumes one 64-bit word: the high 32 bits decide owned-range
/// vs halo against a fixed threshold (round(steal_rate * 2^32)); the low 32
/// bits select the index inside the chosen set by 32-bit multiply reduction
/// (bias <= set_size / 2^32, negligible at cache-line-sized partitions).
/// Using disjoint halves keeps the steal decision from biasing the
/// within-set position.  A partition with an empty halo never steals.
///
/// The borrowed GraphPartition must outlive the plan (the engine run borrows
/// it from the prepared handle's partition analysis).
class PartitionedDirectionPlan {
 public:
  PartitionedDirectionPlan(std::uint64_t seed, const GraphPartition& partition,
                           double steal_rate, int team)
      : part_(&partition),
        team_(team),
        threshold_(steal_threshold(steal_rate)) {
    const int count = partition.count();
    streams_.reserve(static_cast<std::size_t>(count));
    for (int p = 0; p < count; ++p)
      streams_.emplace_back(splitmix64(
          seed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(p + 1)));
    // Prefix sums of the owned-partition sizes per worker: cum_[w][j] is
    // the first within-sweep position of worker w's j-th partition
    // (partition id w + j*T).
    cum_.resize(static_cast<std::size_t>(team));
    for (int w = 0; w < team; ++w) {
      std::vector<index_t>& cum = cum_[static_cast<std::size_t>(w)];
      cum.push_back(0);
      for (int p = w; p < count; p += team)
        cum.push_back(cum.back() + partition.size_of(p));
    }
  }

  /// Updates worker w performs per sweep (the total size of its owned
  /// partitions; the team-wide sum is n).
  [[nodiscard]] index_t per_sweep(int w) const {
    return cum_[static_cast<std::size_t>(w)].back();
  }

  [[nodiscard]] std::uint64_t total_updates(int w, int sweeps) const {
    return static_cast<std::uint64_t>(sweeps) *
           static_cast<std::uint64_t>(per_sweep(w));
  }

  /// Direction for worker w's t-th update of sweep `sweep` (barrier mode).
  [[nodiscard]] index_t pick_in_sweep(int w, int sweep, index_t t) const {
    const std::vector<index_t>& cum = cum_[static_cast<std::size_t>(w)];
    const std::size_t j = segment_of(cum, t);
    const int p = w + static_cast<int>(j) * team_;
    const std::uint64_t k =
        static_cast<std::uint64_t>(sweep) *
            static_cast<std::uint64_t>(part_->size_of(p)) +
        static_cast<std::uint64_t>(t - cum[j]);
    return map_draw(streams_[static_cast<std::size_t>(p)].at(k), p);
  }

  /// Direction for worker w's k-th update in free-running/timed numbering
  /// (sweep-major: sweep k / per_sweep, step k % per_sweep).  Requires
  /// per_sweep(w) > 0 — the engine never asks a worker with no owned rows
  /// for a direction (its total is 0).
  [[nodiscard]] index_t pick(int w, std::uint64_t k) const {
    const std::uint64_t mine = static_cast<std::uint64_t>(per_sweep(w));
    return pick_in_sweep(w, static_cast<int>(k / mine),
                         static_cast<index_t>(k % mine));
  }

  /// out[i] = pick_in_sweep(w, sweep, t0 + i), batched: bulk Philox words
  /// per partition segment, then the steal/reduce map in place.
  void fill_in_sweep(int w, int sweep, index_t t0, std::size_t count,
                     index_t* out) const {
    const std::vector<index_t>& cum = cum_[static_cast<std::size_t>(w)];
    index_t t = t0;
    std::size_t written = 0;
    while (written < count) {
      const std::size_t j = segment_of(cum, t);
      const int p = w + static_cast<int>(j) * team_;
      const index_t size = part_->size_of(p);
      const std::size_t seg = static_cast<std::size_t>(std::min<index_t>(
          cum[j + 1] - t, static_cast<index_t>(count - written)));
      const std::uint64_t k0 = static_cast<std::uint64_t>(sweep) *
                                   static_cast<std::uint64_t>(size) +
                               static_cast<std::uint64_t>(t - cum[j]);
      std::uint64_t* const words =
          reinterpret_cast<std::uint64_t*>(out + written);
      streams_[static_cast<std::size_t>(p)].fill_at(k0, seg, words);
      for (std::size_t i = 0; i < seg; ++i)
        out[written + i] = map_draw(words[i], p);
      written += seg;
      t += static_cast<index_t>(seg);
    }
  }

  /// out[i] = pick(w, k0 + i); a chunk may span sweep boundaries.
  void fill(int w, std::uint64_t k0, std::size_t count, index_t* out) const {
    const std::uint64_t mine = static_cast<std::uint64_t>(per_sweep(w));
    std::size_t written = 0;
    while (written < count) {
      const std::uint64_t k = k0 + static_cast<std::uint64_t>(written);
      const index_t t = static_cast<index_t>(k % mine);
      const std::size_t seg = static_cast<std::size_t>(std::min<std::uint64_t>(
          mine - static_cast<std::uint64_t>(t),
          static_cast<std::uint64_t>(count - written)));
      fill_in_sweep(w, static_cast<int>(k / mine), t, seg, out + written);
      written += seg;
    }
  }

  [[nodiscard]] int team() const noexcept { return team_; }

 private:
  [[nodiscard]] static std::uint32_t steal_threshold(double rate) noexcept {
    if (rate <= 0.0) return 0;
    const double scaled = rate * 4294967296.0;  // 2^32
    return scaled >= 4294967295.0 ? 0xFFFFFFFFu
                                  : static_cast<std::uint32_t>(scaled);
  }

  /// Index j with cum[j] <= t < cum[j+1], skipping empty partitions (cum is
  /// short: ceil(partitions/team) entries, a linear walk beats a search).
  [[nodiscard]] static std::size_t segment_of(const std::vector<index_t>& cum,
                                              index_t t) noexcept {
    std::size_t j = 0;
    while (cum[j + 1] <= t) ++j;
    return j;
  }

  [[nodiscard]] index_t map_draw(std::uint64_t u, int p) const noexcept {
    const std::uint64_t lo32 = u & 0xFFFFFFFFull;
    const std::vector<index_t>& halo =
        part_->halo[static_cast<std::size_t>(p)];
    if (static_cast<std::uint32_t>(u >> 32) < threshold_ && !halo.empty())
      return halo[(lo32 * static_cast<std::uint64_t>(halo.size())) >> 32];
    return part_->lo_of(p) +
           static_cast<index_t>(
               (lo32 * static_cast<std::uint64_t>(part_->size_of(p))) >> 32);
  }

  const GraphPartition* part_;
  int team_;
  std::uint32_t threshold_;
  std::vector<Philox4x32> streams_;
  std::vector<std::vector<index_t>> cum_;
};

/// Maps the runtime SolveControls::atomic_writes flag onto the compile-time
/// kernel specialization: invokes fn.operator()<kAtomicWrites>().  Shared by
/// every asynchronous solve path so the dispatch lives in one place.
template <typename Fn>
void dispatch_atomic(bool atomic_writes, Fn&& fn) {
  if (atomic_writes)
    fn.template operator()<true>();
  else
    fn.template operator()<false>();
}

/// Whether a team-parallel residual reduction is expected to beat the serial
/// path for `workers` participants on a host with `hardware_threads`
/// schedulable threads.  On oversubscribed hosts (hardware_threads <
/// workers) the reduction's barriers serialize through the scheduler — each
/// rendezvous costs context switches rather than core-parallel work — so the
/// residual functors fall back to computing on worker 0 alone while the rest
/// of the team proceeds straight to the engine's own synchronization
/// barrier.  An unknown hardware count (0) keeps the parallel path.  The
/// heuristic and its trade-offs are documented in docs/TUNING.md.
[[nodiscard]] inline bool team_residual_profitable(
    int workers, unsigned hardware_threads) noexcept {
  return workers <= 1 || hardware_threads == 0 ||
         static_cast<int>(hardware_threads) >= workers;
}

[[nodiscard]] inline bool team_residual_profitable(int workers) noexcept {
  return team_residual_profitable(workers,
                                  std::thread::hardware_concurrency());
}

/// Splits [0, n) into `team` contiguous chunks (first n%team chunks one
/// longer) and returns worker w's [lo, hi) — the partitioning used for
/// team-parallel residual reductions.
struct RowChunk {
  index_t lo;
  index_t hi;
};
[[nodiscard]] inline RowChunk chunk_of(index_t n, int w, int team) noexcept {
  const index_t base = n / team;
  const index_t extra = n % team;
  const index_t lo = base * w + std::min<index_t>(w, extra);
  return {lo, lo + base + (w < extra ? 1 : 0)};
}

/// Team-wide sum reduction for residual checks at synchronization points.
/// Every rendezvoused worker calls run(id, team, partial_fn); partial_fn(w,
/// team) returns worker w's share of the sum.  The reduced total is returned
/// on worker 0 (other workers return 0.0, which the engine ignores).  The
/// internal barrier is sized for the full team, so run() must be called by
/// all `workers` participants whenever team > 1 — the engine guarantees this
/// by invoking the residual functor between its synchronization barriers.
class TeamReduce {
 public:
  explicit TeamReduce(int workers)
      : barrier_(workers), partial_(static_cast<std::size_t>(workers)) {}

  template <typename PartialFn>
  double run(int id, int team, PartialFn&& partial) {
    if (team <= 1) return partial(0, 1);
    partial_[static_cast<std::size_t>(id)].value = partial(id, team);
    barrier_.arrive_and_wait();
    if (id != 0) return 0.0;
    double total = 0.0;
    for (int w = 0; w < team; ++w)
      total += partial_[static_cast<std::size_t>(w)].value;
    return total;
  }

  /// Serial evaluation with the identical chunked association as run():
  /// the partials for workers 0..team-1, summed in worker order on one
  /// thread.  Used by the oversubscription fallback (see
  /// team_residual_profitable) so the residual value is bit-identical to
  /// the team-parallel path regardless of which one the host selects.
  template <typename PartialFn>
  [[nodiscard]] double run_serial(int team, PartialFn&& partial) {
    double total = 0.0;
    for (int w = 0; w < team; ++w) total += partial(w, team);
    return total;
  }

  /// The barrier, for residual functors with a pre-reduction phase of their
  /// own (e.g. least-squares: materialize r = b - Ax before reducing g).
  [[nodiscard]] SpinBarrier& barrier() noexcept { return barrier_; }

 private:
  SpinBarrier barrier_;
  std::vector<Padded<double>> partial_;
};

/// Reusable solver scratch: per-worker direction buffers, the team-reduce
/// used by residual functors, a cache-line-strided per-worker double slab
/// (block gamma scratch), and a dense double buffer (least-squares residual).
/// A prepared problem handle (asyrgs/problem.hpp) owns one of these and hands
/// it to every solve so repeated solves against one matrix re-use the
/// allocations; an engine run given none makes a throwaway instance.
///
/// Thread-safety inside a run: prepare() must be called before the team
/// starts; after that each worker touches only its own dirs(w, ...) slot, so
/// no two workers ever grow the same vector.  Across runs the scratch is
/// single-owner (the handle serializes solves).
class EngineScratch {
 public:
  /// Sizes the per-worker slot array.  Must be called before run_team and
  /// never during one.
  void prepare(int workers) {
    if (static_cast<int>(dirs_.size()) < workers)
      dirs_.resize(static_cast<std::size_t>(workers));
  }

  /// Worker w's direction buffer with room for `capacity` picks.  Grows
  /// (never shrinks), counting each growth as one allocation event.
  [[nodiscard]] index_t* dirs(int w, std::size_t capacity) {
    std::vector<index_t>& buf = dirs_[static_cast<std::size_t>(w)];
    if (buf.size() < capacity) {
      buf.resize(capacity);
      allocations_.fetch_add(1, std::memory_order_relaxed);
    }
    return buf.data();
  }

  /// Team reduction sized for `workers`, rebuilt only when the team size
  /// changes between solves.
  [[nodiscard]] TeamReduce& reduce(int workers) {
    if (!reduce_ || reduce_workers_ != workers) {
      reduce_.emplace(workers);
      reduce_workers_ = workers;
      allocations_.fetch_add(1, std::memory_order_relaxed);
    }
    return *reduce_;
  }

  /// Cache-line-aligned slab of `workers * stride` doubles (block solver
  /// gamma scratch; stride must already include the false-sharing guard).
  [[nodiscard]] double* slab(int workers, std::size_t stride) {
    const std::size_t need = stride * static_cast<std::size_t>(workers);
    if (slab_.size() < need) {
      slab_.resize(need);
      allocations_.fetch_add(1, std::memory_order_relaxed);
    }
    return slab_.data();
  }

  /// Dense double buffer of at least `size` entries (least-squares residual
  /// r = b - A x at synchronization points).
  [[nodiscard]] double* dense(std::size_t size) {
    if (dense_.size() < size) {
      dense_.resize(size);
      allocations_.fetch_add(1, std::memory_order_relaxed);
    }
    return dense_.data();
  }

  /// Number of growth events so far — a prepared handle's second solve with
  /// unchanged shape/team must not increase this (asserted by tests).
  [[nodiscard]] long long allocations() const noexcept {
    return allocations_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::vector<index_t>> dirs_;
  std::optional<TeamReduce> reduce_;
  int reduce_workers_ = 0;
  aligned_vector<double> slab_;
  std::vector<double> dense_;
  std::atomic<long long> allocations_{0};
};

/// Sampling configuration of one engine run.  Default-constructed =
/// uniform draws, no refresh — the pre-sampling engine, byte for byte.
struct EngineSampling {
  /// Distribution of the direction draws; null (or kUniform) keeps the
  /// uniform multiply-reduction path.  Borrowed for the duration of the
  /// run; weighted draws require RandomizationScope::kShared and a
  /// direction count equal to the engine's n.
  const DirectionSampler* sampler = nullptr;
  /// Residual-policy table refresh, invoked on worker 0 between the two
  /// synchronization barriers (the rest of the team is parked at the
  /// second barrier, so the callback may read the iterate and rebuild the
  /// sampler's table race-free).  Called once per rendezvous — per sweep
  /// in kBarrierPerSweep, per round in kTimedBarrier, never in
  /// kFreeRunning (which has no sync points; callers requiring refresh
  /// must validate the mode).  The callback owns its own cadence (e.g.
  /// rebuild every k-th call).
  std::function<void()> refresh;
};

/// Longest run of sweeps a tolerance-stopped kBarrierPerSweep solve goes
/// without an exact residual check.  A constant rather than an option: it
/// only bounds how far a mispredicted crossing can overshoot, and the
/// measured overshoot stays far below it (docs/TUNING.md "When a solve
/// checks convergence").
inline constexpr int kMaxCheckGap = 16;

/// Sweep of the next exact residual check of a tolerance-stopped
/// kBarrierPerSweep run, after the check at `sweep` (>= 2 sweeps done)
/// measured `rel`, the first check (sweep 1) measured `first`, and neither
/// reached `rel_tol`.  Fits one contraction factor per sweep from the first
/// check to this one and lands on the predicted crossing of rel_tol, at
/// least 1 and at most kMaxCheckGap sweeps ahead and never past the budget
/// `sweeps`, so the budget's last sweep is always checked.  The fit anchors
/// at the first check, not the last two, because the 2-norm residual is not
/// monotone sweep to sweep: on the perfbench operators a fit over the last
/// two checks overshot by up to 15 sweeps.  A residual that does not shrink
/// (or is not finite) waits the full gap.  The result depends on residual
/// values only, so a 1-worker run stays bit-reproducible, and the arithmetic
/// cannot overflow for any budget up to INT_MAX.
[[nodiscard]] inline int next_check_sweep(int sweep, double rel, double first,
                                          double rel_tol, int sweeps) noexcept {
  double gap = kMaxCheckGap;
  // Natural log of the fitted per-sweep contraction.
  const double rate = std::log(rel / first) / static_cast<double>(sweep - 1);
  if (rate < 0.0)
    gap = std::clamp(std::ceil(std::log(rel_tol / rel) / rate), 1.0, gap);
  return sweep + std::min(static_cast<int>(gap), sweeps - sweep);
}

/// Generic execution engine shared by the single-RHS, block, least-squares
/// and Kaczmarz asynchronous solve paths.
///
/// `update(worker, r, r_ahead)` performs one coordinate update on direction
/// r; r_ahead is a direction the worker will execute kPrefetchDistance picks
/// later (clamped to the refill chunk), for cache prefetching — functors may
/// ignore it.  `residual(worker,
/// team)` evaluates the convergence metric at synchronization points; it is
/// called by *every* rendezvoused worker (team-parallel reduction — see
/// TeamReduce) and only worker 0's return value is used.  The engine calls
/// it only when the controls request history tracking or a tolerance: every
/// sweep under track_history, on the next_check_sweep schedule for a
/// tolerance alone, once per round in kTimedBarrier, and once on x0 for a
/// zero budget.
///
/// The engine reads `controls` (sweeps, sync, sync_interval_seconds,
/// track_history, rel_tol) and sets the run's fields of `out`: status,
/// iterations, updates, workers, relative_residual and residual_history.
/// The caller sets the rest.  The status rule:
///  * kConverged when a residual check met rel_tol;
///  * kToleranceNotReached when rel_tol > 0 under a synchronizing mode;
///  * kBudgetCompleted otherwise (free-running runs never check residuals).
///
/// The thread pool may shrink a team to 1 on nested calls.  The engine then
/// builds the matching single-worker plan (make_plan(team)) inside the team
/// instead of paying for a throwaway fallback plan in every worker, and
/// `out.workers` reports the team worker 0 actually ran in.
///
/// `scratch` (optional) supplies reusable per-worker direction buffers; a
/// prepared handle passes its own so repeated solves skip the allocations,
/// while callers without one leave it null and pay a local scratch per run.
///
/// This is the plan-generic core: `make_plan(team)` builds the direction
/// schedule (DirectionPlan or PartitionedDirectionPlan — any type with the
/// shared per_sweep/total_updates/fill/fill_in_sweep/team interface) for a
/// given team size, so the three synchronization-mode bodies exist once.
/// run_engine_sampled below instantiates it with DirectionPlan and is the
/// entry point for everything unpartitioned; the partitioned solve path
/// (problem.cpp) passes a PartitionedDirectionPlan factory.  `refresh` is
/// the EngineSampling rendezvous callback (empty = none).
template <typename PlanFactory, typename UpdateFn, typename ResidualFn>
void run_engine_with_plan(ThreadPool& pool, const SolveControls& controls,
                          index_t n, int workers, PlanFactory&& make_plan,
                          const std::function<void()>& refresh,
                          UpdateFn&& update, ResidualFn&& residual,
                          SolveOutcome& out,
                          EngineScratch* scratch = nullptr) {
  using Plan = std::decay_t<decltype(make_plan(1))>;
  EngineScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  scratch->prepare(workers);
  const bool check_enabled = controls.track_history || controls.rel_tol > 0.0;
  const int sweeps = controls.sweeps;
  const long long total_target =
      static_cast<long long>(sweeps) * static_cast<long long>(n);

  // One plan for the requested team.  A worker whose team the pool shrank
  // (a nested call) builds the plan for its actual team into `shrunk`; the
  // common team == workers case pays nothing.
  const Plan plan = make_plan(workers);
  const auto plan_for = [&](int team,
                            std::optional<Plan>& shrunk) -> const Plan& {
    return team == workers ? plan : shrunk.emplace(make_plan(team));
  };
  // Written by worker 0 only (the calling thread).
  int team_used = workers;
  bool converged = false;

  if (controls.sync == SyncMode::kFreeRunning) {
    pool.run_team(workers, [&](int id, int team) {
      std::optional<Plan> shrunk;
      const Plan& my_plan = plan_for(team, shrunk);
      if (id == 0) team_used = team;
      const std::uint64_t my_total = my_plan.total_updates(id, sweeps);
      const std::uint64_t per_sweep = static_cast<std::uint64_t>(
          std::max<index_t>(my_plan.per_sweep(id), 1));
      // Yield once per sweep-equivalent, checked only at refill boundaries
      // (no per-update counter work).  On oversubscribed hosts a worker
      // would otherwise burn its whole budget in a few scheduling quanta,
      // making the effective delay tau unbounded and stalling owner-computes
      // partitions; on dedicated hosts the yield stays one syscall per
      // sweep-equivalent, never one per refill.
      const std::size_t chunk_cap = static_cast<std::size_t>(
          std::min<std::uint64_t>(kDirectionChunk, per_sweep));
      index_t* const dirs = scratch->dirs(id, chunk_cap);
      std::uint64_t k = 0;
      std::uint64_t since_yield = 0;
      while (k < my_total) {
        const std::size_t chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(chunk_cap, my_total - k));
        my_plan.fill(id, k, chunk, dirs);
        const index_t* d = dirs;
        for (std::size_t i = 0; i < chunk; ++i)
          update(id, d[i], d[std::min(i + kPrefetchDistance, chunk - 1)]);
        k += chunk;
        since_yield += chunk;
        if (team > 1 && since_yield >= per_sweep) {
          since_yield = 0;
          std::this_thread::yield();
        }
      }
    });
    out.iterations = sweeps;
    out.updates = total_target;
  } else if (controls.sync == SyncMode::kBarrierPerSweep && sweeps == 0) {
    // The returned iterate is x0: report its residual, as the timed loop's
    // one empty round does.  No team runs.
    if (check_enabled) {
      out.relative_residual = residual(0, 1);
      converged = controls.rel_tol > 0.0 &&
                  out.relative_residual <= controls.rel_tol;
    }
    out.iterations = 0;
    out.updates = 0;
  } else if (controls.sync == SyncMode::kBarrierPerSweep) {
    SpinBarrier barrier(workers);
    std::atomic<bool> stop{false};
    std::atomic<int> sweeps_done{0};
    // Exact-check schedule: every sweep under track_history, else sweeps 1
    // and 2 and then next_check_sweep.  Worker 0 writes next_check between
    // the two barriers and every worker reads it before the next sweep's
    // first barrier, so the barriers order the hand-off and the whole team
    // agrees on entering the residual's reduction.
    int next_check = 1;
    double first_rel = 0.0;
    pool.run_team(workers, [&](int id, int team) {
      const bool full_team = (team == workers && team > 1);
      std::optional<Plan> shrunk;
      const Plan& my_plan = plan_for(team, shrunk);
      if (id == 0) team_used = team;
      const index_t mine = my_plan.per_sweep(id);
      const index_t chunk_cap =
          std::min<index_t>(static_cast<index_t>(kDirectionChunk),
                            std::max<index_t>(mine, 1));
      index_t* const dirs =
          scratch->dirs(id, static_cast<std::size_t>(chunk_cap));
      for (int sweep = 0; sweep < sweeps; ++sweep) {
        index_t t = 0;
        while (t < mine) {
          const std::size_t chunk =
              static_cast<std::size_t>(std::min<index_t>(chunk_cap, mine - t));
          my_plan.fill_in_sweep(id, sweep, t, chunk, dirs);
          const index_t* d = dirs;
          for (std::size_t i = 0; i < chunk; ++i)
            update(id, d[i], d[std::min(i + kPrefetchDistance, chunk - 1)]);
          t += static_cast<index_t>(chunk);
        }
        const int done = sweep + 1;
        const bool check =
            check_enabled && (controls.track_history || done == next_check);
        if (full_team) barrier.arrive_and_wait();
        const double rel = check ? residual(id, team) : 0.0;
        if (id == 0) {
          sweeps_done.store(done, std::memory_order_relaxed);
          if (check) {
            out.relative_residual = rel;
            if (controls.track_history) out.residual_history.push_back(rel);
            if (controls.rel_tol > 0.0 && rel <= controls.rel_tol) {
              converged = true;
              stop.store(true, std::memory_order_release);
            } else if (done == 1) {
              first_rel = rel;
              next_check = 2;
            } else {
              next_check = next_check_sweep(done, rel, first_rel,
                                            controls.rel_tol, sweeps);
            }
          }
          // Residual-policy table refresh: the team is parked at the next
          // barrier, so worker 0 may rebuild the sampler race-free; the
          // barrier release orders the new table before any later draw.
          if (refresh && !stop.load(std::memory_order_relaxed)) refresh();
        }
        if (full_team) barrier.arrive_and_wait();
        if (stop.load(std::memory_order_acquire)) break;
      }
    });
    out.iterations = sweeps_done.load(std::memory_order_relaxed);
    out.updates =
        static_cast<long long>(out.iterations) * static_cast<long long>(n);
  } else {
    // kTimedBarrier: rounds of `sync_interval_seconds` of free iteration
    // followed by a rendezvous.  Each worker runs on its own clock, so all
    // arrive at the barrier at nearly the same moment regardless of load
    // imbalance (the Section 5 "time based scheme").  The clock is consulted
    // once per direction-buffer refill — at most kDirectionChunk (and at
    // most one sweep-equivalent) of updates between checks.
    SpinBarrier barrier(workers);
    std::atomic<bool> stop{false};
    std::atomic<long long> updates_done{0};
    pool.run_team(workers, [&](int id, int team) {
      const bool full_team = (team == workers && team > 1);
      std::optional<Plan> shrunk;
      const Plan& my_plan = plan_for(team, shrunk);
      if (id == 0) team_used = team;
      const std::uint64_t my_total = my_plan.total_updates(id, sweeps);
      const std::uint64_t per_sweep = static_cast<std::uint64_t>(
          std::max<index_t>(my_plan.per_sweep(id), 1));
      const std::size_t chunk_cap = static_cast<std::size_t>(
          std::min<std::uint64_t>(kDirectionChunk, per_sweep));
      index_t* const dirs = scratch->dirs(id, chunk_cap);
      std::uint64_t k = 0;
      std::uint64_t since_yield = 0;
      while (!stop.load(std::memory_order_acquire)) {
        WallTimer round_timer;
        std::uint64_t done_this_round = 0;
        while (k < my_total) {
          const std::size_t chunk = static_cast<std::size_t>(
              std::min<std::uint64_t>(chunk_cap, my_total - k));
          my_plan.fill(id, k, chunk, dirs);
          const index_t* d = dirs;
          for (std::size_t i = 0; i < chunk; ++i)
            update(id, d[i], d[std::min(i + kPrefetchDistance, chunk - 1)]);
          k += chunk;
          done_this_round += chunk;
          // Refill boundary: yield once per sweep-equivalent so the
          // scheduler rotates the team, then check whether this round's time
          // budget is spent (clock consulted per refill, not per update).
          since_yield += chunk;
          if (team > 1 && since_yield >= per_sweep) {
            since_yield = 0;
            std::this_thread::yield();
          }
          if (round_timer.seconds() >= controls.sync_interval_seconds) break;
        }
        updates_done.fetch_add(static_cast<long long>(done_this_round),
                               std::memory_order_relaxed);
        if (full_team) barrier.arrive_and_wait();
        const double rel = check_enabled ? residual(id, team) : 0.0;
        if (id == 0) {
          bool should_stop =
              updates_done.load(std::memory_order_relaxed) >= total_target;
          if (check_enabled) {
            out.relative_residual = rel;
            if (controls.track_history) out.residual_history.push_back(rel);
            if (controls.rel_tol > 0.0 && rel <= controls.rel_tol) {
              converged = true;
              should_stop = true;
            }
          }
          // Same rendezvous-refresh contract as kBarrierPerSweep above.
          if (refresh && !should_stop) refresh();
          if (should_stop) stop.store(true, std::memory_order_release);
        }
        if (full_team) barrier.arrive_and_wait();
      }
    });
    out.updates = updates_done.load(std::memory_order_relaxed);
    out.iterations = static_cast<int>(out.updates / std::max<index_t>(n, 1));
  }

  out.workers = team_used;
  const bool tolerance_active =
      controls.rel_tol > 0.0 && controls.sync != SyncMode::kFreeRunning;
  out.status = converged          ? SolveStatus::kConverged
               : tolerance_active ? SolveStatus::kToleranceNotReached
                                  : SolveStatus::kBudgetCompleted;
}

/// Sampled engine run over the shared/owner-computes DirectionPlan — the
/// entry point for every unpartitioned solve.  Validates the sampling
/// contract, then delegates to run_engine_with_plan with a DirectionPlan
/// factory.  A default-constructed EngineSampling is the uniform engine.
template <typename UpdateFn, typename ResidualFn>
void run_engine_sampled(ThreadPool& pool, const SolveControls& controls,
                        index_t n, int workers,
                        const EngineSampling& sampling, UpdateFn&& update,
                        ResidualFn&& residual, SolveOutcome& out,
                        EngineScratch* scratch = nullptr) {
  if (sampling.sampler != nullptr && sampling.sampler->weighted_draws()) {
    require(controls.scope == RandomizationScope::kShared,
            "run_engine_sampled: weighted direction sampling requires the "
            "shared randomization scope");
    require(sampling.sampler->directions() == n,
            "run_engine_sampled: sampler direction count must match the "
            "engine");
  }
  require(!sampling.refresh || controls.sync != SyncMode::kFreeRunning,
          "run_engine_sampled: sampler refresh needs synchronization points; "
          "kFreeRunning has none");
  run_engine_with_plan(
      pool, controls, n, workers,
      [&](int team) {
        return DirectionPlan(controls.seed, controls.scope, n, team,
                             sampling.sampler);
      },
      sampling.refresh, std::forward<UpdateFn>(update),
      std::forward<ResidualFn>(residual), out, scratch);
}

}  // namespace asyrgs::detail
