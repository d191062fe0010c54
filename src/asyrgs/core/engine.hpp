// Shared asynchronous execution engine (internal).
//
// The hot loop common to every asynchronous solve path of the prepared
// handles (asyrgs/problem.hpp): direction planning, the one sweep loop
// whose sweep end is either a rendezvous or a yield (the two
// synchronization modes), and team-parallel residual evaluation at the
// rendezvous.  The engine reads the caller's SolveControls and
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
//    sync mode acts only at the end of each sweep (rendezvous or yield), so
//    the per-update path contains no modulo, no branch on sync mode, and no
//    timer call.
//  * The update functor is a concrete struct templated on atomicity, not a
//    std::function and not a runtime `atomic_writes` branch.
//  * The direction buffer makes the future known: each update is handed a
//    Lookahead over the rest of its refill chunk, and the kernels prefetch
//    along it (core/kernels.hpp).
//  * Residuals at synchronization points run as a team-wide parallel
//    reduction over the workers already rendezvoused at the barrier, rather
//    than serially on worker 0 while the team spins.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "asyrgs/gen/partition.hpp"
#include "asyrgs/problem.hpp"
#include "asyrgs/sampling/direction_sampler.hpp"
#include "asyrgs/support/aligned.hpp"
#include "asyrgs/support/barrier.hpp"
#include "asyrgs/support/prng.hpp"
#include "asyrgs/support/thread_pool.hpp"

namespace asyrgs::detail {

/// Direction-buffer capacity: the number of picks a worker plans ahead per
/// refill.  Large enough to amortize the batched Philox evaluation and the
/// per-chunk bookkeeping to noise, small enough (8 KiB of indices) to stay
/// L1-resident next to the iterate.
inline constexpr std::size_t kDirectionChunk = 1024;

/// The directions a worker will execute next, as the engine hands them to
/// an update functor beside the current one: at(k) is the direction k picks
/// later (at(0) the current one), clamped to the last entry of the refill
/// chunk, because the next chunk is not drawn yet.  The kernels prefetch
/// along it (core/kernels.hpp); functors may ignore it.
class Lookahead {
 public:
  Lookahead(const index_t* current, std::size_t remaining) noexcept
      : current_(current), remaining_(remaining) {}

  [[nodiscard]] index_t at(std::size_t k) const noexcept {
    return current_[std::min(k, remaining_)];
  }

 private:
  const index_t* current_;
  std::size_t remaining_;  // entries of the chunk after the current one
};

/// Splits [0, n) into `team` contiguous chunks (first n%team chunks one
/// longer) and returns worker w's [lo, hi) — the owner-computes ranges and
/// the partitioning used for team-parallel residual reductions.
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

/// Per-worker direction schedule, keyed by `seed`: worker w's t-th update
/// of sweep s, for t < per_sweep(w), in every sync mode.  It has one of
/// two shapes, drawn at random or (cyclic(), below) in a fixed order.
///
/// The shared stream (RandomizationScope::kShared): one Philox stream over
/// global indices, split per sweep — worker w's t-th update of sweep s
/// reads position s*n + w + t*P, so each sweep's team consumes exactly the
/// positions [s*n, (s+1)*n) and the direction multiset is the same for
/// every team size.  The deterministic virtual engine
/// (simulate/virtual_engine.hpp) consumes this shape too: a team-1 plan
/// enumerates the stream in global order, which the virtual engine
/// replays on a single thread, so its direction multiset (and, at P = 1,
/// the exact sequence) matches every real team size.  An optional
/// AliasTable generalizes WHAT each stream position draws
/// (sampling/direction_sampler.hpp): without one the draws are uniform
/// (fill_indices_strided); with one the plan pulls the raw 64-bit words at
/// the SAME stream positions and maps each through the table, so the
/// position multiset — and with it the cross-worker-count invariance — is
/// untouched.  Weighted draws require this shape (the constructor checks;
/// owned ranges have no global distribution to weight).
///
/// Owned ranges: the rows are cut into contiguous ranges (a GraphPartition,
/// gen/partition.hpp), and worker w of a team of T executes ranges
/// {w, w+T, w+2T, ...} round-robin.  Range p draws from its OWN Philox
/// stream keyed splitmix64(seed + 0x9E3779B97F4A7C15 * (p+1)), and the
/// position of sweep s's t-th draw in that stream is s * size_p + t —
/// independent of which worker executes it.  The direction multiset for a
/// fixed (seed, cut, steal_rate) is therefore invariant across team sizes
/// (tests/test_partition.cpp).  Two schedules take this shape:
///  * owner-computes (RandomizationScope::kOwnerComputes, the paper's
///    Section 10 restricted randomization): `team` identity cuts
///    chunk_of(n, w, team) with no halo, so worker w owns exactly range w;
///  * partitioned scheduling (SolveControls::partitions): the RCM cut of a
///    PartitionAnalysis, with stochastic halo stealing at `steal_rate`.
/// A steal-free plan (steal threshold 0: every owner-computes plan, and
/// steal_rate 0) reduces each draw's full 64-bit word to its range
/// (Philox4x32::index_at plus the range's first row).  A stealing plan
/// splits the word: the high 32 bits decide owned range vs halo against a
/// fixed threshold (round(steal_rate * 2^32)), and the low 32 bits select
/// the index inside the chosen set by 32-bit multiply reduction (bias <=
/// set_size / 2^32, negligible at cache-line-sized partitions).  Using
/// disjoint halves keeps the steal decision from biasing the within-set
/// position.  A range with an empty halo never steals.
///
/// Cyclic order (chaotic relaxation, SpdMethod::kAsyncJacobi): worker w's
/// t-th update of every sweep is its t-th owned row — rows {w, w+P, ...} in
/// the shared shape, chunk_of(n, w, P) in the owner-computes shape — so
/// each row keeps one writer even when P does not divide n, and no Philox
/// stream is read.
///
/// `pick_in_sweep` evaluates one direction (kept for tests and as the
/// executable specification); `fill_in_sweep` produces the same draws in
/// batches and is what the engine uses.
class DirectionPlan {
 public:
  /// The shared stream over [0, n) (kShared), or owner-computes over
  /// `team` identity cuts of [0, n) (kOwnerComputes).  `sampler` (borrowed
  /// for the plan's lifetime; null = uniform draws) weights the shared
  /// stream; it requires kShared and one weight per direction, and anything
  /// else throws.
  DirectionPlan(std::uint64_t seed, RandomizationScope scope, index_t n,
                int team, const AliasTable* sampler = nullptr)
      : seed_(seed), n_(n), team_(team), shared_(seed), sampler_(sampler),
        identity_cuts_(scope == RandomizationScope::kOwnerComputes) {
    if (sampler_ != nullptr) {
      require(scope == RandomizationScope::kShared,
              "DirectionPlan: weighted direction sampling requires the "
              "shared randomization scope");
      require(sampler_->size() == n,
              "DirectionPlan: sampler direction count must match the plan");
    }
    if (identity_cuts_) own(identity_cuts(n, team));
  }

  /// Partitioned scheduling over the ranges of `partition`, stealing from
  /// each range's halo at `steal_rate`.
  DirectionPlan(std::uint64_t seed,
                std::shared_ptr<const GraphPartition> partition,
                double steal_rate, int team)
      : seed_(seed), n_(partition->lo.back()), team_(team), shared_(seed),
        threshold_(steal_threshold(steal_rate)) {
    own(std::move(partition));
  }

  /// The cyclic order (above) over `scope`'s row ownership.
  [[nodiscard]] static DirectionPlan cyclic(RandomizationScope scope,
                                            index_t n, int team) {
    DirectionPlan plan(/*seed=*/0, scope, n, team);
    plan.cyclic_ = true;
    return plan;
  }

  /// The same schedule for a team of `team` workers: the engine's fallback
  /// when the pool shrinks a nested call's team.  Owner-computes cuts and
  /// cyclic rows follow the team; a partition's ranges and the shared
  /// stream do not.
  [[nodiscard]] DirectionPlan for_team(int team) const {
    DirectionPlan plan = *this;
    plan.team_ = team;
    if (part_ != nullptr)
      plan.own(identity_cuts_ ? identity_cuts(n_, team) : part_);
    return plan;
  }

  /// Updates worker w performs per sweep (the team-wide sum is n).
  [[nodiscard]] index_t per_sweep(int w) const {
    if (part_ != nullptr) return cum_[static_cast<std::size_t>(w)].back();
    // Count of global indices congruent to w modulo team in [0, n); zero
    // when w >= n (more workers than rows: the formula below would round
    // the negative numerator up to 1 and steal a position from the next
    // sweep, double-consuming it and breaking the multiset invariant).
    if (static_cast<index_t>(w) >= n_) return 0;
    return (n_ - 1 - static_cast<index_t>(w)) / team_ + 1;
  }

  /// Direction for worker w's t-th update of sweep `sweep`.
  [[nodiscard]] index_t pick_in_sweep(int w, int sweep, index_t t) const {
    if (cyclic_) return cyclic_row(w, t);
    if (part_ != nullptr) {
      const std::vector<index_t>& cum = cum_[static_cast<std::size_t>(w)];
      const std::size_t j = segment_of(cum, t);
      const int p = w + static_cast<int>(j) * team_;
      const index_t size = part_->size_of(p);
      const std::uint64_t k =
          static_cast<std::uint64_t>(sweep) * static_cast<std::uint64_t>(size) +
          static_cast<std::uint64_t>(t - cum[j]);
      const Philox4x32& stream = streams_[static_cast<std::size_t>(p)];
      if (threshold_ == 0) return part_->lo_of(p) + stream.index_at(k, size);
      return map_draw(stream.at(k), p);
    }
    const std::uint64_t j = static_cast<std::uint64_t>(sweep) *
                                static_cast<std::uint64_t>(n_) +
                            static_cast<std::uint64_t>(w) +
                            static_cast<std::uint64_t>(t) *
                                static_cast<std::uint64_t>(team_);
    if (sampler_ != nullptr) return sampler_->map(shared_.at(j));
    return shared_.index_at(j, n_);
  }

  /// out[i] = pick_in_sweep(w, sweep, t0 + i) for i in [0, count), batched:
  /// for owned ranges, bulk Philox draws per range segment.  t0 + count
  /// stays within per_sweep(w).
  void fill_in_sweep(int w, int sweep, index_t t0, std::size_t count,
                     index_t* out) const {
    if (cyclic_) {
      for (std::size_t i = 0; i < count; ++i)
        out[i] = cyclic_row(w, t0 + static_cast<index_t>(i));
      return;
    }
    if (count == 0) return;
    if (part_ != nullptr) {
      const std::vector<index_t>& cum = cum_[static_cast<std::size_t>(w)];
      index_t t = t0;
      std::size_t written = 0;
      while (written < count) {
        const std::size_t j = segment_of(cum, t);
        const int p = w + static_cast<int>(j) * team_;
        const std::size_t seg = static_cast<std::size_t>(std::min<index_t>(
            cum[j + 1] - t, static_cast<index_t>(count - written)));
        const std::uint64_t k0 = static_cast<std::uint64_t>(sweep) *
                                     static_cast<std::uint64_t>(
                                         part_->size_of(p)) +
                                 static_cast<std::uint64_t>(t - cum[j]);
        fill_range(p, k0, seg, out + written);
        written += seg;
        t += static_cast<index_t>(seg);
      }
      return;
    }
    const std::uint64_t first = static_cast<std::uint64_t>(sweep) *
                                    static_cast<std::uint64_t>(n_) +
                                static_cast<std::uint64_t>(w) +
                                static_cast<std::uint64_t>(t0) *
                                    static_cast<std::uint64_t>(team_);
    if (sampler_ != nullptr) {
      // Same stream positions, raw words instead of reduced indices; the
      // alias table maps them in place.
      shared_.fill_at_strided(first, static_cast<std::uint64_t>(team_), count,
                              reinterpret_cast<std::uint64_t*>(out));
      sampler_->map_in_place(out, count);
      return;
    }
    shared_.fill_indices_strided(first, static_cast<std::uint64_t>(team_),
                                 count, n_, out);
  }

  [[nodiscard]] int team() const noexcept { return team_; }
  /// Size of the index space the plan draws from: the engine's n.
  [[nodiscard]] index_t directions() const noexcept { return n_; }

 private:
  /// Worker w's t-th owned row of a cyclic plan.
  [[nodiscard]] index_t cyclic_row(int w, index_t t) const noexcept {
    if (part_ != nullptr) return part_->lo_of(w) + t;
    return static_cast<index_t>(w) + t * static_cast<index_t>(team_);
  }

  [[nodiscard]] static std::shared_ptr<const GraphPartition> identity_cuts(
      index_t n, int team) {
    auto cut = std::make_shared<GraphPartition>();
    for (int w = 0; w <= team; ++w) cut->lo.push_back(chunk_of(n, w, team).lo);
    cut->halo.resize(static_cast<std::size_t>(team));
    return cut;
  }

  [[nodiscard]] static std::uint32_t steal_threshold(double rate) noexcept {
    if (rate <= 0.0) return 0;
    const double scaled = rate * 4294967296.0;  // 2^32
    return scaled >= 4294967295.0 ? 0xFFFFFFFFu
                                  : static_cast<std::uint32_t>(scaled);
  }

  /// Adopts the owned ranges of `part` for the current team: one stream per
  /// range, and prefix sums of the owned range sizes per worker — cum_[w][j]
  /// is the first within-sweep position of worker w's j-th range (range id
  /// w + j*T).
  void own(std::shared_ptr<const GraphPartition> part) {
    part_ = std::move(part);
    const int count = part_->count();
    streams_.clear();
    streams_.reserve(static_cast<std::size_t>(count));
    for (int p = 0; p < count; ++p)
      streams_.emplace_back(splitmix64(
          seed_ + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(p + 1)));
    cum_.assign(static_cast<std::size_t>(team_), std::vector<index_t>{0});
    for (int w = 0; w < team_; ++w) {
      std::vector<index_t>& cum = cum_[static_cast<std::size_t>(w)];
      for (int p = w; p < count; p += team_)
        cum.push_back(cum.back() + part_->size_of(p));
    }
  }

  /// Index j with cum[j] <= t < cum[j+1], skipping empty ranges (cum is
  /// short: ceil(ranges/team) entries, a linear walk beats a search).
  [[nodiscard]] static std::size_t segment_of(const std::vector<index_t>& cum,
                                              index_t t) noexcept {
    std::size_t j = 0;
    while (cum[j + 1] <= t) ++j;
    return j;
  }

  /// out[i] = range p's draw at stream position k0 + i, for i in
  /// [0, count): the bulk form of pick_in_sweep's per-range draw.
  void fill_range(int p, std::uint64_t k0, std::size_t count,
                  index_t* out) const {
    const Philox4x32& stream = streams_[static_cast<std::size_t>(p)];
    if (threshold_ == 0) {
      stream.fill_indices(k0, count, part_->size_of(p), out);
      const index_t lo = part_->lo_of(p);
      for (std::size_t i = 0; i < count; ++i) out[i] += lo;
      return;
    }
    std::uint64_t* const words = reinterpret_cast<std::uint64_t*>(out);
    stream.fill_at(k0, count, words);
    for (std::size_t i = 0; i < count; ++i) out[i] = map_draw(words[i], p);
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

  std::uint64_t seed_;
  index_t n_;
  int team_;
  // The shared stream and its optional sampler.
  Philox4x32 shared_;
  const AliasTable* sampler_ = nullptr;
  // Owned ranges (null part_: the shared stream).
  std::shared_ptr<const GraphPartition> part_;
  bool identity_cuts_ = false;
  bool cyclic_ = false;
  std::uint32_t threshold_ = 0;
  std::vector<Philox4x32> streams_;
  std::vector<std::vector<index_t>> cum_;
};

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

/// Generic execution engine shared by the single-RHS, block, least-squares,
/// Kaczmarz and chaotic-relaxation solve paths, over any DirectionPlan
/// (shared stream, owner-computes, partitioned or cyclic).
///
/// One loop serves both sync modes: each worker runs `sweeps` sweeps of its
/// plan.per_sweep(worker) updates, drawn through fill_in_sweep, so a worker
/// executes the same direction sequence in either mode.  The modes differ
/// only at the end of each sweep: kBarrierPerSweep rendezvouses (two
/// barriers around the scheduled residual check), kFreeRunning yields once
/// on teams of more than one worker and goes on.
///
/// `update(worker, r, ahead)` performs one coordinate update on direction
/// r; `ahead` (a Lookahead) names the directions the worker executes next,
/// for cache prefetching.  `residual(worker,
/// team)` evaluates the convergence metric at synchronization points; it is
/// called by *every* rendezvoused worker (team-parallel reduction — see
/// TeamReduce) and only worker 0's return value is used.  The engine calls
/// it only when the controls request history tracking or a tolerance under
/// kBarrierPerSweep: every sweep under track_history, on the
/// next_check_sweep schedule for a tolerance alone, and once on x0 for a
/// zero budget.
///
/// The engine reads `controls` (sweeps, sync, track_history, rel_tol) and
/// sets the run's fields of `out`: status, iterations, updates, workers,
/// relative_residual and residual_history.  The caller sets the rest.  The
/// status rule:
///  * kConverged when a residual check met rel_tol;
///  * kToleranceNotReached when rel_tol > 0 under kBarrierPerSweep;
///  * kBudgetCompleted otherwise (free-running runs never check residuals).
///
/// The team is `plan.team()` workers over `plan.directions()` rows.  The
/// thread pool may shrink a team to 1 on nested calls.  The engine then
/// re-plans for that team (plan.for_team) inside the team instead of paying
/// for a throwaway fallback plan in every worker, and `out.workers` reports
/// the team worker 0 actually ran in.
///
/// `scratch` (optional) supplies reusable per-worker direction buffers; a
/// prepared handle passes its own so repeated solves skip the allocations,
/// while callers without one leave it null and pay a local scratch per run.
template <typename UpdateFn, typename ResidualFn>
void run_engine(ThreadPool& pool, const SolveControls& controls,
                const DirectionPlan& plan, UpdateFn&& update,
                ResidualFn&& residual, SolveOutcome& out,
                EngineScratch* scratch = nullptr) {
  const int workers = plan.team();
  const index_t n = plan.directions();
  EngineScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  scratch->prepare(workers);
  const bool check_enabled = controls.track_history || controls.rel_tol > 0.0;
  const bool rendezvous = controls.sync == SyncMode::kBarrierPerSweep;
  const int sweeps = controls.sweeps;

  // Written by worker 0 only (the calling thread).
  int team_used = workers;
  int sweeps_done = 0;
  bool converged = false;

  if (rendezvous && sweeps == 0) {
    // The returned iterate is x0: report its residual.  No team runs.
    if (check_enabled) {
      out.relative_residual = residual(0, 1);
      converged = controls.rel_tol > 0.0 &&
                  out.relative_residual <= controls.rel_tol;
    }
  } else {
    SpinBarrier barrier(workers);
    std::atomic<bool> stop{false};
    // Exact-check schedule: every sweep under track_history, else sweeps 1
    // and 2 and then next_check_sweep.  Worker 0 writes next_check between
    // the two barriers and every worker reads it before the next sweep's
    // first barrier, so the barriers order the hand-off and the whole team
    // agrees on entering the residual's reduction.
    int next_check = 1;
    double first_rel = 0.0;
    pool.run_team(workers, [&](int id, int team) {
      const bool full_team = (team == workers && team > 1);
      // A worker whose team the pool shrank (a nested call) re-plans for its
      // actual team into `shrunk`; the common team == workers case pays
      // nothing.
      std::optional<DirectionPlan> shrunk;
      const DirectionPlan& my_plan =
          team == workers ? plan : shrunk.emplace(plan.for_team(team));
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
            update(id, d[i], Lookahead(d + i, chunk - 1 - i));
          t += static_cast<index_t>(chunk);
        }
        const int done = sweep + 1;
        if (id == 0) sweeps_done = done;
        if (!rendezvous) {
          // kFreeRunning's sweep end: no rendezvous and no residual, only a
          // yield so the scheduler rotates the team — on oversubscribed
          // hosts a worker would otherwise burn its whole budget in a few
          // scheduling quanta, leaving tau unbounded and owned ranges
          // stalled.
          if (team > 1) std::this_thread::yield();
          continue;
        }
        const bool check =
            check_enabled && (controls.track_history || done == next_check);
        if (full_team) barrier.arrive_and_wait();
        const double rel = check ? residual(id, team) : 0.0;
        if (id == 0 && check) {
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
        if (full_team) barrier.arrive_and_wait();
        if (stop.load(std::memory_order_acquire)) break;
      }
    });
  }

  out.iterations = sweeps_done;
  out.updates = static_cast<long long>(sweeps_done) * static_cast<long long>(n);
  out.workers = team_used;
  const bool tolerance_active = controls.rel_tol > 0.0 && rendezvous;
  out.status = converged          ? SolveStatus::kConverged
               : tolerance_active ? SolveStatus::kToleranceNotReached
                                  : SolveStatus::kBudgetCompleted;
}

}  // namespace asyrgs::detail
