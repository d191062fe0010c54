#include "asyrgs/simulate/virtual_engine.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <utility>

#include "asyrgs/core/async_rgs.hpp"
#include "asyrgs/core/engine.hpp"
#include "asyrgs/core/kernels.hpp"
#include "asyrgs/support/common.hpp"

namespace asyrgs {

namespace {

/// The virtual engine proper: production kernel + production direction
/// planner + an update window from which stale states are materialized.
///
/// Per update j with invisible set T = {t : t in window, t not visible}:
///
///   1. For each t in T (schedule order): save the exact bits of
///      x[row_t], then subtract delta_t — after the loop the iterate holds
///      the stale state x_{K(j)} on every coordinate row r reads.
///   2. d = kernel.delta(r): the production scan arithmetic (column-order
///      association, relaxed-atomic coordinate reads) evaluated against the
///      materialized snapshot.
///   3. Restore the saved bits in reverse save order — the current iterate
///      is recovered exactly, independent of floating-point cancellation in
///      the subtract/restore round trip.
///   4. kernel.apply(r, d): the production commit (racy_add — the same
///      load/add/store the non-atomic solver variant executes; on one
///      thread it is an exact +=) lands the increment on the *current*
///      iterate, and (r, d) enters the window ring.
///
/// With T empty this is byte-for-byte the sequential update — step 2 reads
/// the live iterate and step 4 adds onto it — which is what makes the P = 1
/// / zero-delay run bit-identical to core/rgs.
class VirtualEngine {
 public:
  VirtualEngine(const CsrMatrix& a, const std::vector<double>& b,
                const std::vector<double>& x0,
                const std::vector<double>& x_star, index_t tau,
                const VirtualEngineOptions& options,
                const AliasTable* sampler = nullptr)
      : a_(a), x_star_(x_star), x_(x0), options_(options) {
    require(a.square(), "virtual_engine: matrix must be square");
    require(static_cast<index_t>(b.size()) == a.rows() &&
                static_cast<index_t>(x0.size()) == a.rows() &&
                static_cast<index_t>(x_star.size()) == a.rows(),
            "virtual_engine: shape mismatch");
    require(options.step_size > 0.0 && options.step_size < 2.0,
            "virtual_engine: step size must be in (0, 2)");
    // direction() reads update j as sweep j / n of the plan, which numbers
    // sweeps as int.
    require(options.iterations == 0 ||
                (a.rows() > 0 &&
                 options.iterations / static_cast<std::uint64_t>(a.rows()) <
                     static_cast<std::uint64_t>(
                         std::numeric_limits<int>::max())),
            "virtual_engine: iterations exceed the plan's sweep range");
    std::vector<double> inv_diag = a.diagonal();
    for (double& d : inv_diag) {
      require(d > 0.0, "virtual_engine: diagonal must be strictly positive");
      d = 1.0 / d;
    }
    detail::pack_rhs_diag(b, inv_diag, rhs_diag_);
    kernel_ = Kernel{a_.row_ptr().data(), a_.col_idx().data(),
                     a_.values().data(), rhs_diag_.data(), x_.data(),
                     options.step_size};
    // A team-1 shared-scope plan enumerates the global Philox direction
    // stream in order — the same stream every physical team size tiles.
    // An alias table maps that stream exactly as the threaded engine's
    // workers do (the plan checks it holds one weight per row).
    plan_.emplace(options.seed, RandomizationScope::kShared, a.rows(),
                  /*team=*/1, sampler);
    window_rows_.resize(static_cast<std::size_t>(tau) + 1, 0);
    window_deltas_.resize(static_cast<std::size_t>(tau) + 1, 0.0);
    dirs_.resize(detail::kDirectionChunk);
    dir_base_ = dir_count_ = 0;
  }

  /// Direction of update j — stream position j, the (j mod n)-th update of
  /// sweep j / n — served from the batched planner refill, which stops at
  /// the sweep's end.
  [[nodiscard]] index_t direction(std::uint64_t j) {
    if (j < dir_base_ || j >= dir_base_ + dir_count_) {
      const std::uint64_t n = static_cast<std::uint64_t>(plan_->directions());
      const std::uint64_t t = j % n;
      dir_base_ = j;
      dir_count_ = std::min<std::uint64_t>(dirs_.size(), n - t);
      plan_->fill_in_sweep(0, static_cast<int>(j / n), static_cast<index_t>(t),
                           static_cast<std::size_t>(dir_count_), dirs_.data());
    }
    return dirs_[static_cast<std::size_t>(j - dir_base_)];
  }

  /// One virtual update: materialize the stale state for the invisible
  /// window indices `excl`, run the production kernel, restore, commit.
  void step(std::uint64_t j, index_t r, const std::uint64_t* excl,
            std::size_t count) {
    saved_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t slot =
          static_cast<std::size_t>(excl[i] % window_rows_.size());
      const index_t row_t = window_rows_[slot];
      const double delta_t = window_deltas_[slot];
      if (delta_t == 0.0) continue;
      saved_.emplace_back(row_t, x_[static_cast<std::size_t>(row_t)]);
      x_[static_cast<std::size_t>(row_t)] -= delta_t;
    }
    const double d = kernel_.delta(r);
    for (std::size_t i = saved_.size(); i-- > 0;)
      x_[static_cast<std::size_t>(saved_[i].first)] = saved_[i].second;
    kernel_.apply(r, d);
    const std::size_t slot = static_cast<std::size_t>(j % window_rows_.size());
    window_rows_[slot] = r;
    window_deltas_[slot] = d;
  }

  void maybe_record(std::uint64_t j, SimResult& result) const {
    if (options_.record_every != 0 && j % options_.record_every == 0) {
      result.record_points.push_back(j);
      result.error_sq_history.push_back(error_sq());
    }
  }

  [[nodiscard]] SimResult finish(std::uint64_t iterations,
                                 SimResult&& recorded) {
    SimResult result;
    result.iterations = iterations;
    result.final_error_sq = error_sq();
    result.record_points = std::move(recorded.record_points);
    result.error_sq_history = std::move(recorded.error_sq_history);
    result.x = std::move(x_);
    return result;
  }

 private:
  // Same quadratic form and association as the replay simulator's recorder,
  // so the two error traces are directly comparable.
  [[nodiscard]] double error_sq() const {
    const index_t n = a_.rows();
    std::vector<double> e(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) e[i] = x_[i] - x_star_[i];
    double acc = 0.0;
    for (index_t i = 0; i < n; ++i) acc += e[i] * a_.row_dot(i, e.data());
    return std::max(acc, 0.0);
  }

  // The production kernel in its racy-write specialization: on a single
  // thread racy_add is an exact +=, and its column-order scan is the
  // association the bit-reproducibility contract pins.
  using Kernel = detail::SingleRhsUpdate<false>;

  const CsrMatrix& a_;
  const std::vector<double>& x_star_;
  std::vector<double> x_;
  std::vector<detail::RhsDiagPair> rhs_diag_;
  Kernel kernel_{};
  VirtualEngineOptions options_;
  std::optional<detail::DirectionPlan> plan_;
  std::vector<index_t> window_rows_;
  std::vector<double> window_deltas_;
  std::vector<index_t> dirs_;
  std::uint64_t dir_base_ = 0;
  std::uint64_t dir_count_ = 0;
  std::vector<std::pair<index_t, double>> saved_;
};

}  // namespace

SimResult run_virtual_consistent(const CsrMatrix& a,
                                 const std::vector<double>& b,
                                 const std::vector<double>& x0,
                                 const std::vector<double>& x_star,
                                 const ConsistentDelayModel& delay,
                                 const VirtualEngineOptions& options,
                                 const AliasTable* sampler) {
  VirtualEngine engine(a, b, x0, x_star, delay.tau(), options, sampler);
  SimResult recorded;
  std::vector<std::uint64_t> invisible;

  for (std::uint64_t j = 0; j < options.iterations; ++j) {
    engine.maybe_record(j, recorded);
    const index_t r = engine.direction(j);

    // Verify the schedule respects Assumption A-3 before trusting it.
    const std::uint64_t k = delay.snapshot(j);
    require(k <= j, "run_virtual_consistent: schedule returned k(j) > j");
    require(j - k <= static_cast<std::uint64_t>(delay.tau()),
            "run_virtual_consistent: schedule violated its tau bound");

    // The snapshot x_{k(j)} is the current iterate minus every update in
    // [k, j) — a consistent read sees a prefix of the update sequence.
    invisible.clear();
    for (std::uint64_t t = k; t < j; ++t) invisible.push_back(t);
    engine.step(j, r, invisible.data(), invisible.size());
  }
  return engine.finish(options.iterations, std::move(recorded));
}

SimResult run_virtual_inconsistent(const CsrMatrix& a,
                                   const std::vector<double>& b,
                                   const std::vector<double>& x0,
                                   const std::vector<double>& x_star,
                                   const InconsistentDelayModel& delay,
                                   const VirtualEngineOptions& options) {
  VirtualEngine engine(a, b, x0, x_star, delay.tau(), options);
  SimResult recorded;
  const std::uint64_t tau = static_cast<std::uint64_t>(delay.tau());
  std::vector<std::uint64_t> excluded;

  for (std::uint64_t j = 0; j < options.iterations; ++j) {
    engine.maybe_record(j, recorded);
    const index_t r = engine.direction(j);

    // x_{K(j)} differs from x_j only on updates inside the tau window that
    // the schedule excludes (A-3': everything older is always visible).
    const std::uint64_t window_start = j > tau ? j - tau : 0;
    excluded.clear();
    delay.excluded_in_window(j, window_start, excluded);
    for (std::uint64_t t : excluded)
      require(t >= window_start && t < j,
              "run_virtual_inconsistent: schedule excluded an update outside "
              "its declared tau window");
    engine.step(j, r, excluded.data(), excluded.size());
  }
  return engine.finish(options.iterations, std::move(recorded));
}

VirtualEventResult run_virtual_event(const CsrMatrix& a,
                                     const std::vector<double>& b,
                                     const std::vector<double>& x0,
                                     const std::vector<double>& x_star,
                                     const EventSimOptions& event,
                                     const VirtualEngineOptions& options) {
  const EventDrivenSchedule schedule = EventDrivenSchedule::build(a, event);

  // The schedule was built against Philox(event.seed); the engine must
  // consume the identical direction stream or the visibility sets would
  // describe a different run.
  VirtualEngineOptions engine_options = options;
  engine_options.seed = event.seed;
  engine_options.iterations = event.iterations;

  VirtualEngine engine(a, b, x0, x_star, schedule.tau(), engine_options);
  SimResult recorded;
  for (std::uint64_t j = 0; j < event.iterations; ++j) {
    engine.maybe_record(j, recorded);
    const index_t r = engine.direction(j);
    const std::vector<std::uint64_t>& excluded = schedule.excluded(j);
    for (std::uint64_t t : excluded)
      require(t < j && j - t <= static_cast<std::uint64_t>(schedule.tau()),
              "run_virtual_event: schedule excluded an update outside its "
              "declared tau window");
    engine.step(j, r, excluded.data(), excluded.size());
  }

  VirtualEventResult out;
  out.result = engine.finish(event.iterations, std::move(recorded));
  out.stats = schedule.stats();
  out.tau = schedule.tau();
  return out;
}

}  // namespace asyrgs
