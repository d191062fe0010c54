// Updates/second of the asynchronous update engine, current vs the pre-PR2
// baseline, plus the residual-check cost at synchronization points.
//
// This driver anchors the repo's measured performance trajectory: it emits a
// machine-readable BENCH_<label>.json (schema documented in bench/README.md)
// so every perf PR can record before/after numbers produced by the same
// harness (`scripts/bench.sh`).
//
// The baseline is a faithful in-tree copy of the engine's hot loop as it
// stood before the PR-2 overhaul (namespace `legacy` below): one full
// 10-round Philox evaluation per direction draw, a runtime `atomic_writes`
// branch per update, a 64-bit modulo per update for the yield cadence, an
// unconditionally constructed per-worker fallback DirectionPlan, and a
// serial residual on worker 0 at synchronization points.  Keeping the old
// loop compilable here (rather than diffing against an old git checkout)
// lets one binary measure both engines on identical inputs, and doubles as
// the "generic kernel" reference for the micro-benchmarks.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "asyrgs/support/atomics.hpp"
#include "asyrgs/support/barrier.hpp"
#include "asyrgs/support/prng.hpp"
#include "bench_common.hpp"

using namespace asyrgs;
using namespace asyrgs::bench;

namespace legacy {

/// Pre-PR2 coordinate update: runtime atomicity branch, span-based row scan.
inline void update_coordinate(const CsrMatrix& a, const double* b, double* x,
                              index_t r, double beta, double inv_diag,
                              bool atomic_writes) {
  double acc = b[r];
  const auto cols = a.row_cols(r);
  const auto vals = a.row_vals(r);
  for (std::size_t t = 0; t < cols.size(); ++t)
    acc -= vals[t] * atomic_load_relaxed(x[cols[t]]);
  const double delta = beta * (acc * inv_diag);
  if (atomic_writes)
    atomic_add_relaxed(x[r], delta);
  else
    racy_add(x[r], delta);
}

/// Pre-PR2 direction schedule: one full Philox evaluation per pick().
class DirectionPlan {
 public:
  DirectionPlan(std::uint64_t seed, index_t n, int team)
      : n_(n), team_(team), shared_(seed) {}

  [[nodiscard]] index_t per_sweep(int w) const {
    return (n_ - 1 - static_cast<index_t>(w)) / team_ + 1;
  }

  [[nodiscard]] std::uint64_t total_updates(int w, int sweeps) const {
    const std::uint64_t total = static_cast<std::uint64_t>(sweeps) *
                                static_cast<std::uint64_t>(n_);
    if (static_cast<std::uint64_t>(w) >= total) return 0;
    return (total - 1 - static_cast<std::uint64_t>(w)) /
               static_cast<std::uint64_t>(team_) +
           1;
  }

  [[nodiscard]] index_t pick(int w, std::uint64_t k) const {
    const std::uint64_t j =
        static_cast<std::uint64_t>(w) + k * static_cast<std::uint64_t>(team_);
    return shared_.index_at(j, n_);
  }

  [[nodiscard]] index_t pick_in_sweep(int w, int sweep, index_t t) const {
    const std::uint64_t j = static_cast<std::uint64_t>(sweep) *
                                static_cast<std::uint64_t>(n_) +
                            static_cast<std::uint64_t>(w) +
                            static_cast<std::uint64_t>(t) *
                                static_cast<std::uint64_t>(team_);
    return shared_.index_at(j, n_);
  }

 private:
  index_t n_;
  int team_;
  Philox4x32 shared_;
};

/// Pre-PR2 free-running engine (shared randomization scope).
SolveOutcome solve_free_running(ThreadPool& pool, const CsrMatrix& a,
                                const std::vector<double>& b,
                                std::vector<double>& x,
                                const SolveControls& options) {
  const index_t n = a.rows();
  std::vector<double> inv_diag = a.diagonal();
  for (double& d : inv_diag) d = 1.0 / d;
  const double beta = options.step_size;
  int workers = options.workers > 0 ? options.workers : pool.size();
  if (workers > pool.size()) workers = pool.size();

  SolveOutcome report;
  report.workers = workers;
  WallTimer timer;
  const DirectionPlan plan(options.seed, n, workers);
  pool.run_team(workers, [&](int id, int team) {
    const DirectionPlan* my_plan = &plan;
    DirectionPlan fallback(options.seed, n, team);  // unconditional, as before
    if (team != workers) my_plan = &fallback;
    const std::uint64_t my_total = my_plan->total_updates(id, options.sweeps);
    const std::uint64_t stride = static_cast<std::uint64_t>(
        std::max<index_t>(my_plan->per_sweep(id), 1));
    for (std::uint64_t k = 0; k < my_total; ++k) {
      const index_t r = my_plan->pick(id, k);
      update_coordinate(a, b.data(), x.data(), r, beta, inv_diag[r],
                        options.atomic_writes);
      if (team > 1 && (k + 1) % stride == 0) std::this_thread::yield();
    }
  });
  report.iterations = options.sweeps;
  report.updates = static_cast<long long>(options.sweeps) *
                   static_cast<long long>(n);
  report.seconds = timer.seconds();
  return report;
}

/// Pre-PR2 barrier-per-sweep engine with the serial worker-0 residual.
SolveOutcome solve_barrier(ThreadPool& pool, const CsrMatrix& a,
                           const std::vector<double>& b,
                           std::vector<double>& x,
                           const SolveControls& options) {
  const index_t n = a.rows();
  std::vector<double> inv_diag = a.diagonal();
  for (double& d : inv_diag) d = 1.0 / d;
  const double beta = options.step_size;
  int workers = options.workers > 0 ? options.workers : pool.size();
  if (workers > pool.size()) workers = pool.size();
  const bool check_enabled = options.track_history || options.rel_tol > 0.0;

  SolveOutcome report;
  report.workers = workers;
  WallTimer timer;
  const DirectionPlan plan(options.seed, n, workers);
  SpinBarrier barrier(workers);
  std::atomic<bool> stop{false};
  std::atomic<int> sweeps_done{0};
  pool.run_team(workers, [&](int id, int team) {
    const bool use_barrier = (team == workers && team > 1);
    const DirectionPlan* my_plan = &plan;
    DirectionPlan fallback(options.seed, n, team);
    if (team != workers) my_plan = &fallback;
    const index_t mine = my_plan->per_sweep(id);
    for (int sweep = 0; sweep < options.sweeps; ++sweep) {
      for (index_t t = 0; t < mine; ++t) {
        const index_t r = my_plan->pick_in_sweep(id, sweep, t);
        update_coordinate(a, b.data(), x.data(), r, beta, inv_diag[r],
                          options.atomic_writes);
      }
      if (use_barrier) barrier.arrive_and_wait();
      if (id == 0) {
        sweeps_done.store(sweep + 1, std::memory_order_relaxed);
        if (check_enabled) {
          const double rel = relative_residual(a, b, x);  // serial
          report.relative_residual = rel;
          if (options.track_history) report.residual_history.push_back(rel);
          if (options.rel_tol > 0.0 && rel <= options.rel_tol) {
            report.status = SolveStatus::kConverged;
            stop.store(true, std::memory_order_release);
          }
        }
      }
      if (use_barrier) barrier.arrive_and_wait();
      if (stop.load(std::memory_order_acquire)) break;
    }
  });
  report.iterations = sweeps_done.load(std::memory_order_relaxed);
  report.updates = static_cast<long long>(report.iterations) *
                   static_cast<long long>(n);
  report.seconds = timer.seconds();
  return report;
}

}  // namespace legacy

namespace {

struct Measurement {
  std::string workload;  // "gram_engine_bound" | "gram_scan_bound"
  std::string engine;    // "legacy" | "current"
  std::string mode;      // "free_running" | "barrier_residual" |
                         // "prepare_amortization" | "serving_throughput" |
                         // "storage_policy" | "sampling_policy" |
                         // "kaczmarz_row_action"
  std::string storage;   // CSR policy the row's kernels ran against (v7):
                         // "int64_double" | "int32_double"
  std::string sampling;  // direction distribution (v9, sampling_policy and
                         // kaczmarz_row_action rows): "uniform" | "weighted"
                         // | "residual"
  int workers = 0;
  long long updates = 0;
  double seconds = 0.0;
  double updates_per_second = 0.0;
  double residual_cost_per_sweep = 0.0;  // barrier_residual rows only
  std::string api;     // prepare_amortization rows: "cold" | "cold_uncached"
                       // | "prepared"
  std::string family;  // prepare_amortization rows: "spd" | "lsq"
  int shards = 0;                   // serving_throughput rows only
  double solves_per_second = 0.0;   // serving_throughput rows only
};

/// One storage-policy comparison (schema v7): prepared-handle updates/second
/// under each CSR storage policy, per workload, at 1 worker.
struct StoragePoint {
  std::string workload;
  double int64_ups = 0.0;
  double int32_ups = 0.0;
};

/// One sampling-policy comparison (schema v9): prepared-handle
/// updates/second under each direction-draw distribution, per workload, at
/// 1 worker under barrier-per-sweep (the residual policy needs the
/// rendezvous for its table refresh, so every policy is measured under the
/// identical sync regime).  The deltas are pure draw-path cost: uniform is
/// the raw 128-bit-multiply reduction, weighted adds one alias-table lookup
/// per draw, residual adds the periodic rebuild on top.
struct SamplingPoint {
  std::string workload;
  double uniform_ups = 0.0;
  double weighted_ups = 0.0;
  double residual_ups = 0.0;
};

/// Cold-vs-prepared solve latency for one solver family (schema v4; the
/// uncached-cold row since v5): the serving regime fixes the matrix and
/// answers many short solves, so the interesting ratio is one-shot API
/// latency (handle construction + solve, re-paying
/// validation/denominators/scratch per call) over prepared-handle latency
/// (solve only).  `cold` shares the matrix-level transpose cache (warm
/// after the prepared handle's construction); `cold_uncached` rebuilds
/// against a *fresh* CsrMatrix per solve, so the O(nnz) transpose build is
/// back in the per-call path — the true pre-PR4 one-shot cost profile (the
/// ROADMAP gap this row closes).
struct AmortizationPoint {
  double prepare_seconds = 0.0;   // one-time handle construction (cache cold)
  double cold_seconds = 0.0;      // per-solve: construct-and-solve, warm cache
  double cold_uncached_seconds = 0.0;  // per-solve: fresh matrix, cold cache
  double prepared_seconds = 0.0;  // per-solve: prepared handle
  [[nodiscard]] double speedup() const {
    return prepared_seconds > 0.0 ? cold_seconds / prepared_seconds : 0.0;
  }
  [[nodiscard]] double uncached_speedup() const {
    return prepared_seconds > 0.0 ? cold_uncached_seconds / prepared_seconds
                                  : 0.0;
  }
};

/// One sharded-serving measurement (schema v5): aggregate completed
/// requests per second for a mixed SPD/LSQ stream at a given shard count.
struct ServingPoint {
  int shards = 0;
  double seconds = 0.0;
  double solves_per_second = 0.0;
};

/// Open-loop overload measurement (schema v6): arrivals paced at ~2x the
/// measured single-shard capacity against a small admission bound, so the
/// service *must* shed load.  Records how gracefully it did: the reject
/// rate and the latency tail of what it chose to serve.
struct OverloadPoint {
  double arrival_rate = 0.0;   // offered arrivals per second (target)
  double duration_seconds = 0.0;
  long long offered = 0;
  long long rejected = 0;      // admission rejects + deadline sheds
  double reject_rate = 0.0;
  double p50_seconds = 0.0;    // latency of served requests, enqueue->done
  double p99_seconds = 0.0;
};

struct WorkloadSpec {
  std::string name;
  SocialGramOptions gram;
  index_t n = 0;
  nnz_t nnz = 0;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s)
    if (c == '"' || c == '\\')
      (out += '\\') += c;
    else
      out += c;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_updates",
                "Updates/second: current engine vs the pre-PR2 baseline");
  // Headline workload: a short-row Gram (mean ~7 nnz/row) where the engine
  // overhead — direction draws, dispatch, synchronization bookkeeping — is
  // the dominant per-update cost.  The dense-row reference workload below
  // isolates the complementary regime where the CSR row scan (a serial
  // subtraction chain, pinned for bit-reproducibility) bounds the update,
  // so engine improvements show up less.
  auto terms = cli.add_int("terms", 6000, "headline Gram dimension");
  auto documents = cli.add_int("documents", 9000, "headline corpus size");
  auto doc_length =
      cli.add_int("doc-length", 3, "headline mean terms per document");
  auto seed = cli.add_int("seed", 42, "corpus generator seed");
  // Long runs + many repetitions: on an oversubscribed 1-core host the
  // 4-worker point is scheduler-noise dominated, and the minimum over short
  // runs is unstable.
  auto sweeps = cli.add_int("sweeps", 400, "sweeps per timed run");
  auto repeats = cli.add_int("repeats", 9, "timing repetitions (min taken)");
  auto threads_opt =
      cli.add_int_list("threads", {1, 2, 4}, "worker counts to measure");
  auto headline =
      cli.add_int("headline-workers", 4, "worker count for the headline ratio");
  auto label = cli.add_string("label", "dev", "label for the JSON file");
  auto out_path =
      cli.add_string("out", "", "output path (default BENCH_<label>.json)");
  auto git_rev = cli.add_string("git", "", "git revision recorded in the JSON");
  auto skip_scan = cli.add_flag(
      "skip-scan-workload", "measure only the engine-bound headline workload");
  auto smoke = cli.add_flag("smoke", "tiny workload for CI smoke runs");
  cli.parse(argc, argv);

  const int n_sweeps = *smoke ? 40 : static_cast<int>(*sweeps);
  const int n_repeats = *smoke ? 2 : static_cast<int>(*repeats);

  std::vector<WorkloadSpec> workloads;
  {
    WorkloadSpec engine_bound;
    engine_bound.name = "gram_engine_bound";
    engine_bound.gram.terms = *smoke ? 1500 : *terms;
    engine_bound.gram.documents = *smoke ? 2200 : *documents;
    engine_bound.gram.mean_doc_length = *doc_length;
    engine_bound.gram.ridge = 0.5;
    engine_bound.gram.topics = *smoke ? 20 : 100;
    engine_bound.gram.topic_concentration = 0.92;
    engine_bound.gram.seed = static_cast<std::uint64_t>(*seed);
    workloads.push_back(engine_bound);
    if (!*skip_scan) {
      WorkloadSpec scan_bound;
      scan_bound.name = "gram_scan_bound";
      scan_bound.gram.terms = *smoke ? 600 : 3000;
      scan_bound.gram.documents = *smoke ? 2400 : 12000;
      scan_bound.gram.mean_doc_length = 10;
      scan_bound.gram.ridge = 0.5;
      scan_bound.gram.topics = *smoke ? 20 : 100;
      scan_bound.gram.topic_concentration = 0.92;
      scan_bound.gram.seed = static_cast<std::uint64_t>(*seed);
      workloads.push_back(scan_bound);
    }
  }

  print_banner("bench_updates", "updates/second trajectory (perf PRs)");

  // The pool is sized to the requested sweep, not the hardware, so the
  // 4-worker point exists even on small CI machines (oversubscribed workers
  // timeshare; both engines are measured under the identical regime).
  std::vector<int> worker_sweep;
  for (std::int64_t t : *threads_opt)
    worker_sweep.push_back(static_cast<int>(t));
  if (worker_sweep.empty()) worker_sweep = {1, 2, 4};
  // The headline ratios need their worker counts measured; without this a
  // custom --threads list omitting them would silently record speedup 0.
  if (std::find(worker_sweep.begin(), worker_sweep.end(),
                static_cast<int>(*headline)) == worker_sweep.end())
    worker_sweep.push_back(static_cast<int>(*headline));
  int max_workers = 1;
  for (int w : worker_sweep) max_workers = std::max(max_workers, w);
  ThreadPool pool(max_workers);

  std::vector<Measurement> results;
  Table table({"workload", "workers", "engine", "mode", "updates/s",
               "ns/update", "check_s/sweep"});

  AmortizationPoint amor_spd, amor_lsq;
  const int amor_sweeps = *smoke ? 2 : 4;
  std::vector<StoragePoint> storage_points;
  std::vector<SamplingPoint> sampling_points;
  double kaczmarz_uniform_ups = 0.0, kaczmarz_weighted_ups = 0.0;
  index_t kaczmarz_rows = 0, kaczmarz_cols = 0;
  nnz_t kaczmarz_nnz = 0;
  std::vector<ServingPoint> serving;
  OverloadPoint overload;
  const int serve_requests = *smoke ? 8 : 40;
  const int serve_sweeps = *smoke ? 2 : 8;
  const int serve_clients = 2;

  for (WorkloadSpec& spec : workloads) {
    const SocialGram system = make_social_gram(spec.gram);
    const CsrMatrix a =
        UnitDiagonalScaling(system.gram).scale_matrix(system.gram);
    std::cout << "# workload " << spec.name << ":\n";
    print_matrix_profile(a);
    const index_t n = a.rows();
    spec.n = n;
    spec.nnz = a.nnz();
    const std::vector<double> b = random_vector(n, 7);
    // What the current engine's prepared handles resolve by default: kAuto
    // narrows to int32/double whenever the shape fits (it does for every
    // bench workload).  The legacy engine predates the policies and always
    // reads the bound full-width matrix.
    const char* const auto_storage = to_string(
        resolve_storage_policy(StorageMode::kAuto, a.cols(), a.nnz()));

    // The current engine, run as a one-shot caller runs it.
    const auto current_solve = [&](std::vector<double>& x,
                                   const SolveControls& controls) {
      return SpdProblem(pool, a, /*check_input=*/false).solve(b, x, controls);
    };
    const auto time_run = [&](auto&& fn) {
      double best = 1e300;
      for (int rep = 0; rep < n_repeats; ++rep) {
        std::vector<double> x(static_cast<std::size_t>(n), 0.0);
        best = std::min(best, fn(x));
      }
      return best;
    };

    for (int workers : worker_sweep) {
      SolveControls opt;
      opt.method = SpdMethod::kAsyncRgs;
      opt.sweeps = n_sweeps;
      opt.seed = 1;
      opt.workers = workers;

      // --- free-running updates/second ----------------------------------
      // Two rows per worker count: the pre-PR2 legacy engine and the
      // current engine.
      for (bool current : {false, true}) {
        SolveControls run_opt = opt;
        run_opt.sync = SyncMode::kFreeRunning;
        const double secs = time_run([&](std::vector<double>& x) {
          const SolveOutcome r =
              current ? current_solve(x, run_opt)
                      : legacy::solve_free_running(pool, a, b, x, run_opt);
          return r.seconds;
        });
        Measurement m;
        m.workload = spec.name;
        m.engine = current ? "current" : "legacy";
        m.mode = "free_running";
        m.storage = current ? auto_storage : "int64_double";
        m.workers = workers;
        m.updates = static_cast<long long>(n_sweeps) * n;
        m.seconds = secs;
        m.updates_per_second = static_cast<double>(m.updates) / secs;
        results.push_back(m);
        table.add_row(
            {spec.name, std::to_string(workers), m.engine, m.mode,
             fmt_sci(m.updates_per_second),
             fmt_fixed(1e9 * secs / static_cast<double>(m.updates), 1), "-"});
      }

      // --- residual-check cost at synchronization points -----------------
      // Barrier-per-sweep with history tracking vs without: the difference
      // is what each sweep pays for the residual (serial on worker 0 in the
      // legacy engine, team-parallel in the current one).
      for (bool current : {false, true}) {
        SolveControls plain = opt;
        plain.sync = SyncMode::kBarrierPerSweep;
        SolveControls tracked = plain;
        tracked.track_history = true;
        const double secs_plain = time_run([&](std::vector<double>& x) {
          const SolveOutcome r =
              current ? current_solve(x, plain)
                      : legacy::solve_barrier(pool, a, b, x, plain);
          return r.seconds;
        });
        const double secs_tracked = time_run([&](std::vector<double>& x) {
          const SolveOutcome r =
              current ? current_solve(x, tracked)
                      : legacy::solve_barrier(pool, a, b, x, tracked);
          return r.seconds;
        });
        Measurement m;
        m.workload = spec.name;
        m.engine = current ? "current" : "legacy";
        m.mode = "barrier_residual";
        m.storage = current ? auto_storage : "int64_double";
        m.workers = workers;
        m.updates = static_cast<long long>(n_sweeps) * n;
        m.seconds = secs_tracked;
        m.updates_per_second = static_cast<double>(m.updates) / secs_tracked;
        m.residual_cost_per_sweep =
            std::max(0.0, (secs_tracked - secs_plain) / n_sweeps);
        results.push_back(m);
        table.add_row({spec.name, std::to_string(workers), m.engine, m.mode,
                       fmt_sci(m.updates_per_second),
                       fmt_fixed(1e9 * secs_tracked /
                                     static_cast<double>(m.updates),
                                 1),
                       fmt_sci(m.residual_cost_per_sweep)});
      }
    }

    // --- storage-policy sweep (schema v7) --------------------------------
    // Updates/second of the prepared handle under each CSR storage policy
    // at 1 worker (isolating the kernel's memory stream from scheduling
    // noise).  int32 halves the index bytes of every row scan —
    // docs/TUNING.md explains when it wins.
    {
      StoragePoint point;
      point.workload = spec.name;
      for (const StorageMode mode :
           {StorageMode::kInt64Double, StorageMode::kAuto}) {
        SpdProblem handle(pool, a, /*check_input=*/false, mode);
        SolveControls sc;
        sc.method = SpdMethod::kAsyncRgs;
        sc.sweeps = n_sweeps;
        sc.workers = 1;
        sc.seed = 1;
        const double secs = time_run([&](std::vector<double>& x) {
          return handle.solve(b, x, sc).seconds;
        });
        Measurement m;
        m.workload = spec.name;
        m.engine = "current";
        m.mode = "storage_policy";
        m.storage = to_string(handle.storage());
        m.workers = 1;
        m.updates = static_cast<long long>(n_sweeps) * n;
        m.seconds = secs;
        m.updates_per_second = static_cast<double>(m.updates) / secs;
        results.push_back(m);
        table.add_row({spec.name, "1", "current", "storage/" + m.storage,
                       fmt_sci(m.updates_per_second),
                       fmt_fixed(1e9 * secs / static_cast<double>(m.updates),
                                 1),
                       "-"});
        (handle.storage() == StoragePolicy::kInt64Double ? point.int64_ups
                                                         : point.int32_ups) =
            m.updates_per_second;
      }
      storage_points.push_back(std::move(point));
    }

    // --- sampling-policy sweep (schema v9) -------------------------------
    // Updates/second of the prepared handle under each direction
    // distribution, 1 worker, barrier-per-sweep on both Gram regimes.  Measures what the non-uniform draw path costs (alias-table
    // lookup per draw; periodic rebuild for the residual policy) — the
    // convergence side of the trade is docs/TUNING.md territory.
    {
      SpdProblem handle(pool, a, /*check_input=*/false);
      SamplingPoint point;
      point.workload = spec.name;
      struct PolicyRun {
        SamplingPolicy policy;
        const char* name;
      };
      for (const PolicyRun policy :
           {PolicyRun{SamplingPolicy::kUniform, "uniform"},
            PolicyRun{SamplingPolicy::kWeighted, "weighted"},
            PolicyRun{SamplingPolicy::kResidual, "residual"}}) {
        SolveControls sc;
        sc.method = SpdMethod::kAsyncRgs;
        sc.sweeps = n_sweeps;
        sc.workers = 1;
        sc.seed = 1;
        sc.sync = SyncMode::kBarrierPerSweep;
        sc.sampling = policy.policy;
        const double secs = time_run([&](std::vector<double>& x) {
          return handle.solve(b, x, sc).seconds;
        });
        Measurement m;
        m.workload = spec.name;
        m.engine = "current";
        m.mode = "sampling_policy";
        m.storage = auto_storage;
        m.sampling = policy.name;
        m.workers = 1;
        m.updates = static_cast<long long>(n_sweeps) * n;
        m.seconds = secs;
        m.updates_per_second = static_cast<double>(m.updates) / secs;
        results.push_back(m);
        table.add_row({spec.name, "1", "current",
                       std::string("sampling/") + policy.name,
                       fmt_sci(m.updates_per_second),
                       fmt_fixed(1e9 * secs / static_cast<double>(m.updates),
                                 1),
                       "-"});
        if (policy.policy == SamplingPolicy::kUniform)
          point.uniform_ups = m.updates_per_second;
        else if (policy.policy == SamplingPolicy::kWeighted)
          point.weighted_ups = m.updates_per_second;
        else
          point.residual_ups = m.updates_per_second;
      }
      sampling_points.push_back(std::move(point));
    }

    // --- asynchronous Kaczmarz on the rectangular factor (headline only) --
    // The row-action method served by LsqProblem, run on the m x n
    // document-term matrix F (the system the Gram workload squares away),
    // with never-used term columns compressed out — the corpus factor can
    // carry zero columns, which the handle's rank check rejects.  One
    // update projects onto a row hyperplane, so updates/second is
    // row-projections/second.  Uniform vs the Strohmer-Vershynin
    // norm-weighted draw under the identical budget.
    if (spec.name == workloads.front().name) {
      const CsrMatrix f = drop_empty_columns(system.factor).matrix;
      kaczmarz_rows = f.rows();
      kaczmarz_cols = f.cols();
      kaczmarz_nnz = f.nnz();
      LsqProblem lsq(pool, f);
      const std::vector<double> rhs =
          random_vector(f.rows(), 11);
      const int kz_sweeps = std::max(1, n_sweeps / 4);
      for (const SamplingPolicy policy :
           {SamplingPolicy::kUniform, SamplingPolicy::kWeighted}) {
        SolveControls sc;
        sc.method = SpdMethod::kAsyncKaczmarz;
        sc.sweeps = kz_sweeps;
        sc.workers = 1;
        sc.seed = 1;
        sc.sync = SyncMode::kBarrierPerSweep;
        sc.sampling = policy;
        double best = 1e300;
        for (int rep = 0; rep < n_repeats; ++rep) {
          std::vector<double> x(static_cast<std::size_t>(f.cols()), 0.0);
          best = std::min(best, lsq.solve(rhs, x, sc).seconds);
        }
        Measurement m;
        m.workload = spec.name;
        m.engine = "current";
        m.mode = "kaczmarz_row_action";
        m.storage = to_string(lsq.storage());
        m.sampling = policy == SamplingPolicy::kWeighted ? "weighted"
                                                         : "uniform";
        m.workers = 1;
        m.updates = static_cast<long long>(kz_sweeps) * f.rows();
        m.seconds = best;
        m.updates_per_second = static_cast<double>(m.updates) / best;
        results.push_back(m);
        table.add_row({spec.name, "1", "current",
                       std::string("kaczmarz/") + m.sampling,
                       fmt_sci(m.updates_per_second),
                       fmt_fixed(1e9 * best / static_cast<double>(m.updates),
                                 1),
                       "-"});
        if (policy == SamplingPolicy::kWeighted)
          kaczmarz_weighted_ups = m.updates_per_second;
        else
          kaczmarz_uniform_ups = m.updates_per_second;
      }
    }

    // --- cold vs prepared solve latency (headline workload only) -----------
    // The serving regime of Section 9: one operator, many short low-accuracy
    // solves.  "cold" constructs a fresh handle per solve — the cost profile
    // of the one-shot API — while "prepared" solves against a handle built
    // once.  1 worker, free-running, tiny sweep budget: the difference is
    // pure per-call preparation (validation compare, denominators,
    // scratch), not iteration throughput.  Both families' cold paths share
    // the matrix's transpose cache with the prepared handle (warm after its
    // construction), so the one-time transpose build is reported separately
    // as prepare_seconds rather than inside cold_seconds — see the ROADMAP
    // item for an uncached-cold variant.
    if (spec.name == workloads.front().name) {
      const auto record_amortization = [&](const char* family,
                                           AmortizationPoint& point,
                                           long long updates_per_solve,
                                           auto&& cold, auto&& cold_uncached,
                                           auto&& prepared) {
        // Every thunk receives the repetition index; the uncached-cold one
        // uses it to select a pre-built fresh matrix (construction of the
        // fresh matrices happens outside the timed region — the row
        // measures analysis cost, not CSR array copying).
        const auto time_solve = [&](auto&& fn) {
          double best = 1e300;
          for (int rep = 0; rep < n_repeats; ++rep) {
            WallTimer t;
            fn(rep);
            best = std::min(best, t.seconds());
          }
          return best;
        };
        point.cold_seconds = time_solve(cold);
        point.cold_uncached_seconds = time_solve(cold_uncached);
        point.prepared_seconds = time_solve(prepared);
        struct ApiRow {
          const char* api;
          double seconds;
        };
        for (const ApiRow row :
             {ApiRow{"cold", point.cold_seconds},
              ApiRow{"cold_uncached", point.cold_uncached_seconds},
              ApiRow{"prepared", point.prepared_seconds}}) {
          Measurement m;
          m.workload = spec.name;
          m.engine = "current";
          m.mode = "prepare_amortization";
          m.storage = auto_storage;
          m.workers = 1;
          m.updates = updates_per_solve;
          m.seconds = row.seconds;
          m.updates_per_second = static_cast<double>(m.updates) / m.seconds;
          m.api = row.api;
          m.family = family;
          results.push_back(m);
          table.add_row({spec.name, "1", "current",
                         std::string("prepare/") + m.api + "/" + family,
                         fmt_sci(m.updates_per_second),
                         fmt_fixed(1e9 * m.seconds /
                                       static_cast<double>(m.updates),
                                   1),
                         "-"});
        }
      };

      SolveControls amor;
      amor.method = SpdMethod::kAsyncRgs;
      amor.sweeps = amor_sweeps;
      amor.workers = 1;
      amor.sync = SyncMode::kFreeRunning;

      // Fresh matrices (cold transpose cache) for the uncached-cold rows:
      // identical arrays, new CsrMatrix identity per repetition.
      const auto fresh_copies = [&](const CsrMatrix& src) {
        std::vector<CsrMatrix> fresh;
        fresh.reserve(static_cast<std::size_t>(n_repeats));
        for (int rep = 0; rep < n_repeats; ++rep)
          fresh.emplace_back(src.rows(), src.cols(), src.row_ptr(),
                             src.col_idx(), src.values());
        return fresh;
      };

      {
        WallTimer prep;
        SpdProblem prepared(pool, a, /*check_input=*/true);
        amor_spd.prepare_seconds = prep.seconds();
        const std::vector<CsrMatrix> fresh = fresh_copies(a);
        std::vector<double> x(static_cast<std::size_t>(n));
        record_amortization(
            "spd", amor_spd, static_cast<long long>(amor_sweeps) * n,
            [&](int) {
              std::fill(x.begin(), x.end(), 0.0);
              SpdProblem cold(pool, a, /*check_input=*/true);
              cold.solve(b, x, amor);
            },
            [&](int rep) {
              std::fill(x.begin(), x.end(), 0.0);
              SpdProblem cold(pool, fresh[static_cast<std::size_t>(rep)],
                              /*check_input=*/true);
              cold.solve(b, x, amor);
            },
            [&](int) {
              std::fill(x.begin(), x.end(), 0.0);
              prepared.solve(b, x, amor);
            });
      }

      {
        // Least squares on the corpus' document-term factor.
        const ColumnCompression compressed =
            drop_empty_columns(system.factor);
        const CsrMatrix& f = compressed.matrix;
        const std::vector<double> bf = random_vector(f.rows(), 7);
        SolveControls lsq_amor = amor;
        lsq_amor.method = SpdMethod::kAuto;  // ignored by LsqProblem
        lsq_amor.step_size = 0.95;
        WallTimer prep;
        LsqProblem prepared(pool, f);
        amor_lsq.prepare_seconds = prep.seconds();
        const std::vector<CsrMatrix> fresh = fresh_copies(f);
        std::vector<double> xf(static_cast<std::size_t>(f.cols()));
        record_amortization(
            "lsq", amor_lsq,
            static_cast<long long>(amor_sweeps) * f.cols(),
            [&](int) {
              std::fill(xf.begin(), xf.end(), 0.0);
              LsqProblem cold(pool, f);
              cold.solve(bf, xf, lsq_amor);
            },
            [&](int rep) {
              std::fill(xf.begin(), xf.end(), 0.0);
              LsqProblem cold(pool, fresh[static_cast<std::size_t>(rep)]);
              cold.solve(bf, xf, lsq_amor);
            },
            [&](int) {
              std::fill(xf.begin(), xf.end(), 0.0);
              prepared.solve(bf, xf, lsq_amor);
            });
      }

      // --- sharded serving throughput (schema v5) ------------------------
      // Aggregate completed solves/second for a mixed SPD/LSQ request
      // stream through SolverService at 1 / 2 / 4 shards: the PR-5
      // trajectory metric.  Serving-sized budgets, free-running, 1 worker
      // per shard — multi-shard wins come from running independent
      // solves on independent pools, not from intra-solve teams.  On hosts
      // with fewer cores than shards the figures are oversubscribed
      // timeshare numbers (the standing ROADMAP caveat).
      {
        SolveControls serve_spd;
        serve_spd.sweeps = serve_sweeps;
        serve_spd.workers = 1;
        SolveControls serve_lsq = serve_spd;
        serve_lsq.step_size = 0.95;

        std::vector<std::vector<double>> request_rhs;
        request_rhs.reserve(static_cast<std::size_t>(serve_requests));
        for (int r = 0; r < serve_requests; ++r)
          request_rhs.push_back(
              random_vector(n, 1000 + static_cast<std::uint64_t>(r)));

        const int serve_repeats = std::min(n_repeats, *smoke ? 2 : 5);
        for (const int shard_count : {1, 2, 4}) {
          double best = 1e300;
          for (int rep = 0; rep < serve_repeats; ++rep) {
            ServiceOptions so;
            so.shards = shard_count;
            so.workers_per_shard = 1;
            so.prepare_lsq = true;
            so.check_input = true;
            SolverService service(a, so);  // untimed: prepare once
            std::vector<SolveTicket> tickets(
                static_cast<std::size_t>(serve_requests));
            WallTimer t;
            std::vector<std::thread> clients;
            for (int c = 0; c < serve_clients; ++c) {
              clients.emplace_back([&, c] {
                // Clients write disjoint ticket slots — no lock needed.
                for (int r = c; r < serve_requests; r += serve_clients) {
                  SolveControls req =
                      r % 2 == 0 ? serve_spd : serve_lsq;
                  req.seed = static_cast<std::uint64_t>(r + 1);
                  const std::vector<double>& rb =
                      request_rhs[static_cast<std::size_t>(r)];
                  tickets[static_cast<std::size_t>(r)] =
                      r % 2 == 0 ? service.submit(rb, req)
                                 : service.submit_least_squares(rb, req);
                }
              });
            }
            for (std::thread& ct : clients) ct.join();
            service.drain();
            best = std::min(best, t.seconds());
            // A throughput number for work that failed would be a lie:
            // every ticket must hold a completed budget run (no tolerance
            // is set, so anything else means a solve threw).
            for (SolveTicket& ticket : tickets) {
              const SolveOutcome& out = ticket.wait();  // rethrows errors
              if (out.status != SolveStatus::kBudgetCompleted) {
                std::cerr << "serving_throughput: unexpected outcome: "
                          << out.description << "\n";
                return 1;
              }
            }
          }
          ServingPoint point;
          point.shards = shard_count;
          point.seconds = best;
          point.solves_per_second =
              static_cast<double>(serve_requests) / best;
          serving.push_back(point);

          Measurement m;
          m.workload = spec.name;
          m.engine = "current";
          m.mode = "serving_throughput";
          m.storage = auto_storage;
          m.workers = 1;
          m.shards = shard_count;
          m.updates = static_cast<long long>(serve_requests) *
                      static_cast<long long>(serve_sweeps) * n;
          m.seconds = best;
          m.updates_per_second = static_cast<double>(m.updates) / best;
          m.solves_per_second = point.solves_per_second;
          results.push_back(m);
          table.add_row({spec.name, "1", "current",
                         "serving/" + std::to_string(shard_count) + "shards",
                         fmt_sci(m.updates_per_second),
                         fmt_fixed(1e9 * best /
                                       static_cast<double>(m.updates),
                                   1),
                         "-"});
        }

        // --- open-loop overload point (schema v6) ------------------------
        // Requests arrive on a fixed clock at ~2x the single-shard capacity
        // just measured, against a single-worker shard with a small
        // admission bound.  A well-behaved service sheds the excess as
        // kRejected and keeps the latency of what it *does* serve bounded
        // by (max_queue + 1) solve times; this row records both sides of
        // that trade (reject rate, served-latency tail).
        {
          ServiceOptions so;
          so.shards = 1;
          so.workers_per_shard = 1;
          so.max_queue = 4;
          so.check_input = true;
          SolverService service(a, so);
          const std::vector<double> ob = random_vector(n, 424242);

          // Calibrate the shard's service rate directly: sequential solves
          // with one outstanding request, so the figure is pure service
          // time (the closed-loop serving points above include client-side
          // submit/sync overhead and under-read capacity).
          double solve_seconds = 1e300;
          for (int rep = 0; rep < 5; ++rep) {
            SolveControls req = serve_spd;
            req.seed = 999'000 + static_cast<std::uint64_t>(rep);
            WallTimer t;
            service.submit(ob, req).wait();
            solve_seconds = std::min(solve_seconds, t.seconds());
          }
          overload.arrival_rate = 2.0 / solve_seconds;
          overload.duration_seconds = *smoke ? 0.25 : 1.0;
          const double period = 1.0 / overload.arrival_rate;
          std::vector<SolveTicket> tickets;
          const auto start = std::chrono::steady_clock::now();
          for (int r = 0;; ++r) {
            const double target = static_cast<double>(r) * period;
            if (target >= overload.duration_seconds) break;
            std::this_thread::sleep_until(
                start +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(target)));
            SolveControls req = serve_spd;
            req.seed = static_cast<std::uint64_t>(r + 1);
            tickets.push_back(service.submit(ob, req));
          }
          service.drain();
          for (SolveTicket& ticket : tickets) {
            const SolveOutcome& out = ticket.wait();
            if (out.status != SolveStatus::kBudgetCompleted &&
                out.status != SolveStatus::kRejected) {
              std::cerr << "serving_overload: unexpected outcome: "
                        << out.description << "\n";
              return 1;
            }
          }
          const ServiceStats stats = service.stats();
          overload.offered = static_cast<long long>(tickets.size());
          overload.rejected = stats.rejected + stats.shed_deadline;
          overload.reject_rate =
              overload.offered > 0
                  ? static_cast<double>(overload.rejected) /
                        static_cast<double>(overload.offered)
                  : 0.0;
          overload.p50_seconds = stats.latency.p50();
          overload.p99_seconds = stats.latency.p99();
          table.add_row(
              {spec.name, "1", "current", "serving/overload", "-", "-", "-"});
        }
      }
    }
  }
  table.print(std::cout);

  // --- locality workload: partitioned scheduling at Laplacian scale --------
  // A million-row 2D grid Laplacian (ROADMAP's graph-Laplacian-scale
  // target; --smoke shrinks the grid), prepared-handle AsyRGS throughput:
  // unpartitioned baseline vs RCM-partitioned scheduling with a few percent
  // of halo stealing, free-running, at the headline worker count.  On
  // single-core (timeshared) hosts the cache-locality win is muted — the
  // point records the ratio either way, plus the one-time analysis cost.
  const index_t lap_nx = *smoke ? 96 : 1024;
  const CsrMatrix lap_a = laplacian_2d(lap_nx, lap_nx);
  const int lap_partitions = 8;
  const double lap_steal = 0.05;
  const int lap_workers = static_cast<int>(*headline);
  const int lap_sweeps = *smoke ? 2 : 8;
  double lap_base_ups = 0.0, lap_part_ups = 0.0, lap_prepare_seconds = 0.0;
  {
    SpdProblem handle(pool, lap_a, /*check_input=*/false);
    const std::vector<double> lap_b = random_vector(lap_a.rows(), 77);
    SolveControls lap_controls;
    lap_controls.method = SpdMethod::kAsyncRgs;
    lap_controls.sweeps = lap_sweeps;
    lap_controls.workers = lap_workers;
    lap_controls.sync = SyncMode::kFreeRunning;
    std::vector<double> lap_x(static_cast<std::size_t>(lap_a.rows()), 0.0);
    for (int rep = 0; rep < n_repeats; ++rep) {
      std::fill(lap_x.begin(), lap_x.end(), 0.0);
      const SolveOutcome out = handle.solve(lap_b, lap_x, lap_controls);
      lap_base_ups = std::max(
          lap_base_ups, static_cast<double>(out.updates) / out.seconds);
    }
    WallTimer lap_prepare_timer;
    handle.prepare_partitions();
    lap_prepare_seconds = lap_prepare_timer.seconds();
    lap_controls.partitions = lap_partitions;
    lap_controls.steal_rate = lap_steal;
    for (int rep = 0; rep < n_repeats; ++rep) {
      std::fill(lap_x.begin(), lap_x.end(), 0.0);
      const SolveOutcome out = handle.solve(lap_b, lap_x, lap_controls);
      lap_part_ups = std::max(
          lap_part_ups, static_cast<double>(out.updates) / out.seconds);
    }
  }
  const double lap_speedup =
      lap_base_ups > 0.0 ? lap_part_ups / lap_base_ups : 0.0;

  // --- headline ratio ----------------------------------------------------
  const std::string headline_workload = workloads.front().name;
  double legacy_ups = 0.0, current_ups = 0.0;
  for (const Measurement& m : results) {
    if (m.workload != headline_workload || m.mode != "free_running" ||
        m.workers != *headline)
      continue;
    (m.engine == "current" ? current_ups : legacy_ups) = m.updates_per_second;
  }
  const double speedup = legacy_ups > 0.0 ? current_ups / legacy_ups : 0.0;
  std::cout << "# headline (" << headline_workload << ", free-running, "
            << *headline << " workers): legacy=" << fmt_sci(legacy_ups)
            << " current=" << fmt_sci(current_ups)
            << " speedup=" << fmt_fixed(speedup, 2) << "x\n";

  // --- storage headline ----------------------------------------------------
  // Per-policy prepared-handle throughput on both Gram regimes.  The int32
  // speedup is pure index bandwidth.
  for (const StoragePoint& p : storage_points) {
    std::cout << "# storage headline (" << p.workload
              << ", free-running, 1 worker): int64_double="
              << fmt_sci(p.int64_ups)
              << " int32_double=" << fmt_sci(p.int32_ups) << " ("
              << fmt_fixed(p.int64_ups > 0 ? p.int32_ups / p.int64_ups : 0.0,
                           2)
              << "x)\n";
  }

  // --- sampling headline ----------------------------------------------------
  // Draw-path cost of the non-uniform policies on both Gram regimes
  // (1 worker, barrier-per-sweep).  Ratios < 1 are pure sampling
  // overhead per update; the convergence payoff is workload-dependent.
  for (const SamplingPoint& p : sampling_points) {
    std::cout << "# sampling headline (" << p.workload
              << ", barrier, 1 worker): uniform="
              << fmt_sci(p.uniform_ups)
              << " weighted=" << fmt_sci(p.weighted_ups) << " ("
              << fmt_fixed(
                     p.uniform_ups > 0 ? p.weighted_ups / p.uniform_ups : 0.0,
                     2)
              << "x) residual=" << fmt_sci(p.residual_ups) << " ("
              << fmt_fixed(
                     p.uniform_ups > 0 ? p.residual_ups / p.uniform_ups : 0.0,
                     2)
              << "x)\n";
  }

  // --- kaczmarz headline ----------------------------------------------------
  std::cout << "# kaczmarz headline (row action on the " << kaczmarz_rows
            << "x" << kaczmarz_cols << " factor, " << kaczmarz_nnz
            << " nnz, barrier, 1 worker): uniform="
            << fmt_sci(kaczmarz_uniform_ups)
            << " weighted=" << fmt_sci(kaczmarz_weighted_ups)
            << " row-projections/s ("
            << fmt_fixed(kaczmarz_uniform_ups > 0
                             ? kaczmarz_weighted_ups / kaczmarz_uniform_ups
                             : 0.0,
                         2)
            << "x)\n";

  // --- prepare-amortization headline ---------------------------------------
  // Cold (construct-and-solve, the one-shot API's cost profile) vs prepared
  // (solve on a pre-built handle), per solve, at a serving-sized sweep
  // budget.  The PR-4 trajectory metric.
  std::cout << "# prepare headline (" << headline_workload << ", "
            << amor_sweeps << " sweeps, 1 worker): spd cold="
            << fmt_sci(amor_spd.cold_seconds) << "s uncached="
            << fmt_sci(amor_spd.cold_uncached_seconds) << "s prepared="
            << fmt_sci(amor_spd.prepared_seconds) << "s speedup="
            << fmt_fixed(amor_spd.speedup(), 2) << "x (uncached "
            << fmt_fixed(amor_spd.uncached_speedup(), 2) << "x); lsq cold="
            << fmt_sci(amor_lsq.cold_seconds) << "s uncached="
            << fmt_sci(amor_lsq.cold_uncached_seconds) << "s prepared="
            << fmt_sci(amor_lsq.prepared_seconds) << "s speedup="
            << fmt_fixed(amor_lsq.speedup(), 2) << "x (uncached "
            << fmt_fixed(amor_lsq.uncached_speedup(), 2) << "x)\n";

  // --- serving-throughput headline ----------------------------------------
  // Mixed SPD/LSQ stream through SolverService at 1/2/4 shards.  The
  // tracked ratio is the best *multi-shard* point over the single-shard
  // baseline — the 1-shard point is deliberately excluded from the best
  // search so a sharding regression records as < 1.0 instead of being
  // clamped to 1.0 (>= 1 expected on multi-core hosts; timeshare-limited
  // below 1 on fewer cores).
  double serve_single = 0.0, serve_best = 0.0;
  int serve_best_shards = 0;
  for (const ServingPoint& p : serving) {
    if (p.shards == 1) {
      serve_single = p.solves_per_second;
    } else if (p.solves_per_second > serve_best) {
      serve_best = p.solves_per_second;
      serve_best_shards = p.shards;
    }
  }
  const double serve_speedup =
      serve_single > 0.0 && serve_best > 0.0 ? serve_best / serve_single
                                             : 0.0;
  std::cout << "# serving headline (" << headline_workload << ", "
            << serve_requests << " requests, " << serve_sweeps
            << " sweeps, mixed spd/lsq, " << serve_clients
            << " clients): ";
  for (const ServingPoint& p : serving)
    std::cout << p.shards << "-shard=" << fmt_sci(p.solves_per_second)
              << " solves/s ";
  std::cout << "best multi-shard=" << serve_best_shards << " ("
            << fmt_fixed(serve_speedup, 2) << "x vs single)\n";

  // --- overload headline ---------------------------------------------------
  // Open-loop arrivals at ~2x single-shard capacity, max_queue=4: how much
  // load the service sheds and what latency the served share saw.
  std::cout << "# overload headline (" << headline_workload
            << ", 1 shard, open loop " << fmt_fixed(overload.arrival_rate, 1)
            << "/s for " << overload.duration_seconds << "s, max_queue=4): "
            << "offered=" << overload.offered
            << " rejected=" << overload.rejected << " (reject rate "
            << fmt_fixed(overload.reject_rate, 2) << ") served p50="
            << fmt_sci(overload.p50_seconds) << "s p99="
            << fmt_sci(overload.p99_seconds) << "s\n";

  // --- locality headline ---------------------------------------------------
  // Partitioned vs unpartitioned scheduling on the grid Laplacian; the
  // tracked ratio is the PR-10 locality trajectory metric.
  std::cout << "# locality headline (laplacian_2d " << lap_nx << "x" << lap_nx
            << ", n=" << lap_a.rows() << ", free-running, " << lap_workers
            << " workers): baseline=" << fmt_sci(lap_base_ups)
            << " partitioned[" << lap_partitions << ", steal "
            << fmt_fixed(lap_steal, 2) << "]=" << fmt_sci(lap_part_ups)
            << " updates/s (speedup " << fmt_fixed(lap_speedup, 2)
            << "x, analysis " << fmt_sci(lap_prepare_seconds) << "s)\n";

  // --- JSON --------------------------------------------------------------
  const std::string path =
      (*out_path).empty() ? "BENCH_" + *label + ".json" : *out_path;
  std::ofstream json(path);
  json << "{\n"
       << "  \"schema_version\": 11,\n"
       << "  \"bench\": \"bench_updates\",\n"
       << "  \"label\": \"" << json_escape(*label) << "\",\n"
       << "  \"git\": \"" << json_escape(*git_rev) << "\",\n"
       << "  \"smoke\": " << (*smoke ? "true" : "false") << ",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"sweeps\": " << n_sweeps << ",\n"
       << "  \"repeats\": " << n_repeats << ",\n"
       << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const WorkloadSpec& w = workloads[i];
    json << "    {\"name\": \"" << w.name << "\", \"kind\": \"social_gram\""
         << ", \"terms\": " << w.gram.terms
         << ", \"documents\": " << w.gram.documents
         << ", \"mean_doc_length\": " << w.gram.mean_doc_length
         << ", \"n\": " << w.n << ", \"nnz\": " << w.nnz << "}"
         << (i + 1 < workloads.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    json << "    {\"workload\": \"" << m.workload << "\", \"engine\": \""
         << m.engine << "\", \"mode\": \"" << m.mode
         << "\", \"storage\": \"" << m.storage
         << "\", \"workers\": " << m.workers
         << ", \"updates\": " << m.updates
         << ", \"seconds\": " << m.seconds
         << ", \"updates_per_second\": " << m.updates_per_second;
    if (!m.sampling.empty())
      json << ", \"sampling\": \"" << m.sampling << "\"";
    if (m.mode == "barrier_residual")
      json << ", \"residual_cost_per_sweep_seconds\": "
           << m.residual_cost_per_sweep;
    if (m.mode == "prepare_amortization")
      json << ", \"api\": \"" << m.api << "\", \"family\": \"" << m.family
           << "\"";
    if (m.mode == "serving_throughput")
      json << ", \"shards\": " << m.shards
           << ", \"solves_per_second\": " << m.solves_per_second;
    json << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"headline\": {\"workload\": \"" << headline_workload
       << "\", \"mode\": \"free_running\", \"workers\": " << *headline
       << ", \"legacy_updates_per_second\": " << legacy_ups
       << ", \"current_updates_per_second\": " << current_ups
       << ", \"speedup\": " << speedup << "},\n"
       << "  \"storage_headline\": [\n";
  for (std::size_t i = 0; i < storage_points.size(); ++i) {
    const StoragePoint& p = storage_points[i];
    json << "    {\"workload\": \"" << p.workload << "\", \"workers\": 1"
         << ", \"int64_double_updates_per_second\": " << p.int64_ups
         << ", \"int32_double_updates_per_second\": " << p.int32_ups
         << ", \"int32_speedup\": "
         << (p.int64_ups > 0.0 ? p.int32_ups / p.int64_ups : 0.0) << "}"
         << (i + 1 < storage_points.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"sampling_headline\": [\n";
  for (std::size_t i = 0; i < sampling_points.size(); ++i) {
    const SamplingPoint& p = sampling_points[i];
    json << "    {\"workload\": \"" << p.workload
         << "\", \"mode\": \"barrier_per_sweep\", \"workers\": 1"
         << ", \"uniform_updates_per_second\": " << p.uniform_ups
         << ", \"weighted_updates_per_second\": " << p.weighted_ups
         << ", \"residual_updates_per_second\": " << p.residual_ups
         << ", \"weighted_ratio\": "
         << (p.uniform_ups > 0.0 ? p.weighted_ups / p.uniform_ups : 0.0)
         << ", \"residual_ratio\": "
         << (p.uniform_ups > 0.0 ? p.residual_ups / p.uniform_ups : 0.0)
         << "}" << (i + 1 < sampling_points.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"kaczmarz_headline\": {\"workload\": \"" << headline_workload
       << "\", \"rows\": " << kaczmarz_rows
       << ", \"cols\": " << kaczmarz_cols << ", \"nnz\": " << kaczmarz_nnz
       << ", \"mode\": \"barrier_per_sweep\", \"workers\": 1"
       << ", \"uniform_updates_per_second\": " << kaczmarz_uniform_ups
       << ", \"weighted_updates_per_second\": " << kaczmarz_weighted_ups
       << ", \"weighted_ratio\": "
       << (kaczmarz_uniform_ups > 0.0
               ? kaczmarz_weighted_ups / kaczmarz_uniform_ups
               : 0.0)
       << "},\n"
       << "  \"locality_headline\": {\"workload\": \"laplacian_2d\""
       << ", \"nx\": " << lap_nx << ", \"n\": " << lap_a.rows()
       << ", \"nnz\": " << lap_a.nnz()
       << ", \"mode\": \"free_running\", \"workers\": " << lap_workers
       << ", \"partitions\": " << lap_partitions
       << ", \"steal_rate\": " << lap_steal
       << ", \"analysis_seconds\": " << lap_prepare_seconds
       << ", \"baseline_updates_per_second\": " << lap_base_ups
       << ", \"partitioned_updates_per_second\": " << lap_part_ups
       << ", \"speedup\": " << lap_speedup << "},\n"
       << "  \"prepare_amortization\": {\"workload\": \"" << headline_workload
       << "\", \"mode\": \"free_running\", \"workers\": 1"
       << ", \"sweeps\": " << amor_sweeps << ",\n"
       << "    \"spd\": {\"prepare_seconds\": " << amor_spd.prepare_seconds
       << ", \"cold_seconds_per_solve\": " << amor_spd.cold_seconds
       << ", \"cold_uncached_seconds_per_solve\": "
       << amor_spd.cold_uncached_seconds
       << ", \"prepared_seconds_per_solve\": " << amor_spd.prepared_seconds
       << ", \"speedup\": " << amor_spd.speedup()
       << ", \"uncached_speedup\": " << amor_spd.uncached_speedup() << "},\n"
       << "    \"lsq\": {\"prepare_seconds\": " << amor_lsq.prepare_seconds
       << ", \"cold_seconds_per_solve\": " << amor_lsq.cold_seconds
       << ", \"cold_uncached_seconds_per_solve\": "
       << amor_lsq.cold_uncached_seconds
       << ", \"prepared_seconds_per_solve\": " << amor_lsq.prepared_seconds
       << ", \"speedup\": " << amor_lsq.speedup()
       << ", \"uncached_speedup\": " << amor_lsq.uncached_speedup()
       << "}},\n"
       << "  \"serving_throughput\": {\"workload\": \"" << headline_workload
       << "\", \"mix\": \"spd+lsq\", \"requests\": " << serve_requests
       << ", \"sweeps\": " << serve_sweeps
       << ", \"clients\": " << serve_clients
       << ", \"workers_per_shard\": 1,\n"
       << "    \"points\": [";
  for (std::size_t i = 0; i < serving.size(); ++i)
    json << (i > 0 ? ", " : "") << "{\"shards\": " << serving[i].shards
         << ", \"seconds\": " << serving[i].seconds
         << ", \"solves_per_second\": " << serving[i].solves_per_second
         << "}";
  json << "],\n"
       << "    \"best_multi_shards\": " << serve_best_shards
       << ", \"speedup_vs_single\": " << serve_speedup << ",\n"
       << "    \"overload\": {\"arrival_rate\": " << overload.arrival_rate
       << ", \"duration_seconds\": " << overload.duration_seconds
       << ", \"max_queue\": 4"
       << ", \"offered\": " << overload.offered
       << ", \"rejected\": " << overload.rejected
       << ", \"reject_rate\": " << overload.reject_rate
       << ", \"served_p50_seconds\": " << overload.p50_seconds
       << ", \"served_p99_seconds\": " << overload.p99_seconds << "}}\n"
       << "}\n";
  std::cout << "# wrote " << path << "\n";
  return 0;
}
