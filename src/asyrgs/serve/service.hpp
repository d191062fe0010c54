// SolverService: sharded multi-pool serving front-end.
//
// The prepared handles (asyrgs/problem.hpp) amortize per-matrix analysis
// across repeated solves, but one handle serializes concurrent solve()
// calls through its single ThreadPool — fine for a request loop, a ceiling
// for the paper's motivating workload of *many concurrent* solves against
// one operator (Section 9: one matrix, a stream of right-hand sides).
// SolverService lifts that ceiling the way the paper's analysis says it
// should scale: independent solves have no shared mutable state beyond the
// immutable matrix, so N pools can run N solves truly in parallel.
//
//   SolverService service(a, {.shards = 4, .prepare_lsq = true});
//   SolveTicket t = service.submit(b);            // returns immediately
//   const SolveOutcome& out = t.wait();           // blocks for completion
//   const std::vector<double>& x = t.solution();
//
// Architecture: the service owns `shards` ThreadPools; each shard carries
// its own prepared SpdProblem / LsqProblem handle, shard-cloned from shard
// 0's so the per-matrix analysis (symmetry validation, diagonal
// reciprocals, compact storage, the partition analysis, and for least
// squares the transpose and column-norm denominators) is paid
// at most once for the whole service (ProblemStats on the clones stay at
// zero validation passes and transpose builds; ServiceStats sums the
// compact and partition builds, each at most 1).  Requests enter
// per-priority FIFO queues; every free shard pulls the oldest request of
// the most urgent non-empty class, so work always lands on a least-loaded
// (idle) shard and queues only when all shards are busy.
//
// Admission and shedding: the queue is bounded by ServiceOptions::max_queue.
// A request that cannot be admitted — queue full, or submit racing
// shutdown — is NOT an error: submit() still returns a valid ticket, which
// resolves immediately to SolveStatus::kRejected.  A queued request whose
// RequestOptions::deadline_seconds expires before a shard picks it up is
// shed the same way and never executes.  Only *malformed* requests (wrong
// rhs shape, non-finite rhs or warm start, family not prepared) throw from
// submit(), eagerly, on the caller's thread.
//
// Warm starts: the submit() overloads taking `x0` start the iteration from
// a caller-supplied iterate instead of zero — the re-solve pattern where a
// client's right-hand side drifts between requests and the previous
// solution is an excellent initial guess (Section 9's stream of related
// systems).
//
// Observability: stats() aggregates per-shard latency histograms
// (p50/p95/p99 of enqueue-to-done request latency), queue depth high-water,
// and reject/shed counters; ServiceOptions::trace attaches a per-request
// structured trace sink (serve/metrics.hpp).
//
// Determinism: a request with fixed SolveControls (seed, workers)
// produces a bit-identical result on whichever shard runs it — all
// shards hold clones of the same analysis against the same matrix.  Within
// one priority class requests execute in FIFO order.  NOTE on auto worker
// sizing: when `workers_per_shard` is 0 the hardware threads are divided
// across shards with the remainder spread over the first `hw % shards`
// shards, so shard pools may differ in size by one — pin
// SolveControls::workers (or set workers_per_shard explicitly) when
// bit-identity across shard placements matters.  Gated by
// tests/test_service.cpp.
//
// Thread-safety: submit_*(), drain(), and stats() may be called
// concurrently from any number of client threads.  A SolveTicket is a
// value handle to shared state; wait()/solution() may be called from any
// thread (one at a time per ticket).  The bound CsrMatrix must outlive the
// service.  Destruction drains: every admitted request is completed (or
// shed at its deadline) before the destructor returns, and a submit racing
// shutdown resolves its ticket to kRejected instead of throwing.
#pragma once

#include <memory>
#include <vector>

#include "asyrgs/linalg/multivector.hpp"
#include "asyrgs/problem.hpp"
#include "asyrgs/serve/metrics.hpp"
#include "asyrgs/sparse/csr.hpp"

namespace asyrgs {

namespace detail {
struct TicketState;   // request + result + completion latch (service.cpp)
struct ServiceImpl;   // shards, queues, dispatcher threads (service.cpp)
}  // namespace detail

/// Number of distinct RequestOptions::priority classes (0 .. kPriorityClasses
/// - 1); out-of-range priorities clamp.
inline constexpr int kPriorityClasses = 3;

/// Per-service configuration, fixed at construction.
struct ServiceOptions {
  /// Number of pool shards (concurrent solve lanes).  Each shard owns a
  /// ThreadPool of `workers_per_shard` threads and prepared handle clones.
  int shards = 2;
  /// Team capacity of each shard's pool.  0 = auto: hardware_concurrency()
  /// divided across the shards, first `hw % shards` shards getting one
  /// extra thread — which makes auto-sized pools *unequal* when shards does
  /// not divide the hardware threads.  Keep it explicit when bit-identical
  /// results across services with different shard counts matter (see the
  /// determinism note above).
  int workers_per_shard = 0;
  /// Admission bound: maximum requests waiting for a shard (not counting
  /// the ones executing).  0 = unbounded (the pre-admission-control
  /// behavior).  A submit that finds all `max_queue` slots taken resolves
  /// its ticket to SolveStatus::kRejected instead of queueing.
  int max_queue = 0;
  /// Prepare SPD handles (required for submit / submit_block).
  bool prepare_spd = true;
  /// Prepare least-squares handles (required for submit_least_squares).
  /// Off by default: it materializes A^T, once for the service, at the
  /// handles' storage width.
  bool prepare_lsq = false;
  /// Validate symmetry at construction (SPD family; shard 0 only — clones
  /// reuse the verdict).
  bool check_input = true;
  /// CSR storage policy request for the prepared handles (see StorageMode /
  /// resolve_storage_policy in asyrgs/problem.hpp).  The shards share one
  /// compact copy, so a service pays the narrowing pass at most once
  /// regardless of shard count.  The resolved policy is visible in
  /// ShardStats (ProblemStats::storage), each outcome's
  /// SolveOutcome::storage_used, and the trace events.
  StorageMode storage = StorageMode::kAuto;
  /// Declares which operator the SPD requests read, and so which one the
  /// service builds at construction (SpdProblem's hook-or-first-use rule).
  /// true: the RCM partition analysis (SpdProblem::prepare_partitions), so
  /// requests with SolveControls::partitions != 0 never pay the
  /// O(nnz log nnz) analysis on the serving path; the compact natural-order
  /// copy is then built only if a request that reads it arrives (an
  /// unpartitioned asynchronous, FCG or block solve).  false (default): the
  /// compact copy (SpdProblem::prepare_compact), and the first partitioned
  /// request builds the analysis.  Either way the shards share one slot per
  /// operator, so each is built at most once per service, by whichever
  /// shard needs it first (ServiceStats::compact_builds / partition_builds).
  bool prepare_partitions = false;
  /// Optional per-request trace sink (one structured event per completed or
  /// rejected request); shared so one sink can serve several services.
  /// Must be internally synchronized (JsonTraceSink is).
  std::shared_ptr<TraceSink> trace;
};

/// Per-request serving metadata, separate from the solver-facing
/// SolveControls: how the *queue* should treat this request.
struct RequestOptions {
  /// Priority class: 0 is most urgent, kPriorityClasses - 1 least (values
  /// clamp into range).  The queue is FIFO within a class; a free shard
  /// always takes the oldest request of the most urgent non-empty class.
  int priority = 1;
  /// Deadline measured from submission, in seconds; 0 (or negative)
  /// disables it, and so does one the steady clock cannot represent from
  /// the submission time (beyond about 9.2e9 s, or +inf): such a request
  /// never expires.  A request still *queued* when its deadline passes is
  /// shed with SolveStatus::kRejected and never executes.  A request
  /// already running is never aborted (solves are short; aborting
  /// mid-iteration would forfeit the paper's convergence guarantees).
  double deadline_seconds = 0.0;
};

/// Future-like handle to one submitted solve.  Cheap to copy (shared
/// state); default-constructed tickets are invalid until assigned.
class SolveTicket {
 public:
  SolveTicket() = default;

  /// True when this ticket refers to a submitted request.
  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// True once the request has completed (never blocks).  Rejected
  /// requests complete immediately at submit().
  [[nodiscard]] bool done() const;

  /// Blocks until the request completes and returns the outcome.  A solve
  /// that threw (e.g. shape mismatch discovered on the shard) rethrows the
  /// exception here — and on every later wait()/solution() call.  A
  /// rejected or shed request does NOT throw: its outcome carries
  /// SolveStatus::kRejected and a `description` naming the reason.
  const SolveOutcome& wait();

  /// The solution vector (SPD single / least-squares requests); blocks like
  /// wait().  Valid until the last ticket copy is destroyed.  For a
  /// rejected request this is the untouched initial iterate (zeros, or the
  /// caller's x0).
  [[nodiscard]] const std::vector<double>& solution();

  /// The block solution (submit_block requests); blocks like wait().
  [[nodiscard]] const MultiVector& block_solution();

  /// Index of the shard that executed the request (blocks like wait());
  /// -1 for rejected/shed requests, which never reach a shard.  Exposed
  /// for tests and load diagnostics.
  [[nodiscard]] int shard();

 private:
  friend class SolverService;
  explicit SolveTicket(std::shared_ptr<detail::TicketState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::TicketState> state_;
};

/// Per-shard serving counters, exposed through ServiceStats.
struct ShardStats {
  long long served = 0;  ///< requests this shard completed
  int workers = 0;       ///< this shard's pool size (auto mode may differ ±1)
  /// Enqueue-to-done latency of requests this shard served (log-spaced
  /// bins; see serve/metrics.hpp).  Queue wait is included — that is the
  /// latency a client observes.
  LatencyHistogram latency;
  ProblemStats spd;      ///< the shard's SpdProblem counters (if prepared)
  ProblemStats lsq;      ///< the shard's LsqProblem counters (if prepared)
};

/// Aggregated service counters; a consistent snapshot at the time of the
/// stats() call.  Invariant (checked under the stats mutex):
/// submitted == completed + queued + in_flight, where completed includes
/// rejected and shed requests.
struct ServiceStats {
  long long submitted = 0;  ///< tickets issued (admitted or not)
  long long completed = 0;  ///< tickets resolved (incl. failed/rejected/shed)
  long long queued = 0;     ///< requests currently waiting for a shard
  /// Requests picked up but not yet resolved: executing on a shard, or (for
  /// a microseconds-long window) having their rejection/shed outcome
  /// finalized.
  long long in_flight = 0;
  /// Requests refused at submit (queue at max_queue, or racing shutdown).
  long long rejected = 0;
  /// Admitted requests shed unexecuted because their deadline expired in
  /// the queue.  Disjoint from `rejected`; both resolve as kRejected.
  long long shed_deadline = 0;
  /// Largest queue depth ever observed (admission high-water mark — the
  /// number to compare against max_queue when sizing it).
  long long queue_high_water = 0;
  /// Enqueue-to-done latency over every executed request (merge of the
  /// per-shard histograms; rejected/shed requests are not recorded).
  LatencyHistogram latency;
  /// Validation passes summed over every shard's handles — stays at the
  /// shard-0 construction count (1 per prepared family) because clones
  /// re-validate nothing.
  int validation_passes = 0;
  /// Transpose builds summed over every shard's handles: 1 with
  /// prepare_lsq (shard 0's LSQ handle builds it, its clones share it),
  /// else 0.  The SPD symmetry check builds none.
  int transpose_builds = 0;
  /// Partition analyses and compact natural-order copies built, summed over
  /// every shard's SPD handle — each at most 1, because the shards share
  /// one slot per operator whichever shard fills it.
  int partition_builds = 0;
  int compact_builds = 0;
  std::vector<ShardStats> shards;
};

/// Sharded serving front-end: N ThreadPool shards, each with prepared
/// handle clones of one analyzed matrix, fed from bounded per-priority
/// FIFO queues.  See the header comment for architecture, admission,
/// determinism, and thread-safety; docs/API.md for the lifecycle contract.
class SolverService {
 public:
  /// Prepares shard 0's handles against `a` (full analysis) and shard
  /// clones for the rest, then starts one dispatcher thread per shard.
  /// Throws asyrgs::Error on malformed input (same checks as the handle
  /// constructors) or when no family is enabled.  `a` is kept by
  /// reference and must outlive the service.
  explicit SolverService(const CsrMatrix& a, ServiceOptions options = {});

  /// Drains the queues (every admitted request completes or is shed at its
  /// deadline), then stops and joins the dispatcher threads (shutdown()).
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Enqueues an SPD solve A x = b from x = 0; returns immediately.
  /// Requires ServiceOptions::prepare_spd.  The right-hand side is moved
  /// into the ticket, so the caller's buffer is not referenced afterwards.
  /// Throws on malformed requests; resolves the ticket to kRejected (never
  /// throws) when the queue is full or the service is shutting down.
  SolveTicket submit(std::vector<double> b, SolveControls controls = {},
                     RequestOptions request = {});

  /// Warm-start overload: starts the iteration from `x0` (size = rows)
  /// instead of zero.  For a client re-solving against a drifting
  /// right-hand side, passing the previous solution typically converges in
  /// far fewer sweeps (tests/test_service.cpp pins this).
  SolveTicket submit(std::vector<double> b, std::vector<double> x0,
                     SolveControls controls = {}, RequestOptions request = {});

  /// Enqueues a block SPD solve A X = B from X = 0 (asynchronous method
  /// only, as SpdProblem::solve(MultiVector)).  Requires prepare_spd.
  SolveTicket submit_block(MultiVector b, SolveControls controls = {},
                           RequestOptions request = {});

  /// Enqueues a least-squares solve min ||A x - b|| from x = 0.  Requires
  /// ServiceOptions::prepare_lsq.
  SolveTicket submit_least_squares(std::vector<double> b,
                                   SolveControls controls = {},
                                   RequestOptions request = {});

  /// Warm-start least-squares overload (`x0` size = cols).
  SolveTicket submit_least_squares(std::vector<double> b,
                                   std::vector<double> x0,
                                   SolveControls controls = {},
                                   RequestOptions request = {});

  /// Blocks until every request submitted so far has completed (rejected
  /// requests are already complete; queued ones may complete by deadline
  /// shed).
  void drain();

  /// Stops accepting work, drains what was already admitted, and joins the
  /// dispatcher threads.  Idempotent and safe to call concurrently with
  /// submit_* from other threads: submits that lose the race resolve their
  /// ticket to kRejected ("service shutting down") — this is how "submit
  /// racing shutdown" stays a well-defined serving state rather than a
  /// lifetime bug (destroying the object while other threads still call
  /// into it is UB, as for any object; shut down first, then destroy).
  /// The destructor calls this.
  void shutdown();

  [[nodiscard]] int shards() const noexcept;
  /// Shard 0's pool size.  With explicit ServiceOptions::workers_per_shard
  /// every shard matches; in auto mode shard 0 is the largest (remainder
  /// threads go to the lowest-indexed shards) — see ShardStats::workers for
  /// the full distribution.
  [[nodiscard]] int workers_per_shard() const noexcept;
  [[nodiscard]] const CsrMatrix& matrix() const noexcept;
  [[nodiscard]] ServiceStats stats() const;

 private:
  SolveTicket enqueue(std::shared_ptr<detail::TicketState> state,
                      const RequestOptions& request);

  std::unique_ptr<detail::ServiceImpl> impl_;
};

}  // namespace asyrgs
