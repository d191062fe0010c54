#include "asyrgs/serve/service.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "asyrgs/support/thread_pool.hpp"

namespace asyrgs {

namespace detail {

using ServiceClock = std::chrono::steady_clock;

/// One submitted request: inputs, the slot the shard writes results into,
/// and a completion latch.  Shared between the client's SolveTicket copies
/// and the service queue; whichever thread completes the request writes
/// results *before* setting `completed` under the mutex, so any reader that
/// observed completion also observes the results (no further
/// synchronization needed on the payload).
struct TicketState {
  enum class Kind { kSpd, kSpdBlock, kLsq };

  Kind kind = Kind::kSpd;
  SolveControls controls;
  std::vector<double> b;
  MultiVector b_block;
  bool warm_start = false;  // x was seeded from a caller-supplied iterate

  // Queue metadata (written once at submit, read by the dispatcher).
  long long request_id = 0;
  int priority = 1;
  ServiceClock::time_point enqueue_tp{};
  ServiceClock::time_point deadline_tp{};
  bool has_deadline = false;
  ServiceClock::time_point start_tp{};
  bool started = false;
  ServiceClock::time_point done_tp{};

  std::vector<double> x;  // initial iterate in, solution out
  MultiVector x_block;
  SolveOutcome outcome;
  std::exception_ptr error;
  int shard = -1;

  std::mutex mutex;
  std::condition_variable cv;
  bool completed = false;

  /// Blocks until this ticket was fulfilled; rethrows a failed solve's
  /// exception (idempotently — every later call rethrows too).
  void wait_done() {
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return completed; });
    }
    if (error) std::rethrow_exception(error);
  }

  /// Marks the ticket complete and wakes waiters (results must already be
  /// in place).
  void fulfill() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      completed = true;
    }
    cv.notify_all();
  }
};

/// One serving lane: a private ThreadPool plus prepared handle clones.
/// `served`, `latency`, and the cached handle-stats snapshots are guarded
/// by the service mutex (the dispatcher refreshes them after each request
/// while its handles are idle, so stats() never has to take a handle mutex
/// that a running solve might hold).
struct ServiceShard {
  std::unique_ptr<ThreadPool> pool;
  int workers = 0;
  std::optional<SpdProblem> spd;
  std::optional<LsqProblem> lsq;
  std::thread server;
  long long served = 0;
  LatencyHistogram latency;
  ProblemStats spd_stats;
  ProblemStats lsq_stats;
};

struct ServiceImpl {
  ServiceImpl(const CsrMatrix& a, ServiceOptions options)
      : a(a), options(std::move(options)), epoch(ServiceClock::now()) {}

  const CsrMatrix& a;
  ServiceOptions options;
  ServiceClock::time_point epoch;  // trace timestamps are relative to this

  // ServiceShard is immovable (prepared handles pin their pool by
  // reference), so the deque's stable addresses matter.
  std::deque<ServiceShard> shards;

  mutable std::mutex mutex;
  std::condition_variable work_cv;   // dispatchers: queue non-empty or stop
  std::condition_variable drain_cv;  // drain()/destructor: all work done
  // FIFO per priority class; dispatchers take the oldest request of the
  // most urgent non-empty class.
  std::array<std::deque<std::shared_ptr<TicketState>>, kPriorityClasses>
      queues;
  long long queued = 0;  // sum over `queues`
  long long submitted = 0;
  long long completed = 0;
  long long active = 0;
  long long rejected = 0;
  long long shed_deadline = 0;
  long long queue_high_water = 0;
  bool stop = false;
  // Serializes shutdown()'s join loop so concurrent shutdown() calls (and
  // the destructor after one) don't race on std::thread::join.
  std::mutex join_mutex;

  [[nodiscard]] double since_epoch(ServiceClock::time_point tp) const {
    return std::chrono::duration<double>(tp - epoch).count();
  }
};

namespace {

const char* kind_name(TicketState::Kind kind) {
  switch (kind) {
    case TicketState::Kind::kSpd:
      return "spd";
    case TicketState::Kind::kSpdBlock:
      return "spd_block";
    case TicketState::Kind::kLsq:
      return "lsq";
  }
  return "?";
}

/// Emits the per-request trace event, if a sink is attached.  Called after
/// the ticket is fulfilled, outside the service mutex (the sink has its own
/// synchronization).
void emit_trace(const ServiceImpl& impl, const TicketState& t) {
  if (!impl.options.trace) return;
  TraceEvent event;
  event.request_id = t.request_id;
  event.kind = kind_name(t.kind);
  event.status = t.error ? "error" : to_string(t.outcome.status);
  // Storage and sampling are meaningful only for a solve that ran to an
  // outcome; rejected or failed requests leave them empty.
  if (!t.error && t.started) {
    event.storage = to_string(t.outcome.storage_used);
    event.sampling = to_string(t.outcome.sampling_used);
    event.partitions = t.outcome.partitions_used;
  }
  event.shard = t.shard;
  event.priority = t.priority;
  event.warm_start = t.warm_start;
  event.enqueue_seconds = impl.since_epoch(t.enqueue_tp);
  event.start_seconds = t.started ? impl.since_epoch(t.start_tp) : -1.0;
  event.done_seconds = impl.since_epoch(t.done_tp);
  impl.options.trace->log(event);
}

/// Resolves `t` as refused-without-running (admission reject or deadline
/// shed): kRejected outcome, completion latch, trace.  The counters are the
/// caller's responsibility (they differ between the two paths and need the
/// service mutex).
void resolve_rejected(const ServiceImpl& impl, TicketState& t,
                      std::string reason) {
  t.outcome = SolveOutcome();
  t.outcome.status = SolveStatus::kRejected;
  t.outcome.description = std::move(reason);
  t.done_tp = ServiceClock::now();
  t.fulfill();
  emit_trace(impl, t);
}

/// Runs one request on `shard`'s prepared handles.  Never throws: failures
/// land in the ticket's error slot and surface at wait().
void execute_request(const CsrMatrix& a, ServiceShard& shard, int shard_index,
                     TicketState& t) {
  try {
    switch (t.kind) {
      case TicketState::Kind::kSpd:
        // t.x already holds the initial iterate (zeros or the warm start).
        t.outcome = shard.spd->solve(t.b, t.x, t.controls);
        break;
      case TicketState::Kind::kSpdBlock:
        t.x_block = MultiVector(a.rows(), t.b_block.cols());
        t.outcome = shard.spd->solve(t.b_block, t.x_block, t.controls);
        break;
      case TicketState::Kind::kLsq:
        t.outcome = shard.lsq->solve(t.b, t.x, t.controls);
        break;
    }
  } catch (...) {
    t.error = std::current_exception();
  }
  t.shard = shard_index;
}

/// Pops the oldest request of the most urgent non-empty class; nullptr when
/// every queue is empty.  Caller holds the service mutex.
std::shared_ptr<TicketState> pop_next_locked(ServiceImpl& impl) {
  for (auto& queue : impl.queues) {
    if (queue.empty()) continue;
    std::shared_ptr<TicketState> request = std::move(queue.front());
    queue.pop_front();
    --impl.queued;
    return request;
  }
  return nullptr;
}

/// Dispatcher loop of one shard: pull the oldest, most urgent queued
/// request whenever this shard is free.  Shared queues + free-shard pull is
/// the least-loaded routing policy — an idle shard picks work up
/// immediately, and requests queue only when every shard is busy.  Requests
/// whose deadline expired while queued are shed here, before execution.
void serve_loop(ServiceImpl& impl, int shard_index) {
  ServiceShard& shard = impl.shards[static_cast<std::size_t>(shard_index)];
  for (;;) {
    std::shared_ptr<TicketState> request;
    // Deadline-expired requests popped while looking for live work; their
    // tickets are resolved after the lock is released.
    std::vector<std::shared_ptr<TicketState>> shed;
    bool stopping = false;
    {
      std::unique_lock<std::mutex> lock(impl.mutex);
      impl.work_cv.wait(lock, [&] { return impl.stop || impl.queued > 0; });
      const ServiceClock::time_point now = ServiceClock::now();
      while ((request = pop_next_locked(impl)) != nullptr) {
        if (request->has_deadline && now >= request->deadline_tp) {
          // Shed, but keep the ticket accounted as in-flight until its
          // resolution (outside the lock) lands: the stats invariant
          // submitted == completed + queued + in_flight must hold at every
          // snapshot, and `completed` must not advance before the trace
          // event is emitted (drain() returns on `completed`, and a
          // drained service promises a complete trace).
          ++impl.active;
          shed.push_back(std::move(request));
          continue;
        }
        break;
      }
      if (request) {
        ++impl.active;
        request->started = true;
        request->start_tp = ServiceClock::now();
      } else {
        stopping = impl.stop;  // queues drained; exit if shutting down
      }
    }

    for (const std::shared_ptr<TicketState>& t : shed)
      resolve_rejected(impl, *t,
                       "rejected: deadline expired while queued");
    if (!shed.empty()) {
      {
        std::lock_guard<std::mutex> lock(impl.mutex);
        impl.active -= static_cast<long long>(shed.size());
        impl.shed_deadline += static_cast<long long>(shed.size());
        impl.completed += static_cast<long long>(shed.size());
      }
      impl.drain_cv.notify_all();
    }
    if (!request) {
      if (stopping) return;
      continue;  // everything popped was shed; wait for more work
    }

    execute_request(impl.a, shard, shard_index, *request);
    request->done_tp = ServiceClock::now();

    // Fulfill the ticket and emit its trace event first (results were
    // written above, so the completed flag is the release point; the
    // request still counts as in-flight)...
    request->fulfill();
    emit_trace(impl, *request);

    // ...then update service counters, the shard's latency histogram, and
    // the cached handle stats (the shard's handles are idle right now, so
    // their stats() cannot block on a solve in flight).  drain() waiters
    // watch `completed`, so notify on every completion — a drainer must not
    // wait for *other* clients' later submissions to quiesce — and once
    // drain() returns every completion's trace line is already written.
    {
      std::lock_guard<std::mutex> lock(impl.mutex);
      --impl.active;
      ++impl.completed;
      ++shard.served;
      shard.latency.record(std::chrono::duration<double>(
                               request->done_tp - request->enqueue_tp)
                               .count());
      if (shard.spd) shard.spd_stats = shard.spd->stats();
      if (shard.lsq) shard.lsq_stats = shard.lsq->stats();
    }
    impl.drain_cv.notify_all();
  }
}

}  // namespace

}  // namespace detail

// --- SolveTicket -------------------------------------------------------------

bool SolveTicket::done() const {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->completed;
}

const SolveOutcome& SolveTicket::wait() {
  require(state_ != nullptr, "SolveTicket::wait: invalid (default) ticket");
  state_->wait_done();
  return state_->outcome;
}

const std::vector<double>& SolveTicket::solution() {
  require(state_ != nullptr, "SolveTicket::solution: invalid ticket");
  state_->wait_done();
  require(state_->kind != detail::TicketState::Kind::kSpdBlock,
          "SolveTicket::solution: block request — use block_solution()");
  return state_->x;
}

const MultiVector& SolveTicket::block_solution() {
  require(state_ != nullptr, "SolveTicket::block_solution: invalid ticket");
  state_->wait_done();
  require(state_->kind == detail::TicketState::Kind::kSpdBlock,
          "SolveTicket::block_solution: not a block request");
  return state_->x_block;
}

int SolveTicket::shard() {
  require(state_ != nullptr, "SolveTicket::shard: invalid ticket");
  state_->wait_done();
  return state_->shard;
}

// --- SolverService -----------------------------------------------------------

SolverService::SolverService(const CsrMatrix& a, ServiceOptions options) {
  require(options.shards >= 1, "SolverService: shards must be >= 1");
  require(options.max_queue >= 0,
          "SolverService: max_queue must be >= 0 (0 = unbounded)");
  require(options.prepare_spd || options.prepare_lsq,
          "SolverService: enable at least one of prepare_spd / prepare_lsq");
  impl_ = std::make_unique<detail::ServiceImpl>(a, options);

  // Shard 0 pays the full per-matrix analysis; every other shard is a
  // clone that reuses it (zero validation passes, zero transpose builds)
  // and shares its on-demand operator slots.
  for (int s = 0; s < options.shards; ++s) {
    // Auto sizing divides the hardware threads across shards and spreads
    // the remainder over the first hw % shards shards, so no core is left
    // permanently idle by integer truncation (8 threads / 3 shards =
    // 3+3+2, not 2+2+2).  The resulting pools can differ in size by one —
    // pin SolveControls::workers for cross-shard bit-identity (header
    // note).
    const int workers = detail::shard_auto_workers(
        options.workers_per_shard, s, options.shards,
        std::thread::hardware_concurrency());
    detail::ServiceShard& shard = impl_->shards.emplace_back();
    shard.workers = workers;
    shard.pool = std::make_unique<ThreadPool>(workers);
    if (options.prepare_spd) {
      if (s == 0) {
        shard.spd.emplace(*shard.pool, a, options.check_input,
                          options.storage);
        // Build exactly the operator the declared requests read: the
        // partition analysis, or the compact natural-order copy.  An
        // undeclared one is built by the first request that reads it, once
        // for all shards.
        if (options.prepare_partitions)
          shard.spd->prepare_partitions();
        else
          shard.spd->prepare_compact();
      } else {
        shard.spd.emplace(*shard.pool, *impl_->shards.front().spd);
      }
      shard.spd_stats = shard.spd->stats();
    }
    if (options.prepare_lsq) {
      if (s == 0)
        shard.lsq.emplace(*shard.pool, a, options.storage);
      else
        shard.lsq.emplace(*shard.pool, *impl_->shards.front().lsq);
      shard.lsq_stats = shard.lsq->stats();
    }
  }
  // Handles are ready; only now start the dispatchers.
  for (int s = 0; s < options.shards; ++s)
    impl_->shards[static_cast<std::size_t>(s)].server =
        std::thread([this, s] { detail::serve_loop(*impl_, s); });
}

SolverService::~SolverService() { shutdown(); }

void SolverService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  // The dispatchers drain the admitted queues before honoring stop, so
  // joining them is the drain.  Late submits (racing or after this
  // returns) see `stop` and resolve kRejected without touching the
  // dispatchers.
  std::lock_guard<std::mutex> join_lock(impl_->join_mutex);
  for (detail::ServiceShard& shard : impl_->shards)
    if (shard.server.joinable()) shard.server.join();
}

SolveTicket SolverService::enqueue(std::shared_ptr<detail::TicketState> state,
                                   const RequestOptions& request) {
  state->priority = std::clamp(request.priority, 0, kPriorityClasses - 1);
  state->enqueue_tp = detail::ServiceClock::now();
  // A deadline past the clock's range from now (its int64 nanoseconds end
  // about 9.2e9 s out), or +inf, never expires.  The comparison runs in the
  // double domain the cast below computes in, so the cast stays in range
  // and the sum cannot overflow.
  const std::chrono::duration<double> deadline(request.deadline_seconds);
  if (request.deadline_seconds > 0.0 &&
      deadline <
          detail::ServiceClock::time_point::max() - state->enqueue_tp) {
    state->has_deadline = true;
    state->deadline_tp =
        state->enqueue_tp +
        std::chrono::duration_cast<detail::ServiceClock::duration>(deadline);
  }

  const char* reject_reason = nullptr;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    ++impl_->submitted;
    state->request_id = impl_->submitted;
    // Admission control: a submit racing shutdown, or one finding every
    // max_queue slot taken, resolves its ticket to kRejected instead of
    // throwing — overload and shutdown are expected serving states, not
    // caller bugs (the contract tests/test_service.cpp pins).
    if (impl_->stop) {
      reject_reason = "rejected: service shutting down";
    } else if (impl_->options.max_queue > 0 &&
               impl_->queued >= impl_->options.max_queue) {
      reject_reason = "rejected: queue full (max_queue)";
    } else {
      impl_->queues[static_cast<std::size_t>(state->priority)].push_back(
          state);
      ++impl_->queued;
      if (impl_->queued > impl_->queue_high_water)
        impl_->queue_high_water = impl_->queued;
    }
    // A refused ticket stays accounted as in-flight until its resolution
    // (outcome + trace, below, outside the lock) lands — same bookkeeping
    // discipline as the dispatcher, keeping the stats invariant intact at
    // every snapshot and the trace complete once `completed` advances.
    if (reject_reason) ++impl_->active;
  }
  if (reject_reason) {
    detail::resolve_rejected(*impl_, *state, reject_reason);
    {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      --impl_->active;
      ++impl_->rejected;
      ++impl_->completed;
    }
    impl_->drain_cv.notify_all();
  } else {
    impl_->work_cv.notify_one();  // wake one free shard
  }
  return SolveTicket(std::move(state));
}

namespace {

using Kind = detail::TicketState::Kind;

/// True when every entry is finite.  Submit rejects NaN or infinite inputs
/// eagerly: one such entry would poison every iterate it reaches and run
/// the request's whole budget to a NaN residual.
bool all_finite(const double* v, std::size_t n) {
  return std::all_of(v, v + n, [](double e) { return std::isfinite(e); });
}

/// Throws "<who>: <what>" — every malformed request is refused this way, on
/// the submitting thread.
[[noreturn]] void refuse(const char* who, const char* what) {
  throw Error(std::string(who) + ": " + what);
}

/// A new ticket for a request of `kind`, after checking that the service
/// prepared the family it runs on.  `who` names the entry point.
std::shared_ptr<detail::TicketState> new_ticket(const detail::ServiceImpl& impl,
                                                Kind kind,
                                                const SolveControls& controls,
                                                const char* who) {
  const bool lsq = kind == Kind::kLsq;
  if (!(lsq ? impl.options.prepare_lsq : impl.options.prepare_spd))
    refuse(who, lsq ? "service built without prepare_lsq"
                    : "service built without prepare_spd");
  auto state = std::make_shared<detail::TicketState>();
  state->kind = kind;
  state->controls = controls;
  return state;
}

/// The ticket of a single-vector request (kSpd or kLsq): b holds one finite
/// entry per matrix row, and the iterate starts at `x0` (one finite entry
/// per column) when given, else at zero.
std::shared_ptr<detail::TicketState> vector_ticket(
    const detail::ServiceImpl& impl, Kind kind, std::vector<double> b,
    std::optional<std::vector<double>> x0, const SolveControls& controls,
    const char* who) {
  auto state = new_ticket(impl, kind, controls, who);
  if (static_cast<index_t>(b.size()) != impl.a.rows())
    refuse(who, "rhs size must equal matrix rows");
  if (!all_finite(b.data(), b.size())) refuse(who, "rhs must be finite");
  const auto unknowns = static_cast<std::size_t>(impl.a.cols());
  if (x0) {
    if (x0->size() != unknowns)
      refuse(who, "warm-start x0 size must equal matrix columns");
    if (!all_finite(x0->data(), x0->size()))
      refuse(who, "warm-start x0 must be finite");
    state->warm_start = true;
    state->x = std::move(*x0);
  } else {
    state->x.assign(unknowns, 0.0);
  }
  state->b = std::move(b);
  return state;
}

}  // namespace

SolveTicket SolverService::submit(std::vector<double> b,
                                  SolveControls controls,
                                  RequestOptions request) {
  return enqueue(vector_ticket(*impl_, Kind::kSpd, std::move(b), std::nullopt,
                               controls, "SolverService::submit"),
                 request);
}

SolveTicket SolverService::submit(std::vector<double> b,
                                  std::vector<double> x0,
                                  SolveControls controls,
                                  RequestOptions request) {
  return enqueue(vector_ticket(*impl_, Kind::kSpd, std::move(b),
                               std::move(x0), controls,
                               "SolverService::submit"),
                 request);
}

SolveTicket SolverService::submit_block(MultiVector b, SolveControls controls,
                                        RequestOptions request) {
  const char* const who = "SolverService::submit_block";
  auto state = new_ticket(*impl_, Kind::kSpdBlock, controls, who);
  if (b.rows() != impl_->a.rows() || b.cols() <= 0)
    refuse(who, "rhs rows must equal matrix rows");
  if (!all_finite(b.data(), b.size())) refuse(who, "rhs must be finite");
  state->b_block = std::move(b);
  return enqueue(std::move(state), request);
}

SolveTicket SolverService::submit_least_squares(std::vector<double> b,
                                                SolveControls controls,
                                                RequestOptions request) {
  return enqueue(vector_ticket(*impl_, Kind::kLsq, std::move(b), std::nullopt,
                               controls, "SolverService::submit_least_squares"),
                 request);
}

SolveTicket SolverService::submit_least_squares(std::vector<double> b,
                                                std::vector<double> x0,
                                                SolveControls controls,
                                                RequestOptions request) {
  return enqueue(vector_ticket(*impl_, Kind::kLsq, std::move(b),
                               std::move(x0), controls,
                               "SolverService::submit_least_squares"),
                 request);
}

void SolverService::drain() {
  // "Everything submitted so far": snapshot the submission count at entry
  // and wait for that many completions — not for global quiescence, which
  // other clients' ongoing submissions could postpone forever.
  std::unique_lock<std::mutex> lock(impl_->mutex);
  const long long target = impl_->submitted;
  impl_->drain_cv.wait(lock, [&] { return impl_->completed >= target; });
}

int SolverService::shards() const noexcept {
  return static_cast<int>(impl_->shards.size());
}

int SolverService::workers_per_shard() const noexcept {
  return impl_->shards.front().workers;
}

const CsrMatrix& SolverService::matrix() const noexcept { return impl_->a; }

ServiceStats SolverService::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  ServiceStats s;
  s.submitted = impl_->submitted;
  s.completed = impl_->completed;
  s.queued = impl_->queued;
  s.in_flight = impl_->active;
  s.rejected = impl_->rejected;
  s.shed_deadline = impl_->shed_deadline;
  s.queue_high_water = impl_->queue_high_water;
  // The accounting invariant: every issued ticket is exactly one of
  // completed (incl. rejected/shed), queued, or executing.  Checked on
  // every snapshot — a violation means a counter transition escaped the
  // mutex.
  require(s.submitted == s.completed + s.queued + s.in_flight,
          "SolverService::stats: accounting invariant violated");
  s.shards.reserve(impl_->shards.size());
  for (const detail::ServiceShard& shard : impl_->shards) {
    ShardStats ss;
    ss.served = shard.served;
    ss.workers = shard.workers;
    ss.latency = shard.latency;
    ss.spd = shard.spd_stats;
    ss.lsq = shard.lsq_stats;
    s.latency.merge(ss.latency);
    s.validation_passes +=
        ss.spd.validation_passes + ss.lsq.validation_passes;
    s.transpose_builds += ss.spd.transpose_builds + ss.lsq.transpose_builds;
    s.partition_builds += ss.spd.partition_builds;
    s.compact_builds += ss.spd.compact_builds;
    s.shards.push_back(ss);
  }
  return s;
}

}  // namespace asyrgs
