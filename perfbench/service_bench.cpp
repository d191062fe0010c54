// service_bench: drives asyrgs the way its users do, through SolverService,
// from one load-generator process.
//
//   service_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--spans PATH]
//
// Every input (matrices, right-hand sides, direction seeds, the arrival
// schedule) is derived from --seed and generated before anything is timed.
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that times each layer from outside, through its
// public functions, and records a span around every such call.  The last
// line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Human-readable diagnostics go to stderr.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <malloc.h>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "asyrgs/asyrgs.hpp"
#include "bench_util.hpp"

namespace {

using namespace asyrgs;
using perfbench::Clock;
using perfbench::quantile;
using perfbench::seconds_between;
using perfbench::SpanLog;

/// Team size of the single-shard workloads and capacity of the probe pool.
/// Keeping at most two cores busy leaves the other two of the shared 4-core
/// host to absorb its noise; at four busy workers the same requests swung
/// far more from run to run, which measures the scheduler, not the program.
constexpr int kTeam = 2;
/// Threads that wait on open-loop tickets; more than can ever be in flight
/// at the open-loop rate, so every completion is observed within a wake-up.
constexpr int kWatchers = 8;
/// Slack on the benchmark's own residual recomputation.
constexpr double kCheckSlack = 1.0001;
/// Warm-up of a run's first service: covers the host's slower first seconds
/// of load (about 10% slower on the 4-core host).
constexpr double kFirstWarmUpSeconds = 2.0;

enum class Family { kSpd, kLsq };

/// One workload: the matrix family, the service shape, the request
/// controls, and how load arrives.  A run is a number of rounds; each starts
/// on fresh service constructions and then runs a latency block and a
/// throughput block.  Closed-loop blocks last a fixed share of --seconds, so
/// a run takes about as long on a slow host as on a fast one.
struct Workload {
  const char* name;
  Family family;
  int shards;
  bool prepare_partitions;
  SolveControls controls;
  bool open_loop;
  double rate_rps;            ///< open loop: arrival rate
  double latency_share;       ///< share of --seconds in latency blocks
  int min_latency_requests;   ///< per run
  /// The fastest request seen on the 4-core host; sizes the pre-generated
  /// request pools so that no block runs out of inputs.
  double fastest_request_s;
  /// Rounds per run, so that every metric samples the whole run instead of
  /// one part of it.
  int rounds;
  int setups_per_round;       ///< timed constructions at each round's start
  int resolve_samples;        ///< traced run: direct re-solves per probe
};

SolveControls tolerance_controls(double rel_tol) {
  SolveControls c;
  c.rel_tol = rel_tol;
  c.sync = SyncMode::kBarrierPerSweep;  // a tolerance needs sync points
  c.sweeps = 2000;
  c.workers = kTeam;
  return c;
}

std::vector<Workload> workloads() {
  std::vector<Workload> out;

  // Why: the paper's Section 9 serving pattern, one operator and a stream
  // of right-hand sides; the only workload where queueing and dispatch
  // under concurrency do real work.
  Workload stream{};
  stream.name = "social_stream";
  stream.family = Family::kSpd;
  stream.shards = 2;
  stream.controls = tolerance_controls(1e-2);  // kAuto -> AsyRGS
  // One worker per shard: two busy shards then hold two cores, like the
  // other workloads (2 x 2 doubled the run-to-run spread of p90).
  stream.controls.workers = 1;
  stream.open_loop = true;
  // About 45% utilization of the two 1-worker shards: at 6 req/s (55% to
  // 70%) queueing amplified the host's drift into latency_p50_s.
  stream.rate_rps = 5.0;
  stream.latency_share = 0.75;
  stream.min_latency_requests = 100;  // ten samples beyond p90
  stream.fastest_request_s = 0.08;
  stream.rounds = 4;
  stream.setups_per_round = 6;
  stream.resolve_samples = 4;
  out.push_back(stream);

  // Why: the only path through LsqProblem (transpose and column norms at
  // setup, column kernels on a rectangular shape).
  Workload lsq{};
  lsq.name = "social_lsq";
  lsq.family = Family::kLsq;
  lsq.shards = 1;
  lsq.controls = tolerance_controls(1e-2);  // kAuto -> coordinate descent
  lsq.controls.step_size = 0.95;
  lsq.latency_share = 0.6;
  lsq.min_latency_requests = 20;
  lsq.fastest_request_s = 0.15;
  lsq.rounds = 4;
  lsq.setups_per_round = 6;
  lsq.resolve_samples = 3;
  out.push_back(lsq);

  // Why: graph scale beyond the last-level cache; memory-bound scans and
  // draws, setup dominated by RCM analysis, and 16 MB vectors per request.
  Workload lap{};
  lap.name = "laplacian_2d";
  lap.family = Family::kSpd;
  lap.shards = 1;
  lap.prepare_partitions = true;
  lap.controls = tolerance_controls(1e-1);
  lap.controls.partitions = 8;
  lap.controls.steal_rate = 0.05;
  lap.latency_share = 0.6;
  lap.min_latency_requests = 3;
  lap.fastest_request_s = 2.0;
  lap.rounds = 1;
  lap.setups_per_round = 3;
  lap.resolve_samples = 1;
  out.push_back(lap);
  return out;
}

// --- inputs ------------------------------------------------------------------

struct Request {
  long long id = 0;  ///< benchmark request id, 1-based within the run
  std::vector<double> b;
  std::uint64_t seed = 0;  ///< direction stream
};

struct Inputs {
  std::uint64_t seed = 0;
  /// The served operator, plus the SPD and least-squares operators of the
  /// same input for the traced run's probes of layers a workload does not
  /// route through (the corpus Gram and factor; the Laplacian for both).
  std::unique_ptr<CsrMatrix> served;
  std::unique_ptr<CsrMatrix> other;  ///< the second social operator, if any
  const CsrMatrix* spd = nullptr;
  const CsrMatrix* lsq = nullptr;
  std::vector<Request> latency;     ///< pool for the latency blocks
  std::vector<Request> throughput;  ///< pool for the throughput blocks
  std::vector<double> due_offsets;  ///< open loop: seconds from the start
};

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index) {
  return splitmix64(splitmix64(seed ^ (0x9E3779B97F4A7C15ull * stream)) +
                    index);
}

Inputs make_inputs(const Workload& w, std::uint64_t seed, double seconds) {
  Inputs in;
  in.seed = seed;
  if (std::string(w.name) == "laplacian_2d") {
    in.served = std::make_unique<CsrMatrix>(laplacian_2d(1448, 1448));
    in.spd = in.lsq = in.served.get();
  } else {
    SocialGramOptions opt;
    opt.terms = 8000;
    opt.documents = 32000;
    opt.mean_doc_length = 10;
    opt.topics = 100;
    opt.topic_concentration = 0.92;
    opt.ridge = 0.5;
    opt.seed = derive(seed, 1, 0);
    SocialGram corpus = make_social_gram(opt);
    auto gram = std::make_unique<CsrMatrix>(
        UnitDiagonalScaling(corpus.gram).scale_matrix(corpus.gram));
    auto factor = std::make_unique<CsrMatrix>(
        drop_empty_columns(corpus.factor).matrix);
    in.spd = gram.get();
    in.lsq = factor.get();
    if (w.family == Family::kLsq) {
      in.served = std::move(factor);
      in.other = std::move(gram);
    } else {
      in.served = std::move(gram);
      in.other = std::move(factor);
    }
  }

  const double latency_s = w.latency_share * seconds;
  const double throughput_s = seconds - latency_s;
  const int n_latency =
      w.open_loop
          ? std::max(w.min_latency_requests,
                     static_cast<int>(w.rate_rps * latency_s))
          : std::max(w.min_latency_requests,
                     static_cast<int>(std::ceil(latency_s /
                                                w.fastest_request_s)));
  const int n_throughput =
      std::max(2 * w.rounds,
               static_cast<int>(std::ceil(throughput_s * w.shards /
                                          w.fastest_request_s)));
  const index_t rows = in.served->rows();
  long long id = 0;
  const auto make = [&](std::uint64_t stream, int count) {
    std::vector<Request> out;
    for (int i = 0; i < count; ++i) {
      Request r;
      r.id = ++id;
      r.b = random_vector(rows, derive(seed, stream, i));
      r.seed = derive(seed, stream + 1, i);
      out.push_back(std::move(r));
    }
    return out;
  };
  in.latency = make(10, n_latency);
  in.throughput = make(20, n_throughput);
  if (w.open_loop) {
    // Gaps uniform in [0.95, 1.05] / rate: arrivals independent of the
    // service but nearly regular, so a request queues only when a service
    // time exceeds two gaps.  Jitter of +-20% roughly doubled the
    // run-to-run spread of p90 through burst queueing.
    Xoshiro256 rng(derive(seed, 30, 0));
    double t = 0.0;
    for (int i = 0; i < n_latency; ++i) {
      in.due_offsets.push_back(t);
      t += (0.95 + 0.1 * uniform_real(rng)) / w.rate_rps;
    }
  }
  return in;
}

// --- the service -------------------------------------------------------------

/// A service together with the matrix copy it is bound to.  Every timed
/// construction gets a fresh copy, so none inherits a cached transpose.
/// Members destroy in reverse order: the service before its matrix.
struct Service {
  std::shared_ptr<const CsrMatrix> matrix;
  std::unique_ptr<SolverService> service;
  Clock::time_point constructed_at{};  ///< ~ the service's trace epoch
  double construct_s = 0.0;
  double prepared_mb = 0.0;  ///< VmRSS growth over the construction
  /// Submissions so far: a single submitter's latest request_id.
  std::atomic<long long> submitted{0};
};

ServiceOptions service_options(const Workload& w,
                               std::shared_ptr<TraceSink> sink) {
  ServiceOptions o;
  o.shards = w.shards;
  o.workers_per_shard = w.controls.workers;
  o.prepare_spd = w.family == Family::kSpd;
  o.prepare_lsq = w.family == Family::kLsq;
  o.prepare_partitions = w.prepare_partitions;
  o.trace = std::move(sink);
  return o;
}

/// Builds a service on a fresh copy of `a`, or on `shared` when given.
std::unique_ptr<Service> build_service(
    const Workload& w, const CsrMatrix& a, std::shared_ptr<TraceSink> sink,
    SpanLog& spans, std::shared_ptr<const CsrMatrix> shared = nullptr) {
  auto s = std::make_unique<Service>();
  s->matrix = shared ? std::move(shared)
                     : std::make_shared<const CsrMatrix>(
                           perfbench::fresh_copy(a));
  const double rss_before = perfbench::status_kib("VmRSS");
  {
    SpanLog::Scope span(spans, "serve.SolverService");
    s->constructed_at = Clock::now();
    s->service = std::make_unique<SolverService>(
        *s->matrix, service_options(w, std::move(sink)));
    s->construct_s = seconds_between(s->constructed_at, Clock::now());
  }
  s->prepared_mb =
      perfbench::kib_to_mb(perfbench::status_kib("VmRSS") - rss_before);
  return s;
}

SolveControls request_controls(const Workload& w, const Request& r) {
  SolveControls c = w.controls;
  c.seed = r.seed;
  return c;
}

SolveTicket submit(const Workload& w, Service& s, std::vector<double> b,
                   const SolveControls& c) {
  ++s.submitted;
  return w.family == Family::kSpd
             ? s.service->submit(std::move(b), c)
             : s.service->submit_least_squares(std::move(b), c);
}

/// Untimed rounds of one request per shard, submitted together so each
/// shard takes one, at a two-iteration budget, for `seconds` (at least one
/// round): the first round grows every first-request scratch buffer (and
/// builds the partition cut), and further rounds keep the shards busy.
void warm_up(const Workload& w, Service& s, const Request& r, double seconds) {
  SolveControls c = request_controls(w, r);
  c.sweeps = 2;
  c.max_iterations = 2;
  const Clock::time_point until = perfbench::after_seconds(seconds);
  do {
    std::vector<SolveTicket> tickets;
    for (int i = 0; i < w.shards; ++i)
      tickets.push_back(submit(w, s, r.b, c));
    for (SolveTicket& t : tickets) t.wait();
  } while (Clock::now() < until);
}

// --- correctness ---------------------------------------------------------------

struct Tally {
  std::atomic<long long> attempted{0};
  std::atomic<long long> failed{0};
};

/// Recomputes one result's residual with the benchmark's own loops.
bool result_ok(Family family, const CsrMatrix& a, const std::vector<double>& b,
               const std::vector<double>& x, const SolveOutcome& out,
               double rel_tol) {
  if (out.status != SolveStatus::kConverged) return false;
  const double rel = family == Family::kSpd
                         ? perfbench::spd_relative_residual(a, b, x)
                         : perfbench::lsq_relative_residual(a, b, x);
  return std::isfinite(rel) && rel <= rel_tol * kCheckSlack;
}

// --- request blocks ----------------------------------------------------------

/// What every request block needs: the workload, its service, the matrix
/// results are checked against, the span log and the failure tally.
struct Block {
  const Workload& w;
  Service& s;
  const CsrMatrix& a;
  SpanLog& spans;
  Tally& tally;
};

struct Served {
  const Request* request = nullptr;
  long long service_request_id = 0;  ///< TraceEvent::request_id
  int span_id = 0;                   ///< the client's request span
  double latency_s = 0.0;            ///< the client-facing latency
  double client_s = 0.0;             ///< submit call start to completion seen
  std::optional<SolveOutcome> outcome;  ///< empty when the request threw
};

/// Counts one request and checks it: a request fails when it is rejected,
/// throws, does not converge, or its recomputed residual misses the
/// tolerance.  Releases the ticket's vectors.
void finish(Block& c, SolveTicket& ticket, Served& sv) {
  ++c.tally.attempted;
  bool ok = false;
  try {
    sv.outcome = ticket.wait();
    ok = result_ok(c.w.family, c.a, sv.request->b, ticket.solution(),
                   *sv.outcome, c.w.controls.rel_tol);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "request %lld threw: %s\n", sv.request->id, e.what());
  }
  if (!ok) {
    ++c.tally.failed;
    std::fprintf(stderr, "request %lld failed: %s\n", sv.request->id,
                 sv.outcome ? sv.outcome->description.c_str() : "no outcome");
  }
  ticket = SolveTicket();
}

/// Closed loop, one client: submit, wait, repeat, taking requests from
/// `pool` at `next` until `until` has passed and at least `min_count` ran.
/// Latency runs from the submit call to the return of wait(); the check
/// follows, off the clock.
std::vector<Served> closed_loop(Block& c, std::span<const Request> pool,
                                std::size_t& next, Clock::time_point until,
                                std::size_t min_count) {
  std::vector<Served> out;
  while (next < pool.size() &&
         (out.size() < min_count || Clock::now() < until)) {
    Served sv;
    sv.request = &pool[next++];
    const Request& r = *sv.request;
    const SolveControls ctl = request_controls(c.w, r);
    std::vector<double> b = r.b;  // the copy the client hands over
    SolveTicket t;
    {
      SpanLog::Scope request_span(c.spans, "serve.request", 0, r.id);
      sv.span_id = request_span.id();
      const Clock::time_point t0 = Clock::now();
      {
        SpanLog::Scope span(c.spans, "serve.submit", sv.span_id, r.id);
        t = submit(c.w, c.s, std::move(b), ctl);
      }
      sv.service_request_id = c.s.submitted;
      {
        SpanLog::Scope span(c.spans, "serve.wait", sv.span_id, r.id);
        try {
          t.wait();
        } catch (const std::exception&) {
          // finish() counts it as a failure.
        }
      }
      sv.latency_s = sv.client_s = seconds_between(t0, Clock::now());
    }
    finish(c, t, sv);
    out.push_back(std::move(sv));
  }
  return out;
}

/// Open loop from one generator thread: request i is submitted when due,
/// whatever the service is doing; watcher threads block on the tickets and
/// stamp each completion.  Latency runs from the due time.  The results are
/// checked once the block has drained, so no check competes with the
/// shards for a core.
std::vector<Served> open_loop(Block& c, std::span<const Request> requests,
                              std::span<const double> due_offsets,
                              double* worst_lateness_s) {
  const std::size_t n = requests.size();
  std::vector<Served> out(n);
  std::vector<SolveTicket> tickets(n);
  std::vector<std::vector<double>> copies;
  copies.reserve(n);
  for (const Request& r : requests) copies.push_back(r.b);
  std::vector<Clock::time_point> due(n), submitted_at(n), done_at(n);

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::size_t> pending;
  bool closed = false;
  std::vector<std::thread> watchers;
  for (int k = 0; k < kWatchers; ++k) {
    watchers.emplace_back([&] {
      for (;;) {
        std::size_t i = 0;
        {
          std::unique_lock<std::mutex> lock(mutex);
          cv.wait(lock, [&] { return closed || !pending.empty(); });
          if (pending.empty()) return;
          i = pending.front();
          pending.pop_front();
        }
        {
          SpanLog::Scope span(c.spans, "serve.wait", out[i].span_id,
                              requests[i].id);
          try {
            tickets[i].wait();
          } catch (const std::exception&) {
            // finish() counts it as a failure.
          }
        }
        done_at[i] = Clock::now();
      }
    });
  }

  double worst = 0.0;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(due_offsets[i] -
                                                       due_offsets[0]));
    std::this_thread::sleep_until(due[i]);
    const Request& r = requests[i];
    const SolveControls ctl = request_controls(c.w, r);
    const int span_id = c.spans.new_id();  // the request span, added below
    submitted_at[i] = Clock::now();
    worst = std::max(worst, seconds_between(due[i], submitted_at[i]));
    SolveTicket t;
    {
      SpanLog::Scope span(c.spans, "serve.submit", span_id, r.id);
      t = submit(c.w, c.s, std::move(copies[i]), ctl);
    }
    {
      const std::lock_guard<std::mutex> lock(mutex);
      out[i].request = &r;
      out[i].span_id = span_id;
      out[i].service_request_id = c.s.submitted;
      tickets[i] = std::move(t);
      pending.push_back(i);
    }
    cv.notify_one();
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& t : watchers) t.join();

  for (std::size_t i = 0; i < n; ++i) {
    out[i].latency_s = seconds_between(due[i], done_at[i]);
    out[i].client_s = seconds_between(submitted_at[i], done_at[i]);
    c.spans.add({"serve.request", c.spans.at(submitted_at[i]),
                 c.spans.at(done_at[i]), out[i].span_id, 0, requests[i].id});
    finish(c, tickets[i], out[i]);
  }
  *worst_lateness_s = worst;
  return out;
}

/// Closed loop, two clients: the shards never wait for work, so completed
/// requests per second is the service's saturation capacity.  The clients
/// stop sending once `until` has passed and at least `min_count` requests
/// went out; each checks its result before sending the next.  Returns the
/// completions and the seconds from the block's start to the last one.
std::pair<long long, double> throughput_block(Block& c,
                                              std::span<const Request> pool,
                                              std::size_t& next,
                                              Clock::time_point until,
                                              std::size_t min_count) {
  std::mutex mutex;  // guards next, sent, completed, last_done
  std::size_t sent = 0;
  long long completed = 0;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point last_done = t0;
  const auto client = [&] {
    for (;;) {
      Served sv;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        if (next >= pool.size() || (sent >= min_count && Clock::now() >= until))
          return;
        sv.request = &pool[next++];
        ++sent;
      }
      SolveTicket t = submit(c.w, c.s, sv.request->b,
                             request_controls(c.w, *sv.request));
      try {
        t.wait();
      } catch (const std::exception&) {
        // finish() counts it as a failure.
      }
      const Clock::time_point done = Clock::now();
      finish(c, t, sv);
      const std::lock_guard<std::mutex> lock(mutex);
      ++completed;
      last_done = std::max(last_done, done);
    }
  };
  std::thread other(client);
  client();
  other.join();
  return {completed, seconds_between(t0, last_done)};
}

/// Latency block `r` of `rounds`: the r-th slice of the open-loop schedule,
/// or closed-loop requests from `next` for the block's share of the latency
/// time and at least its share of the minimum count.
std::vector<Served> latency_block(Block& c, const Inputs& in, int r,
                                  int rounds, double seconds,
                                  std::size_t& next, double* lateness) {
  const Workload& w = c.w;
  if (w.open_loop) {
    const std::size_t lo = in.latency.size() * r / rounds;
    const std::size_t hi = in.latency.size() * (r + 1) / rounds;
    double late = 0.0;
    std::vector<Served> out =
        open_loop(c, std::span(in.latency).subspan(lo, hi - lo),
                  std::span(in.due_offsets).subspan(lo, hi - lo), &late);
    *lateness = std::max(*lateness, late);
    return out;
  }
  const std::size_t min_count =
      (static_cast<std::size_t>(w.min_latency_requests) + rounds - 1) / rounds;
  return closed_loop(
      c, in.latency, next,
      perfbench::after_seconds(w.latency_share * seconds / rounds), min_count);
}

std::vector<double> latencies(const std::vector<Served>& served) {
  std::vector<double> v;
  for (const Served& s : served) v.push_back(s.latency_s);
  return v;
}

// --- output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  const long long attempted = tally.attempted;
  const long long failed = tally.failed;
  std::string line = "{\"correct\": ";
  line += failed == 0 && attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// --- end-to-end run ------------------------------------------------------------

int run_end_to_end(const Workload& w, Inputs& in, double seconds) {
  SpanLog off(false);
  Tally tally;
  if (!perfbench::reset_peak_rss())
    std::fprintf(stderr, "warning: cannot reset the peak-RSS mark\n");

  std::vector<double> setups, lat_s;
  double lateness = 0.0, tp_seconds = 0.0;
  long long tp_completed = 0;
  std::size_t next_latency = 0, next_throughput = 0;
  std::unique_ptr<Service> s;
  for (int r = 0; r < w.rounds; ++r) {
    // setup_s is the median over fresh constructions taken at the start of
    // every round, so that it samples the whole run, not one moment of it.
    // The round's last construction serves the round.
    for (int k = 0; k < w.setups_per_round; ++k) {
      s.reset();  // the previous service and its matrix copy go first
      s = build_service(w, *in.served, nullptr, off);
      setups.push_back(s->construct_s);
    }
    warm_up(w, *s, in.latency.front(), r == 0 ? kFirstWarmUpSeconds : 0.0);
    Block c{w, *s, *in.served, off, tally};
    for (double l : latencies(latency_block(c, in, r, w.rounds, seconds,
                                            next_latency, &lateness)))
      lat_s.push_back(l);
    const auto [done, secs] = throughput_block(
        c, in.throughput, next_throughput,
        perfbench::after_seconds((1.0 - w.latency_share) * seconds /
                                 w.rounds),
        2);
    tp_completed += done;
    tp_seconds += secs;
  }
  s.reset();
  const double peak_mb = perfbench::kib_to_mb(perfbench::status_kib("VmHWM"));

  if (next_latency == in.latency.size() && !w.open_loop)
    std::fprintf(stderr, "note: latency request pool exhausted\n");
  if (next_throughput == in.throughput.size())
    std::fprintf(stderr, "note: throughput request pool exhausted\n");
  std::fprintf(stderr,
               "%s: n=%lld nnz=%lld setups=%zu latency requests=%zu "
               "throughput requests=%lld rounds=%d generator worst "
               "lateness=%.6f s\n",
               w.name, static_cast<long long>(in.served->rows()),
               static_cast<long long>(in.served->nnz()), setups.size(),
               lat_s.size(), tp_completed, w.rounds, lateness);
  print_result(tally,
               {{"setup_s", quantile(setups, 0.5), "s"},
                {"latency_p50_s", quantile(lat_s, 0.5), "s"},
                {"latency_p90_s", quantile(lat_s, 0.9), "s"},
                {"throughput_rps", static_cast<double>(tp_completed) / tp_seconds,
                 "req/s"},
                {"peak_rss_mb", peak_mb, "MB"}});
  return 0;
}

// --- traced run ----------------------------------------------------------------

double span_median(const SpanLog& spans, const std::string& name) {
  return quantile(spans.durations(name), 0.5);
}

template <class Fn>
void repeat_spans(SpanLog& spans, const char* name, int count, Fn&& fn) {
  for (int i = 0; i < count; ++i) {
    SpanLog::Scope span(spans, name);
    fn();
  }
}

/// A direct handle solve from x = 0, checked like a served request.
template <class Handle>
SolveOutcome direct_solve(Family family, Handle& handle, const CsrMatrix& a,
                          const std::vector<double>& b, const SolveControls& c,
                          SpanLog& spans, const char* span_name,
                          long long request, Tally& tally) {
  std::vector<double> x(static_cast<std::size_t>(a.cols()), 0.0);
  SolveOutcome out;
  {
    SpanLog::Scope span(spans, span_name, 0, request);
    out = handle.solve(b, x, c);
  }
  ++tally.attempted;
  if (!result_ok(family, a, b, x, out, c.rel_tol)) {
    ++tally.failed;
    std::fprintf(stderr, "%s (request %lld) failed: %s\n", span_name, request,
                 out.description.c_str());
  }
  return out;
}

/// Per-request figures the serve and problem layers are judged by, from the
/// service's trace events joined to the client's requests.
struct ServeFigures {
  std::vector<double> queue_wait, handoff, call_overhead;
};

ServeFigures join_trace(const std::vector<Served>& served,
                        const std::vector<TraceEvent>& events,
                        const Service& s, SpanLog& spans) {
  ServeFigures f;
  const double epoch = spans.at(s.constructed_at);
  for (const Served& sv : served) {
    const auto e = std::find_if(events.begin(), events.end(), [&](const auto& ev) {
      return ev.request_id == sv.service_request_id;
    });
    if (e == events.end() || e->start_seconds < 0.0) continue;
    const double wait = e->start_seconds - e->enqueue_seconds;
    const double exec = e->done_seconds - e->start_seconds;
    f.queue_wait.push_back(wait);
    f.handoff.push_back(sv.client_s - exec - wait);
    if (sv.outcome) f.call_overhead.push_back(exec - sv.outcome->seconds);
    spans.add({"serve.queue", epoch + e->enqueue_seconds,
               epoch + e->start_seconds, 0, sv.span_id, sv.request->id});
    spans.add({"serve.execute", epoch + e->start_seconds,
               epoch + e->done_seconds, 0, sv.span_id, sv.request->id});
  }
  return f;
}

int run_traced(const Workload& w, Inputs& in, double seconds,
               const std::string& spans_path) {
  // Pin glibc's mmap threshold (which otherwise grows after large frees) so
  // large blocks map fresh pages and unmap on free: VmRSS then moves with
  // what the service holds, not with heap reuse.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  SpanLog spans(true);
  SpanLog off(false);
  Tally tally;
  const CsrMatrix& a = *in.served;

  // The traced service (the in-memory sink on ServiceOptions::trace) is
  // built first, on a fresh matrix copy, so that problem.prepared_mb covers
  // everything it prepares.  The untraced service, the baseline of
  // trace.overhead_frac and the source of core.updates_per_s, shares that
  // copy.
  auto sink = std::make_shared<perfbench::RecordingSink>();
  auto traced_s = build_service(w, a, sink, spans);
  const double prepared_mb = traced_s->prepared_mb;
  auto untraced_s = build_service(w, a, nullptr, off, traced_s->matrix);
  warm_up(w, *untraced_s, in.latency.front(), kFirstWarmUpSeconds);
  warm_up(w, *traced_s, in.latency.front(), 0.0);

  // Untraced and traced blocks of the same requests alternate, in the order
  // U T, T U, U T, ..., so that a drift of the host's speed over the run
  // weighs on both alike; trace.overhead_frac compares the pooled medians.
  const int rounds = std::max(2, w.rounds);
  Block untraced_block{w, *untraced_s, a, off, tally};
  Block traced_block{w, *traced_s, a, spans, tally};
  std::vector<Served> untraced, traced;
  std::size_t next_untraced = 0, next_traced = 0;
  double lateness = 0.0;
  for (int r = 0; r < rounds; ++r) {
    for (const bool trace_now : {r % 2 == 1, r % 2 == 0}) {
      std::vector<Served>& out = trace_now ? traced : untraced;
      for (Served& sv : latency_block(
               trace_now ? traced_block : untraced_block, in, r, rounds,
               seconds, trace_now ? next_traced : next_untraced, &lateness))
        out.push_back(std::move(sv));
    }
  }
  const ServiceStats stats = traced_s->service->stats();
  const ServeFigures serve =
      join_trace(traced, sink->events(), *traced_s, spans);
  untraced_s.reset();
  traced_s.reset();
  const std::size_t samples = std::min<std::size_t>(
      static_cast<std::size_t>(w.resolve_samples), traced.size());

  // Engine figures come from the served requests; iter figures from direct
  // FCG solves below, since no workload's requests run FCG.
  std::vector<double> sweeps, sweep_s, updates_per_s;
  std::vector<double> fcg_iters, fcg_iteration_s;
  // core.async_penalty and core.speedup compare a team of two with one
  // worker: the served requests give their own team size, and direct
  // re-solves of the same requests give the other.
  const int team = w.controls.workers;
  const int other_team = team == 1 ? 2 : 1;
  std::vector<double> penalty, speedup;
  const auto compare_teams = [&](const SolveOutcome& served_out,
                                 const SolveOutcome& other) {
    const SolveOutcome& two = team == 2 ? served_out : other;
    const SolveOutcome& one = team == 2 ? other : served_out;
    penalty.push_back(static_cast<double>(two.iterations) / one.iterations);
    speedup.push_back(one.seconds / two.seconds);
  };
  for (const Served& sv : traced) {
    if (!sv.outcome) continue;
    sweeps.push_back(sv.outcome->iterations);
    sweep_s.push_back(sv.outcome->seconds / sv.outcome->iterations);
  }
  for (const Served& sv : untraced)
    if (sv.outcome)
      updates_per_s.push_back(static_cast<double>(sv.outcome->updates) /
                              sv.outcome->seconds);

  // --- problem, gen, core and iter probes on fresh handles.  The SPD probes
  // use the workload's SPD operator (social_lsq: the corpus Gram).
  ThreadPool pool(kTeam);
  const CsrMatrix& spd_op = *in.spd;
  std::vector<std::vector<double>> spd_rhs;
  for (std::size_t i = 0; i < samples; ++i)
    spd_rhs.push_back(w.family == Family::kSpd
                          ? traced[i].request->b
                          : random_vector(spd_op.rows(), derive(in.seed, 40, i)));
  {
    const CsrMatrix copy = perfbench::fresh_copy(spd_op);
    std::optional<SpdProblem> spd;
    {
      SpanLog::Scope span(spans, "problem.SpdProblem");
      spd.emplace(pool, copy);
    }
    {
      SpanLog::Scope span(spans, "gen.prepare_partitions");
      spd->prepare_partitions();
    }
    if (w.family == Family::kSpd) {
      for (std::size_t i = 0; i < samples; ++i) {
        if (!traced[i].outcome) continue;
        SolveControls c = request_controls(w, *traced[i].request);
        c.workers = other_team;
        compare_teams(
            *traced[i].outcome,
            direct_solve(Family::kSpd, *spd, spd_op, spd_rhs[i], c, spans,
                         "problem.solve.other_team", traced[i].request->id,
                         tally));
      }
    }
    // FCG + AsyRGS(2) at this workload's own tolerance.
    SolveControls fcg = tolerance_controls(w.controls.rel_tol);
    fcg.method = SpdMethod::kFcgAsyRgs;
    fcg.workers = team;
    for (std::size_t i = 0; i < samples; ++i) {
      fcg.seed = derive(in.seed, 60, i);
      const SolveOutcome o =
          direct_solve(Family::kSpd, *spd, spd_op, spd_rhs[i], fcg, spans,
                       "problem.solve.fcg_probe", 0, tally);
      fcg_iters.push_back(o.iterations);
      fcg_iteration_s.push_back(o.seconds / o.iterations);
    }
    AsyRgsPreconditioner precond(*spd, 2, team);
    std::vector<double> z(static_cast<std::size_t>(spd_op.rows()));
    repeat_spans(spans, "iter.precond_apply", spd_op.rows() > 1000000 ? 3 : 10,
                 [&] { precond.apply(spd_rhs[0], z); });
  }
  {
    const CsrMatrix copy = perfbench::fresh_copy(*in.lsq);
    std::optional<LsqProblem> lsq;
    {
      SpanLog::Scope span(spans, "problem.LsqProblem");
      lsq.emplace(pool, copy);
    }
    if (w.family == Family::kLsq) {
      for (std::size_t i = 0; i < samples; ++i) {
        if (!traced[i].outcome) continue;
        SolveControls c = request_controls(w, *traced[i].request);
        c.workers = other_team;
        compare_teams(
            *traced[i].outcome,
            direct_solve(Family::kLsq, *lsq, a, traced[i].request->b, c, spans,
                         "problem.solve.other_team", traced[i].request->id,
                         tally));
      }
    }
  }
  const double sweep_median = quantile(sweep_s, 0.5);

  // --- sparse, support.prng and support.pool on the probe pool, at the
  // workload's team size.  Figures that share a kernel are timed in batches
  // of their own.
  const bool big = a.rows() > 1000000;
  const std::vector<double> x = random_vector(a.cols(), derive(in.seed, 80, 0));
  std::vector<double> y(static_cast<std::size_t>(a.rows()));
  const int spmv_reps = big ? 5 : 40;
  repeat_spans(spans, "sparse.spmv", spmv_reps,
               [&] { spmv(pool, a, x, y, team); });
  repeat_spans(spans, "sparse.spmv.bandwidth", spmv_reps,
               [&] { spmv(pool, a, x, y, team); });
  const double spmv_bytes = 8.0 * static_cast<double>(a.rows() + 1) +
                            16.0 * static_cast<double>(a.nnz()) +
                            8.0 * static_cast<double>(a.cols() + a.rows());
  // The per-sweep residual check runs on the int32 copy; for least squares
  // it is one product with A and one with A^T.
  double residual_s = 0.0;
  {
    const CsrMatrix32 a32 = convert_storage<std::int32_t, double>(a);
    repeat_spans(spans, "sparse.spmv_int32", spmv_reps,
                 [&] { spmv(pool, a32, x, y, team); });
    residual_s = span_median(spans, "sparse.spmv_int32");
    if (w.family == Family::kLsq) {
      const CsrMatrix32 at32 =
          convert_storage<std::int32_t, double>(a.transpose());
      std::vector<double> xt(static_cast<std::size_t>(a.cols()));
      repeat_spans(spans, "sparse.spmv_int32.transpose", spmv_reps,
                   [&] { spmv(pool, at32, y, xt, team); });
      residual_s += span_median(spans, "sparse.spmv_int32.transpose");
    }
  }

  // One sweep of draws: a uniform direction per coordinate (per column for
  // least squares).
  const index_t directions = w.family == Family::kLsq ? a.cols() : a.rows();
  std::vector<index_t> draws(static_cast<std::size_t>(directions));
  const Philox4x32 philox(derive(in.seed, 70, 0));
  std::uint64_t first = 0;
  const auto fill = [&] {
    philox.fill_indices(first, draws.size(), directions, draws.data());
    first += draws.size();
  };
  const int draw_reps = big ? 10 : 100;
  repeat_spans(spans, "support.prng.fill_indices", draw_reps, fill);
  repeat_spans(spans, "support.prng.fill_indices.share", draw_reps, fill);

  repeat_spans(spans, "support.pool.run_team", 2000,
               [&] { pool.run_team(team, [](int, int) {}); });

  const std::vector<Metric> m = {
      {"serve.queue_wait_p50_s", quantile(serve.queue_wait, 0.5), "s"},
      {"serve.queue_wait_p90_s", quantile(serve.queue_wait, 0.9), "s"},
      {"serve.handoff_p50_s", quantile(serve.handoff, 0.5), "s"},
      {"serve.queue_high_water", static_cast<double>(stats.queue_high_water),
       "count"},
      {"problem.prepare_spd_s", span_median(spans, "problem.SpdProblem"), "s"},
      {"problem.prepare_lsq_s", span_median(spans, "problem.LsqProblem"), "s"},
      {"gen.partition.analysis_s", span_median(spans, "gen.prepare_partitions"),
       "s"},
      {"problem.prepared_mb", prepared_mb, "MB"},
      {"problem.call_overhead_p50_s", quantile(serve.call_overhead, 0.5), "s"},
      {"core.sweeps_p50", quantile(sweeps, 0.5), "count"},
      {"core.sweep_s", sweep_median, "s"},
      {"core.updates_per_s", quantile(updates_per_s, 0.5), "1/s"},
      {"core.residual_share", residual_s / sweep_median, "ratio"},
      {"core.async_penalty", quantile(penalty, 0.5), "ratio"},
      {"core.speedup", quantile(speedup, 0.5), "ratio"},
      {"support.prng.draw_ns",
       span_median(spans, "support.prng.fill_indices") * 1e9 /
           static_cast<double>(directions),
       "ns"},
      {"support.prng.draw_share",
       span_median(spans, "support.prng.fill_indices.share") /
           (team * sweep_median),
       "ratio"},
      {"sparse.spmv_s", span_median(spans, "sparse.spmv"), "s"},
      {"sparse.spmv_gbps_computed",
       spmv_bytes / span_median(spans, "sparse.spmv.bandwidth") / 1e9, "GB/s"},
      {"iter.fcg_iterations_p50", quantile(fcg_iters, 0.5), "count"},
      {"iter.iteration_s", quantile(fcg_iteration_s, 0.5), "s"},
      {"iter.precond_apply_s", span_median(spans, "iter.precond_apply"), "s"},
      {"support.pool.team_launch_s", span_median(spans, "support.pool.run_team"),
       "s"},
      {"trace.overhead_frac",
       quantile(latencies(traced), 0.5) / quantile(latencies(untraced), 0.5) -
           1.0,
       "ratio"},
  };

  if (!spans_path.empty() && !spans.write_jsonl(spans_path))
    std::fprintf(stderr, "warning: cannot write spans to %s\n",
                 spans_path.c_str());
  std::fprintf(stderr,
               "%s traced: %zu untraced and %zu traced requests, %zu spans, "
               "generator worst lateness=%.6f s\n",
               w.name, untraced.size(), traced.size(), spans.size(), lateness);
  print_result(tally, m);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: service_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      seconds = std::atof(val);
    } else if (key == "--trace") {
      trace = std::atoi(val);
    } else if (key == "--spans") {
      spans_path = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || seconds <= 0.0 ||
      (trace != 0 && trace != 1))
    return usage();

  const std::vector<Workload> all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return workload == w.name;
  });
  if (it == all.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return usage();
  }
  try {
    Inputs in = make_inputs(*it, seed, seconds);
    return trace ? run_traced(*it, in, seconds, spans_path)
                 : run_end_to_end(*it, in, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "service_bench: %s\n", e.what());
    return 1;
  }
}
