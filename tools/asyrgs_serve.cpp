// asyrgs_serve — sharded serving driver over the SolverService front-end.
//
//   asyrgs_serve [--matrix A.mtx] [--shards 2] [--requests 16] [--clients 2]
//                [--mix spd|lsq|mixed] [--sweeps 8] [--tol 0]
//                [--threads-per-shard 0] [--seed 1]
//                [--max-queue 0] [--deadline 0] [--trace FILE]
//                [--arrival-rate 0] [--duration 2]
//
// Loads an SPD Matrix Market operator (or generates a 2-D Laplacian when
// --matrix is omitted — self-contained smoke mode), builds a SolverService
// with the requested shard count, and drives it in one of two modes:
//
//   Closed loop (default): --clients threads submit --requests solves as
//   fast as the service absorbs them, then everything drains.  Measures
//   capacity.  Exit code 0 when every request completed successfully.
//
//   Open loop (--arrival-rate > 0): requests arrive on a fixed wall-clock
//   schedule (one every 1/rate seconds, submitted non-blocking) for
//   --duration seconds, regardless of completions — the arrival process a
//   real service faces.  Combined with --max-queue and --deadline this
//   exercises the admission-control path: past saturation the service must
//   shed load (tickets resolve to SolveStatus::kRejected), not collapse.
//   Reports offered rate, reject/shed rates, and latency percentiles from
//   the service's histograms.  Rejects are the *correct* overload behavior,
//   so they do not fail the run; only solve errors do.
//
// --trace FILE attaches the JSON trace sink (serve/metrics.hpp): one JSON
// object per request with enqueue/start/done timestamps, shard, priority,
// and status — feed it to jq or a notebook to see queueing in action.
//
// This is the CLI face of the serving story: one analyzed matrix, many
// concurrent solves, scaled across pool shards, shedding what it cannot
// serve in time (docs/API.md "SolverService").
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "asyrgs/asyrgs.hpp"

using namespace asyrgs;

namespace {

/// Prints the aggregate serving report shared by both modes.
void print_stats(const ServiceStats& stats, double seconds) {
  std::cerr << "served " << (stats.completed - stats.rejected -
                             stats.shed_deadline)
            << " requests in " << seconds << " s ("
            << static_cast<double>(stats.completed) / seconds
            << " completions/s aggregate)\n";
  if (stats.rejected > 0 || stats.shed_deadline > 0)
    std::cerr << "shed load: " << stats.rejected << " rejected at admission, "
              << stats.shed_deadline << " deadline-shed (reject rate "
              << static_cast<double>(stats.rejected + stats.shed_deadline) /
                     static_cast<double>(stats.submitted)
              << ")\n";
  if (stats.latency.count() > 0)
    std::cerr << "latency (enqueue->done): p50=" << stats.latency.p50()
              << " s p95=" << stats.latency.p95()
              << " s p99=" << stats.latency.p99()
              << " s max=" << stats.latency.max_seconds()
              << " s over " << stats.latency.count() << " executed\n";
  std::cerr << "queue high-water: " << stats.queue_high_water << "\n";
  for (std::size_t s = 0; s < stats.shards.size(); ++s)
    std::cerr << "  shard " << s << ": " << stats.shards[s].served
              << " served (" << stats.shards[s].workers << " workers, p99 "
              << stats.shards[s].latency.p99() << " s)\n";
  std::cerr << "analysis: " << stats.validation_passes
            << " validation passes, " << stats.transpose_builds
            << " transpose builds (whole service)\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("asyrgs_serve", "serve a stream of solves across pool shards");
  auto matrix_path = cli.add_string(
      "matrix", "", "input matrix (.mtx); default: generated 24x24 Laplacian");
  auto shards = cli.add_int("shards", 2, "pool shards (concurrent lanes)");
  auto requests = cli.add_int("requests", 16,
                              "total solve requests (closed loop; open loop "
                              "is bounded by --duration instead)");
  auto clients = cli.add_int("clients", 2, "client threads submitting");
  auto mix = cli.add_string("mix", "mixed",
                            "request stream: spd | lsq | mixed");
  auto sweeps = cli.add_int("sweeps", 8, "sweep budget per request");
  auto tol = cli.add_double("tol", 0.0,
                            "relative residual target (0 = fixed budget; "
                            ">0 switches to barrier-per-sweep early stop)");
  auto lsq_tol = cli.add_double(
      "lsq-tol", -1.0,
      "normal-equations residual target for the lsq share of the stream "
      "(default: --tol; least squares conditions as the operator squared, "
      "so a looser target is usually appropriate)");
  auto threads_per_shard =
      cli.add_int("threads-per-shard", 0, "pool size per shard (0 = auto)");
  auto seed = cli.add_int("seed", 1, "base seed for request rhs/directions");
  auto max_queue = cli.add_int(
      "max-queue", 0, "admission bound: queued requests beyond this are "
                      "rejected (0 = unbounded)");
  auto deadline = cli.add_double(
      "deadline", 0.0, "per-request deadline in seconds; requests still "
                       "queued past it are shed (0 = none)");
  auto trace_path = cli.add_string(
      "trace", "", "write one JSON trace line per request to this file");
  auto storage = cli.add_string(
      "storage", "auto",
      "CSR storage policy for the prepared handles: auto | int64");
  auto arrival_rate = cli.add_double(
      "arrival-rate", 0.0, "open-loop arrivals per second (0 = closed loop)");
  auto duration = cli.add_double(
      "duration", 2.0, "open-loop run length in seconds");

  try {
    cli.parse(argc, argv);
    require(*shards >= 1, "--shards must be >= 1");
    require(*requests >= 1, "--requests must be >= 1");
    require(*clients >= 1, "--clients must be >= 1");
    require(*mix == "spd" || *mix == "lsq" || *mix == "mixed",
            "unknown --mix (want spd|lsq|mixed)");
    require(*arrival_rate >= 0.0, "--arrival-rate must be >= 0");
    require(*duration > 0.0, "--duration must be > 0");

    const CsrMatrix a = matrix_path.value().empty()
                            ? laplacian_2d(24, 24)
                            : read_matrix_market_file(*matrix_path);
    if (matrix_path.value().empty())
      std::cerr << "matrix: generated laplacian2d 24x24\n";
    std::cerr << "matrix: " << a.rows() << " x " << a.cols() << ", " << a.nnz()
              << " nonzeros\n";
    const bool want_spd = *mix != "lsq";
    const bool want_lsq = *mix != "spd";
    require(!want_spd || a.square(),
            "--mix spd/mixed requires a square (SPD) matrix");

    std::ofstream trace_file;
    ServiceOptions options;
    options.shards = static_cast<int>(*shards);
    options.workers_per_shard = static_cast<int>(*threads_per_shard);
    options.prepare_spd = want_spd;
    options.prepare_lsq = want_lsq;
    options.max_queue = static_cast<int>(*max_queue);
    if (*storage == "int64")
      options.storage = StorageMode::kInt64Double;
    else if (*storage != "auto")
      throw Error("unknown --storage (want auto|int64)");
    if (!trace_path.value().empty()) {
      trace_file.open(*trace_path);
      require(trace_file.good(), "--trace: cannot open output file");
      options.trace = std::make_shared<JsonTraceSink>(trace_file);
    }
    WallTimer prepare_timer;
    SolverService service(a, options);
    std::cerr << "prepared " << service.shards() << "-shard service ("
              << service.workers_per_shard() << " threads/shard) in "
              << prepare_timer.seconds() << " s\n";

    SolveControls controls;
    controls.sweeps = static_cast<int>(*sweeps);
    controls.rel_tol = *tol;
    if (*tol > 0.0 || *lsq_tol > 0.0)
      controls.sync = SyncMode::kBarrierPerSweep;  // tolerance needs sync
    RequestOptions request_options;
    request_options.deadline_seconds = *deadline;

    const auto make_request = [&](int r, SolveControls base) {
      SolveControls req = base;
      req.seed =
          static_cast<std::uint64_t>(*seed) + static_cast<std::uint64_t>(r);
      const bool lsq = *mix == "lsq" || (*mix == "mixed" && r % 2 == 1);
      if (lsq) {
        req.step_size = 0.95;
        if (*lsq_tol >= 0.0) req.rel_tol = *lsq_tol;
      }
      const std::vector<double> b = random_vector(a.rows(), req.seed + 1000003);
      return lsq ? service.submit_least_squares(b, req, request_options)
                 : service.submit(b, req, request_options);
    };

    std::vector<SolveTicket> tickets;
    WallTimer serve_timer;
    if (*arrival_rate > 0.0) {
      // Open loop: arrivals on a fixed schedule, submission never blocks
      // (a full queue rejects immediately), completions take care of
      // themselves.  A single pacing thread suffices: submit() is cheap,
      // and at rates where submit time matters the queue is saturated
      // anyway.
      const auto start = std::chrono::steady_clock::now();
      const double period = 1.0 / *arrival_rate;
      for (int r = 0;; ++r) {
        const double target = static_cast<double>(r) * period;
        if (target >= *duration) break;
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(target)));
        tickets.push_back(make_request(r, controls));
      }
      std::cerr << "offered " << tickets.size() << " requests over "
                << *duration << " s (target rate " << *arrival_rate
                << "/s)\n";
    } else {
      // Closed loop: client threads push the fixed request count as fast as
      // the service absorbs it.
      const int n_requests = static_cast<int>(*requests);
      const int n_clients = static_cast<int>(*clients);
      tickets.resize(static_cast<std::size_t>(n_requests));
      std::mutex tickets_mutex;
      std::vector<std::thread> client_threads;
      for (int c = 0; c < n_clients; ++c) {
        client_threads.emplace_back([&, c] {
          // Client c submits requests c, c+n_clients, ... — a deterministic
          // partition so rerunning with more clients serves the same
          // stream.
          for (int r = c; r < n_requests; r += n_clients) {
            SolveTicket t = make_request(r, controls);
            const std::lock_guard<std::mutex> lock(tickets_mutex);
            tickets[static_cast<std::size_t>(r)] = t;
          }
        });
      }
      for (std::thread& t : client_threads) t.join();
    }
    service.drain();
    const double seconds = serve_timer.seconds();

    int failures = 0;
    long long rejected_tickets = 0;
    for (SolveTicket& t : tickets) {
      try {
        const SolveOutcome& out = t.wait();
        if (out.status == SolveStatus::kRejected)
          ++rejected_tickets;  // correct overload behavior, not a failure
        else if (out.status == SolveStatus::kToleranceNotReached)
          ++failures;
      } catch (const std::exception& e) {
        std::cerr << "request failed: " << e.what() << "\n";
        ++failures;
      }
    }

    const ServiceStats stats = service.stats();
    print_stats(stats, seconds);
    if (failures > 0) {
      std::cerr << failures << " request(s) failed\n";
      return 2;
    }
    std::cerr << "all requests completed ("
              << (static_cast<long long>(tickets.size()) - rejected_tickets)
              << " served, " << rejected_tickets << " shed)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
