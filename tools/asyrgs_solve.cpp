// asyrgs_solve — command-line SPD solver over Matrix Market files.
//
//   asyrgs_solve --matrix A.mtx [--rhs b.mtx] [--out x.mtx]
//                [--method auto|asyrgs|fcg|cg|kaczmarz] [--tol 1e-8]
//                [--threads 0] [--repeat 1] [--shards 1]
//                [--storage auto|int64]
//                [--sampling uniform|weighted]
//                [--partitions 0] [--steal 0.0]
//
// Reads an SPD matrix (coordinate format, general or symmetric), prepares an
// asyrgs::SpdProblem handle (validation + analysis paid once), solves
// A x = b with the selected method (b defaults to A * ones so the run is
// self-checking), writes the solution in array format, and prints a solve
// summary.  --repeat N re-runs the solve N times on the prepared handle —
// the serving pattern for many requests against one operator; only the
// first solve pays preparation.  --shards N (N > 1) routes the repeats
// through the sharded SolverService front-end instead, exercising the
// concurrent serving path end to end.  Note the two paths resolve team
// size differently at the default --threads 0 (global pool capacity vs
// per-shard capacity), and multi-worker asynchronous runs are not
// bit-reproducible; byte-identical output across the two paths requires
// an explicit --threads 1.
//
// --method kaczmarz routes through an LsqProblem handle (the row-action
// method needs no symmetry), so it also serves rectangular .mtx inputs;
// --sampling selects the direction distribution of the asynchronous
// methods (docs/TUNING.md).
#include <fstream>
#include <iostream>

#include "asyrgs/asyrgs.hpp"

using namespace asyrgs;

int main(int argc, char** argv) {
  CliParser cli("asyrgs_solve", "solve an SPD Matrix Market system");
  auto matrix_path = cli.add_string("matrix", "", "input matrix (.mtx)");
  auto rhs_path = cli.add_string("rhs", "", "right-hand side (.mtx array); "
                                            "default: A * ones");
  auto out_path = cli.add_string("out", "", "solution output (.mtx array)");
  auto method = cli.add_string("method", "auto",
                               "auto|asyrgs|fcg|cg|kaczmarz (kaczmarz: "
                               "row-action least squares; accepts "
                               "rectangular matrices)");
  auto tol = cli.add_double("tol", 1e-8, "relative residual target");
  auto threads = cli.add_int("threads", 0, "worker threads (0 = all)");
  auto max_iters = cli.add_int("max-iterations", 0, "iteration cap (0=auto)");
  auto inner = cli.add_int("inner-sweeps", 2, "FCG preconditioner sweeps");
  auto repeat = cli.add_int("repeat", 1,
                            "solves against the prepared handle (>= 1; "
                            "preparation is paid once)");
  auto shards = cli.add_int("shards", 1,
                            "SolverService pool shards; > 1 submits the "
                            "repeats concurrently to the sharded serving "
                            "front-end");
  auto storage = cli.add_string(
      "storage", "auto",
      "CSR storage policy: auto (int32 indices when the shape fits) | int64 "
      "(see docs/TUNING.md)");
  auto sampling = cli.add_string(
      "sampling", "uniform",
      "direction-draw distribution for the asynchronous methods: uniform | "
      "weighted (norm-weighted alias table; see docs/TUNING.md)");
  auto partitions = cli.add_int(
      "partitions", 0,
      "topology-aware partitioned scheduling: cut the RCM-ordered operator "
      "into N cache-aligned partitions, one draw set per worker (0 = off; "
      "asyrgs method only; see docs/TUNING.md)");
  auto steal = cli.add_double(
      "steal", 0.0,
      "partitioned scheduling: probability in [0, 1) of drawing a halo "
      "(neighbour-owned boundary) row instead of an owned row");

  try {
    cli.parse(argc, argv);
    require(!matrix_path.value().empty(), "missing required --matrix");
    require(*repeat >= 1, "--repeat must be >= 1");
    require(*shards >= 1, "--shards must be >= 1");
    require(*tol > 0.0, "--tol must be positive");

    const CsrMatrix a = read_matrix_market_file(*matrix_path);
    std::cerr << "matrix: " << a.rows() << " x " << a.cols() << ", "
              << a.nnz() << " nonzeros\n";

    std::vector<double> b;
    if (!rhs_path.value().empty()) {
      std::ifstream in(*rhs_path);
      require(in.good(), "cannot open --rhs file");
      b = read_vector_market(in);
    } else {
      // A * ones needs cols() entries; rows() == cols() for the SPD paths,
      // but --method kaczmarz also accepts rectangular matrices.
      const std::vector<double> ones(static_cast<std::size_t>(a.cols()), 1.0);
      b = rhs_from_solution(a, ones);
      std::cerr << "rhs: A * ones (self-checking mode)\n";
    }

    SolveControls controls;
    controls.rel_tol = *tol;
    controls.workers = static_cast<int>(*threads);
    controls.sweeps =
        *max_iters > 0 ? static_cast<int>(*max_iters) : 100000;
    controls.max_iterations = static_cast<int>(*max_iters);
    controls.inner_sweeps = static_cast<int>(*inner);
    controls.sync = SyncMode::kBarrierPerSweep;
    if (*method == "auto")
      controls.method = SpdMethod::kAuto;
    else if (*method == "asyrgs")
      controls.method = SpdMethod::kAsyncRgs;
    else if (*method == "fcg")
      controls.method = SpdMethod::kFcgAsyRgs;
    else if (*method == "cg")
      controls.method = SpdMethod::kCg;
    else if (*method == "kaczmarz")
      controls.method = SpdMethod::kAsyncKaczmarz;
    else
      throw Error("unknown --method (want auto|asyrgs|fcg|cg|kaczmarz)");
    StorageMode storage_mode = StorageMode::kAuto;
    if (*storage == "int64")
      storage_mode = StorageMode::kInt64Double;
    else if (*storage != "auto")
      throw Error("unknown --storage (want auto|int64)");
    if (*sampling == "uniform")
      controls.sampling = SamplingPolicy::kUniform;
    else if (*sampling == "weighted")
      controls.sampling = SamplingPolicy::kWeighted;
    else
      throw Error("unknown --sampling (want uniform|weighted)");
    controls.partitions = static_cast<int>(*partitions);
    controls.steal_rate = *steal;
    const bool kaczmarz = controls.method == SpdMethod::kAsyncKaczmarz;

    std::vector<double> x;
    SolveOutcome outcome;
    if (*shards > 1) {
      // Sharded serving path: prepare the service once (shard 0 validates,
      // clones reuse the analysis), submit every repeat concurrently, and
      // let free shards pull them.
      ServiceOptions service_options;
      service_options.shards = static_cast<int>(*shards);
      service_options.workers_per_shard = static_cast<int>(*threads);
      service_options.storage = storage_mode;
      service_options.prepare_partitions = controls.partitions != 0;
      if (kaczmarz) {
        // Row-action least squares: only the lsq handles are needed (and
        // SPD preparation would reject rectangular inputs).
        service_options.prepare_spd = false;
        service_options.prepare_lsq = true;
      }
      WallTimer prepare_timer;
      SolverService service(a, service_options);
      std::cerr << "prepared " << service.shards() << "-shard service ("
                << service.workers_per_shard() << " threads/shard) in "
                << prepare_timer.seconds() << " s\n";
      std::vector<SolveTicket> tickets;
      for (std::int64_t run = 0; run < *repeat; ++run)
        tickets.push_back(kaczmarz
                              ? service.submit_least_squares(b, controls)
                              : service.submit(b, controls));
      for (std::size_t run = 0; run < tickets.size(); ++run) {
        outcome = tickets[run].wait();
        if (*repeat > 1)
          std::cerr << "solve " << (run + 1) << "/" << *repeat << " (shard "
                    << tickets[run].shard() << "): "
                    << to_string(outcome.status) << " in " << outcome.seconds
                    << " s\n";
      }
      x = tickets.back().solution();
    } else if (kaczmarz) {
      // Row-action least squares: prepare once (A^T, rank check, row
      // norms), then solve --repeat times against the handle.
      WallTimer prepare_timer;
      LsqProblem problem(ThreadPool::global(), a, storage_mode);
      std::cerr << "prepared lsq handle in " << prepare_timer.seconds()
                << " s (storage: " << to_string(problem.storage()) << ")\n";

      for (std::int64_t run = 0; run < *repeat; ++run) {
        x.assign(static_cast<std::size_t>(a.cols()), 0.0);
        outcome = problem.solve(b, x, controls);
        if (*repeat > 1)
          std::cerr << "solve " << (run + 1) << "/" << *repeat << ": "
                    << to_string(outcome.status) << " in " << outcome.seconds
                    << " s\n";
      }
    } else {
      // Prepare once (symmetry + diagonal validation, then the operator
      // the solves read: the RCM analysis with --partitions, else the
      // compact copy; CG reads only the bound matrix), then solve --repeat
      // times against the handle.  The hook runs inside the timer so the
      // reported time covers all preparation.
      WallTimer prepare_timer;
      SpdProblem problem(ThreadPool::global(), a, /*check_input=*/true,
                         storage_mode);
      if (controls.partitions != 0)
        problem.prepare_partitions();
      else if (controls.method != SpdMethod::kCg)
        problem.prepare_compact();
      std::cerr << "prepared handle in " << prepare_timer.seconds()
                << " s (storage: " << to_string(problem.storage()) << ")\n";

      for (std::int64_t run = 0; run < *repeat; ++run) {
        x.assign(static_cast<std::size_t>(a.rows()), 0.0);
        outcome = problem.solve(b, x, controls);
        if (*repeat > 1)
          std::cerr << "solve " << (run + 1) << "/" << *repeat << ": "
                    << to_string(outcome.status) << " in " << outcome.seconds
                    << " s\n";
      }
    }

    std::cerr << "method: " << outcome.description << "\n"
              << "storage: " << to_string(outcome.storage_used) << "\n"
              << "sampling: " << to_string(outcome.sampling_used) << "\n";
    if (outcome.partitions_used != 0)
      std::cerr << "partitions: " << outcome.partitions_used << " (steal "
                << outcome.steal_rate_used << ")\n";
    std::cerr << "status: " << to_string(outcome.status)
              << "  iterations: " << outcome.iterations
              << "  time: " << outcome.seconds << " s\n"
              << "relative residual: " << relative_residual(a, b, x) << "\n";

    if (!out_path.value().empty()) {
      std::ofstream out(*out_path);
      require(out.good(), "cannot open --out file");
      write_vector_market(out, x);
      std::cerr << "solution written to " << *out_path << "\n";
    }
    return outcome.converged() ? 0 : 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
