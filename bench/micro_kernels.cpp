// Micro-benchmarks (google-benchmark) for the kernels everything else is
// built from: Philox direction draws, atomic coordinate updates, SpMV
// partitions, and single RGS/AsyRGS coordinate steps.  These track kernel
// regressions; the paper-level experiments live in the fig*/table* binaries.
#include <benchmark/benchmark.h>

#include <atomic>
#include <vector>

#include "asyrgs/core/engine.hpp"
#include "asyrgs/core/rgs.hpp"
#include "asyrgs/gen/gram.hpp"
#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/gen/rhs.hpp"
#include "asyrgs/sparse/spmv.hpp"
#include "asyrgs/support/atomics.hpp"
#include "asyrgs/support/prng.hpp"
#include "asyrgs/support/thread_pool.hpp"

namespace asyrgs {
namespace {

void BM_PhiloxAt(benchmark::State& state) {
  const Philox4x32 gen(42);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.at(i++));
  }
}
BENCHMARK(BM_PhiloxAt);

void BM_PhiloxIndexAt(benchmark::State& state) {
  const Philox4x32 gen(42);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.index_at(i++, 120147));
  }
}
BENCHMARK(BM_PhiloxIndexAt);

/// Batched direction draws: fill_indices across batch sizes.  Regression
/// guard for the bulk Philox path (SIMD when available) — compare with
/// BM_PhiloxIndexAt for the per-call baseline.
void BM_PhiloxFillIndices(benchmark::State& state) {
  const Philox4x32 gen(42);
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  std::vector<index_t> out(batch);
  std::uint64_t first = 0;
  for (auto _ : state) {
    gen.fill_indices(first, batch, 120147, out.data());
    benchmark::DoNotOptimize(out.data());
    first += batch;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_PhiloxFillIndices)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

/// Strided batched draws: the access pattern of worker w in a team of 4.
void BM_PhiloxFillIndicesStrided(benchmark::State& state) {
  const Philox4x32 gen(42);
  const std::uint64_t stride = static_cast<std::uint64_t>(state.range(0));
  std::vector<index_t> out(1024);
  std::uint64_t k = 0;
  for (auto _ : state) {
    gen.fill_indices_strided(k * stride, stride, out.size(), 120147,
                             out.data());
    benchmark::DoNotOptimize(out.data());
    k += out.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_PhiloxFillIndicesStrided)->Arg(2)->Arg(3)->Arg(4)->Arg(8);

void BM_Xoshiro(benchmark::State& state) {
  Xoshiro256 rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_Xoshiro);

void BM_AtomicAddUncontended(benchmark::State& state) {
  double slot = 0.0;
  for (auto _ : state) {
    atomic_add_relaxed(slot, 1.0);
  }
  benchmark::DoNotOptimize(slot);
}
BENCHMARK(BM_AtomicAddUncontended);

void BM_RacyAdd(benchmark::State& state) {
  double slot = 0.0;
  for (auto _ : state) {
    racy_add(slot, 1.0);
  }
  benchmark::DoNotOptimize(slot);
}
BENCHMARK(BM_RacyAdd);

/// SpMV across partition strategies on the skewed Gram matrix.
void BM_SpmvGram(benchmark::State& state) {
  static const SocialGram system = [] {
    SocialGramOptions opt;
    opt.terms = 2000;
    opt.documents = 8000;
    opt.mean_doc_length = 8;
    return make_social_gram(opt);
  }();
  const CsrMatrix& a = system.gram;
  const std::vector<double> x = random_vector(a.cols(), 1);
  std::vector<double> y(static_cast<std::size_t>(a.rows()));
  ThreadPool& pool = ThreadPool::global();
  const auto partition = static_cast<RowPartition>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  for (auto _ : state) {
    spmv(pool, a, x.data(), y.data(), workers, partition);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_SpmvGram)
    ->ArgsProduct({{0, 1, 2} /* partition */, {1, 4, 0} /* workers; 0=all */})
    ->ArgNames({"partition", "workers"});

namespace kernels {

/// The pre-PR2 "generic" coordinate update: runtime atomicity branch,
/// span-based row scan.  Kept here as the baseline the specialized kernel is
/// measured against.
inline void update_generic(const CsrMatrix& a, const double* b, double* x,
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

/// The engine's specialized shape: compile-time atomicity, raw restrict
/// pointers hoisted out of the loop (mirrors SingleRhsUpdate in
/// core/async_rgs.cpp).
template <bool kAtomicWrites>
inline void update_specialized(const nnz_t* __restrict rp,
                               const index_t* __restrict ci,
                               const double* __restrict av, const double* b,
                               double* x, index_t r, double beta,
                               double inv_diag) {
  double acc = b[r];
  const nnz_t lo = rp[r];
  const nnz_t hi = rp[r + 1];
  for (nnz_t t = lo; t < hi; ++t)
    acc -= av[t] * atomic_load_relaxed(x[ci[t]]);
  const double delta = beta * (acc * inv_diag);
  if constexpr (kAtomicWrites)
    atomic_add_relaxed(x[r], delta);
  else
    racy_add(x[r], delta);
}

}  // namespace kernels

/// Generic vs specialized coordinate-update kernels on a 2-D Laplacian with
/// a pregenerated direction buffer (isolates the kernel from the draw cost).
void BM_UpdateKernelGeneric(benchmark::State& state) {
  const CsrMatrix a = laplacian_2d(128, 128);
  const std::vector<double> b = random_vector(a.rows(), 2);
  std::vector<double> inv = a.diagonal();
  for (double& d : inv) d = 1.0 / d;
  std::vector<double> x(a.rows(), 0.0);
  const Philox4x32 gen(42);
  std::vector<index_t> picks(4096);
  gen.fill_indices(0, picks.size(), a.rows(), picks.data());
  std::size_t i = 0;
  for (auto _ : state) {
    kernels::update_generic(a, b.data(), x.data(), picks[i], 1.0,
                            inv[picks[i]], true);
    i = (i + 1) & (picks.size() - 1);
  }
  benchmark::DoNotOptimize(x.data());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdateKernelGeneric);

void BM_UpdateKernelSpecialized(benchmark::State& state) {
  const CsrMatrix a = laplacian_2d(128, 128);
  const std::vector<double> b = random_vector(a.rows(), 2);
  std::vector<double> inv = a.diagonal();
  for (double& d : inv) d = 1.0 / d;
  std::vector<double> x(a.rows(), 0.0);
  const Philox4x32 gen(42);
  std::vector<index_t> picks(4096);
  gen.fill_indices(0, picks.size(), a.rows(), picks.data());
  const nnz_t* rp = a.row_ptr().data();
  const index_t* ci = a.col_idx().data();
  const double* av = a.values().data();
  std::size_t i = 0;
  for (auto _ : state) {
    kernels::update_specialized<true>(rp, ci, av, b.data(), x.data(),
                                      picks[i], 1.0, inv[picks[i]]);
    i = (i + 1) & (picks.size() - 1);
  }
  benchmark::DoNotOptimize(x.data());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdateKernelSpecialized);

/// DirectionPlan buffer refill (shared scope, team of 4): the per-update
/// direction cost the engine actually pays.
void BM_DirectionPlanFill(benchmark::State& state) {
  const detail::DirectionPlan plan(/*seed=*/42, RandomizationScope::kShared,
                                   120147, 4);
  std::vector<index_t> buf(detail::kDirectionChunk);
  std::uint64_t k = 0;
  for (auto _ : state) {
    plan.fill(1, k, buf.size(), buf.data());
    benchmark::DoNotOptimize(buf.data());
    k += buf.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_DirectionPlanFill);

/// One sequential RGS sweep on a 2-D Laplacian.
void BM_RgsSweepLaplacian(benchmark::State& state) {
  const index_t side = state.range(0);
  const CsrMatrix a = laplacian_2d(side, side);
  const std::vector<double> b = random_vector(a.rows(), 2);
  std::vector<double> x(a.rows(), 0.0);
  RgsOptions opt;
  opt.sweeps = 1;
  for (auto _ : state) {
    opt.seed++;
    rgs_solve(a, b, x, opt);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * a.rows());
}
BENCHMARK(BM_RgsSweepLaplacian)->Arg(64)->Arg(128);

}  // namespace
}  // namespace asyrgs

BENCHMARK_MAIN();
