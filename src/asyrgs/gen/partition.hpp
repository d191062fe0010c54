// Topology-aware row partitioning for graph-structured operators.
//
// The paper's model lets every worker draw any coordinate, but at
// graph-Laplacian scale the resulting random access to the iterate is the
// hot-path cost: each update touches a neighbourhood of x that shares no
// cache lines with the previous one.  This header provides the locality
// layer (ROADMAP open item 2): treat the matrix as a graph, order its rows
// by reverse Cuthill-McKee so neighbourhoods become contiguous, cut the
// ordered rows into cache-line-aligned partitions balanced by nonzeros, and
// expose each partition's halo (the boundary rows owned by neighbours) as
// the stochastic-steal set the direction plan draws from (core/engine.hpp).
// The plan's owned-range schedule reads a GraphPartition; owner-computes
// (RandomizationScope::kOwnerComputes) is the same schedule over identity
// cuts — one even contiguous range per worker, no halo — built by the plan
// without any of the analysis below.
//
// The RCM ordering is a property of the matrix graph alone — it does not
// depend on the partition count — so a prepared handle computes it once
// (PartitionAnalysis) and serves cuts for any requested count from the same
// analysis.  Cuts are O(nnz) and cached per count.
//
// The analysis assumes a structurally symmetric matrix (an undirected
// graph); SpdProblem, its only consumer, validates symmetry already.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <variant>
#include <vector>

#include "asyrgs/sparse/csr.hpp"

namespace asyrgs {

/// Reverse Cuthill-McKee ordering of the rows of `a` (adjacency = off-
/// diagonal sparsity pattern, assumed structurally symmetric).  Returns a
/// permutation with perm[new_row] = old_row.  Each connected component is
/// ordered by a breadth-first search from a pseudo-peripheral vertex
/// (George-Liu double BFS) visiting neighbours in increasing-degree order,
/// and the concatenated order is reversed — the classic bandwidth-reducing
/// ordering, deterministic for a given matrix.
[[nodiscard]] std::vector<index_t> rcm_order(const CsrMatrix& a);

/// Symmetric permutation P A P^T: new row i is old row perm[i] with columns
/// remapped through the inverse permutation and re-sorted.  `perm` must be a
/// permutation of [0, a.rows()); `a` must be square.  The result is built
/// straight at index width `Index` (int64 or int32), so a narrow consumer
/// never materializes a full-width twin first; throws asyrgs::Error when
/// the dimension exceeds that width.
template <class Index = std::int64_t>
[[nodiscard]] CsrMatrixT<Index, double> permute_symmetric(
    const CsrMatrix& a, const std::vector<index_t>& perm);

/// Rows per cache line of doubles: partition boundaries are rounded to this
/// multiple so no two partitions' owned slices of the iterate share a cache
/// line (the layout half of the locality story — with the iterate in
/// cache-line-aligned storage, cross-partition false sharing is confined to
/// deliberate halo steals).
inline constexpr index_t kPartitionAlignRows =
    static_cast<index_t>(kCacheLineBytes / sizeof(double));

/// One contiguous cut of the permuted rows [0, n) into partitions, plus each
/// partition's halo.  Partition p owns [lo[p], lo[p+1]); halo[p] lists the
/// rows outside that range adjacent (in the matrix graph) to a row inside
/// it, sorted ascending — the candidate set for boundary stealing.
struct GraphPartition {
  std::vector<index_t> lo;                 ///< count()+1 boundaries; lo[0]=0
  std::vector<std::vector<index_t>> halo;  ///< per-partition steal sets

  [[nodiscard]] int count() const noexcept {
    return static_cast<int>(lo.size()) - 1;
  }
  [[nodiscard]] index_t lo_of(int p) const noexcept {
    return lo[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] index_t size_of(int p) const noexcept {
    return lo[static_cast<std::size_t>(p) + 1] -
           lo[static_cast<std::size_t>(p)];
  }
};

/// Cuts the rows of `permuted` into `count` contiguous partitions balanced
/// by nonzeros, with every interior boundary rounded up to a multiple of
/// kPartitionAlignRows, and computes the halos.  count is clamped to
/// [1, rows]; partitions may come out empty when count exceeds
/// rows / kPartitionAlignRows (their streams simply never draw).
template <class Index>
[[nodiscard]] GraphPartition cut_rows(const CsrMatrixT<Index, double>& permuted,
                                      int count);

/// Prepare-time partition analysis of one matrix: the RCM permutation, the
/// permuted operator (held once, at one index width), and a per-count cut
/// cache.  Immutable after construction except for the cache, which is
/// internally synchronized — one analysis may be shared (shared_ptr) by
/// every clone of a prepared handle.
class PartitionAnalysis {
 public:
  /// Orders `a` by RCM and materializes P A P^T at the index width of
  /// `storage` — a prepared handle passes its resolved policy, so the
  /// permuted operator is the one its partitioned solves run.
  /// O(nnz log nnz).
  explicit PartitionAnalysis(
      const CsrMatrix& a, StoragePolicy storage = StoragePolicy::kInt64Double);

  /// perm()[new_row] = old_row.
  [[nodiscard]] const std::vector<index_t>& perm() const noexcept {
    return perm_;
  }
  /// The index width the permuted operator was built at.
  [[nodiscard]] StoragePolicy storage() const noexcept {
    return std::holds_alternative<CsrMatrix32>(permuted_)
               ? StoragePolicy::kInt32Double
               : StoragePolicy::kInt64Double;
  }
  /// The RCM-permuted operator.  `Index` must be the width storage() names;
  /// throws asyrgs::Error otherwise (there is no copy at the other width).
  template <class Index = std::int64_t>
  [[nodiscard]] const CsrMatrixT<Index, double>& permuted() const {
    const auto* held = std::get_if<CsrMatrixT<Index, double>>(&permuted_);
    require(held != nullptr,
            "PartitionAnalysis::permuted: the operator is held at another "
            "index width");
    return *held;
  }

  /// The cut for `count` partitions, built on first request and cached.
  /// Thread-safe: concurrent callers (service shards sharing one analysis)
  /// serialize on an internal mutex.
  [[nodiscard]] std::shared_ptr<const GraphPartition> cut(int count) const;

 private:
  std::vector<index_t> perm_;
  std::variant<CsrMatrix, CsrMatrix32> permuted_;
  mutable std::mutex mutex_;
  mutable std::map<int, std::shared_ptr<const GraphPartition>> cuts_;
};

}  // namespace asyrgs
