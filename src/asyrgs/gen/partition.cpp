#include "asyrgs/gen/partition.hpp"

#include <algorithm>
#include <variant>
#include <utility>

#include "asyrgs/support/prefetch.hpp"

namespace asyrgs {

namespace {

/// Off-diagonal degree of row i (self loops carry no adjacency).
index_t degree(const CsrMatrix& a, index_t i) {
  const auto cols = a.row_cols(i);
  index_t d = static_cast<index_t>(cols.size());
  for (const auto c : cols)
    if (static_cast<index_t>(c) == i) --d;
  return d;
}

/// A vertex's entry in the search state: its degree while unvisited, the
/// degree's complement (negative) once visited.  A neighbour's visited mark
/// and its sort key are then one load, and unvisiting restores the degree.
index_t flip_visited(index_t key) { return ~key; }

/// BFS from `start` over unvisited vertices, visiting neighbours in
/// increasing-degree order (the Cuthill-McKee visit rule).  Appends the
/// component's vertices to `order` in visit order, marks them visited in
/// `key`, and reports the last level's first vertex and the eccentricity —
/// the inputs the pseudo-peripheral search needs.
struct BfsResult {
  index_t far_vertex;
  index_t levels;
};

/// Lookahead of the search's prefetch stages, in queue positions: sized to
/// the memory latency each stage hides, not options (docs/TUNING.md,
/// "Lookahead prefetch distances", gives the measurements).
constexpr std::size_t kHeaderAhead = 16;
constexpr std::size_t kBodyAhead = 8;
constexpr std::size_t kGatherAhead = 4;

BfsResult cm_bfs(const CsrMatrix& a, index_t start, std::vector<index_t>& key,
                 std::vector<index_t>& order,
                 std::vector<std::pair<index_t, index_t>>& neighbours) {
  const nnz_t* row_ptr = a.row_ptr().data();
  const std::int64_t* cols = a.col_idx().data();
  BfsResult res{start, 0};
  key[static_cast<std::size_t>(start)] =
      flip_visited(key[static_cast<std::size_t>(start)]);
  order.push_back(start);
  std::size_t level_begin = order.size() - 1;
  while (level_begin < order.size()) {
    const std::size_t level_end = order.size();
    for (std::size_t q = level_begin; q < level_end; ++q) {
      // The queue is known ahead, up to order.size(), so the search stages
      // the loads of the rows it will scan: kHeaderAhead positions ahead
      // the row header, kBodyAhead ahead (reading that header) the row's
      // column indices, and kGatherAhead ahead (reading those) the
      // neighbours' keys.  Each stage reads only what the one before it
      // prefetched, and no address leaves its array.
      const std::size_t known = order.size();
      if (q + kHeaderAhead < known)
        __builtin_prefetch(&row_ptr[order[q + kHeaderAhead]]);
      if (q + kBodyAhead < known) {
        const index_t w = order[q + kBodyAhead];
        detail::prefetch_span(cols, row_ptr[w], row_ptr[w + 1]);
      }
      if (q + kGatherAhead < known) {
        const index_t w = order[q + kGatherAhead];
        for (nnz_t t = row_ptr[w]; t < row_ptr[w + 1]; ++t)
          __builtin_prefetch(&key[static_cast<std::size_t>(cols[t])]);
      }
      const index_t u = order[q];
      neighbours.clear();
      for (nnz_t t = row_ptr[u]; t < row_ptr[u + 1]; ++t) {
        const auto v = static_cast<std::size_t>(cols[t]);
        const index_t deg = key[v];
        if (deg < 0) continue;  // visited, u itself included
        key[v] = flip_visited(deg);
        neighbours.emplace_back(deg, static_cast<index_t>(v));
      }
      // (degree, vertex) pairs: lowest degree first, ties by index.
      std::sort(neighbours.begin(), neighbours.end());
      for (const auto& [deg, v] : neighbours) order.push_back(v);
    }
    if (level_end < order.size()) {
      ++res.levels;
      res.far_vertex = order[level_end];
    }
    level_begin = level_end;
  }
  return res;
}

}  // namespace

std::vector<index_t> rcm_order(const CsrMatrix& a) {
  require(a.square(), "rcm_order: matrix must be square");
  const index_t n = a.rows();
  std::vector<index_t> key(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    key[static_cast<std::size_t>(i)] = degree(a, i);

  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<std::pair<index_t, index_t>> scratch;

  for (index_t seed = 0; seed < n; ++seed) {
    index_t& seed_key = key[static_cast<std::size_t>(seed)];
    if (seed_key < 0) continue;
    if (seed_key == 0) {
      // Isolated vertex: nothing to probe.
      seed_key = flip_visited(seed_key);
      order.push_back(seed);
      continue;
    }
    // Pseudo-peripheral start (George-Liu): BFS from the component's first
    // unvisited vertex, then restart from the farthest vertex found — two
    // passes get within a level or two of the true diameter, which is all
    // the bandwidth profile needs.  Each search appends the component to
    // `order`; a probe that is not the final search is retracted, which
    // unvisits what it appended in O(component).  The search that starts
    // where the final one would is kept as it stands: from the same vertex
    // over the same unvisited set it is that search.
    const std::size_t first = order.size();
    const auto search_from = [&](index_t from) {
      for (std::size_t k = first; k < order.size(); ++k) {
        index_t& retracted = key[static_cast<std::size_t>(order[k])];
        retracted = flip_visited(retracted);
      }
      order.resize(first);
      return cm_bfs(a, from, key, order, scratch);
    };
    const BfsResult pass1 = cm_bfs(a, seed, key, order, scratch);
    if (pass1.far_vertex != seed) {
      const BfsResult pass2 = search_from(pass1.far_vertex);
      if (pass2.levels > pass1.levels) search_from(pass2.far_vertex);
    }
  }
  // Reverse the concatenated Cuthill-McKee order.  Components are disjoint,
  // so reversing the whole sequence reverses each component's order without
  // interleaving them.
  std::reverse(order.begin(), order.end());
  return order;
}

template <class Index>
CsrMatrixT<Index> permute_symmetric(const CsrMatrix& a,
                                    const std::vector<index_t>& perm) {
  require(a.square(), "permute_symmetric: matrix must be square");
  const index_t n = a.rows();
  require(static_cast<index_t>(perm.size()) == n,
          "permute_symmetric: perm size must match the matrix dimension");
  require(index_width_fits<Index>(n),
          "permute_symmetric: dimension exceeds the index width");
  // The inverse permutation at the result's width: every new index fits it,
  // and a narrow one halves the array the remapping gathers from.
  std::vector<Index> inv(static_cast<std::size_t>(n), Index{-1});
  for (index_t i = 0; i < n; ++i) {
    const index_t o = perm[static_cast<std::size_t>(i)];
    require(o >= 0 && o < n && inv[static_cast<std::size_t>(o)] < 0,
            "permute_symmetric: perm must be a permutation of [0, n)");
    inv[static_cast<std::size_t>(o)] = static_cast<Index>(i);
  }

  // New row i is old row perm[i], its columns remapped through inv and
  // re-sorted.  Rows are appended in one pass, so no array is zero-filled
  // before it is written.
  std::vector<nnz_t> row_ptr;
  row_ptr.reserve(static_cast<std::size_t>(n) + 1);
  row_ptr.push_back(0);
  std::vector<Index> col_idx;
  std::vector<double> values;
  col_idx.reserve(static_cast<std::size_t>(a.nnz()));
  values.reserve(static_cast<std::size_t>(a.nnz()));
  std::vector<std::pair<Index, double>> entries;
  for (index_t i = 0; i < n; ++i) {
    const index_t o = perm[static_cast<std::size_t>(i)];
    const auto cols = a.row_cols(o);
    const auto vals = a.row_vals(o);
    entries.clear();
    for (std::size_t s = 0; s < cols.size(); ++s)
      entries.emplace_back(inv[static_cast<std::size_t>(cols[s])], vals[s]);
    std::sort(entries.begin(), entries.end());
    for (const auto& [c, v] : entries) {
      col_idx.push_back(c);
      values.push_back(v);
    }
    row_ptr.push_back(static_cast<nnz_t>(col_idx.size()));
  }
  return CsrMatrixT<Index>(n, n, std::move(row_ptr), std::move(col_idx),
                           std::move(values));
}

template CsrMatrix permute_symmetric<std::int64_t>(
    const CsrMatrix&, const std::vector<index_t>&);
template CsrMatrix32 permute_symmetric<std::int32_t>(
    const CsrMatrix&, const std::vector<index_t>&);

template <class Index>
GraphPartition cut_rows(const CsrMatrixT<Index>& permuted, int count) {
  const index_t n = permuted.rows();
  if (count < 1) count = 1;
  if (static_cast<index_t>(count) > n) count = static_cast<int>(n);

  GraphPartition part;
  part.lo.resize(static_cast<std::size_t>(count) + 1);
  part.lo.front() = 0;
  part.lo.back() = n;
  // Balance by nonzeros (update cost is proportional to row length, not row
  // count), then round every interior boundary UP to the cache-line
  // multiple so owned iterate slices never share a line.
  const nnz_t total = permuted.nnz();
  const nnz_t* row_ptr = permuted.row_ptr().data();
  index_t row = 0;
  for (int p = 1; p < count; ++p) {
    const nnz_t target =
        (total * static_cast<nnz_t>(p)) / static_cast<nnz_t>(count);
    while (row < n && row_ptr[row] < target) ++row;
    index_t boundary =
        ((row + kPartitionAlignRows - 1) / kPartitionAlignRows) *
        kPartitionAlignRows;
    const index_t prev = part.lo[static_cast<std::size_t>(p) - 1];
    if (boundary < prev) boundary = prev;
    if (boundary > n) boundary = n;
    part.lo[static_cast<std::size_t>(p)] = boundary;
  }

  // Halos: for each partition, every neighbour (graph edge endpoint) that
  // falls outside the owned range.  One pass over the nonzeros; dedup by
  // sort+unique per partition (halo sizes are O(boundary surface), tiny
  // next to nnz).
  part.halo.resize(static_cast<std::size_t>(count));
  for (int p = 0; p < count; ++p) {
    const index_t lo = part.lo_of(p);
    const index_t hi = lo + part.size_of(p);
    std::vector<index_t>& halo = part.halo[static_cast<std::size_t>(p)];
    for (index_t i = lo; i < hi; ++i)
      for (const auto c : permuted.row_cols(i)) {
        const index_t v = static_cast<index_t>(c);
        if (v < lo || v >= hi) halo.push_back(v);
      }
    std::sort(halo.begin(), halo.end());
    halo.erase(std::unique(halo.begin(), halo.end()), halo.end());
    halo.shrink_to_fit();
  }
  return part;
}

template GraphPartition cut_rows(const CsrMatrix&, int);
template GraphPartition cut_rows(const CsrMatrix32&, int);

PartitionAnalysis::PartitionAnalysis(const CsrMatrix& a, StoragePolicy storage)
    : perm_(rcm_order(a)) {
  if (storage == StoragePolicy::kInt32Double)
    permuted_ = permute_symmetric<std::int32_t>(a, perm_);
  else
    permuted_ = permute_symmetric(a, perm_);
}

std::shared_ptr<const GraphPartition> PartitionAnalysis::cut(int count) const {
  if (count < 1) count = 1;
  const index_t n = static_cast<index_t>(perm_.size());
  if (static_cast<index_t>(count) > n) count = static_cast<int>(n);
  const std::scoped_lock lock(mutex_);
  auto it = cuts_.find(count);
  if (it != cuts_.end()) return it->second;
  auto cut = std::make_shared<const GraphPartition>(std::visit(
      [count](const auto& permuted) { return cut_rows(permuted, count); },
      permuted_));
  cuts_.emplace(count, cut);
  return cut;
}

}  // namespace asyrgs
