#include "asyrgs/gen/partition.hpp"

#include <algorithm>
#include <variant>
#include <utility>

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

/// BFS from `start` over unvisited vertices, visiting neighbours in
/// increasing-degree order (the Cuthill-McKee visit rule).  Appends the
/// component's vertices to `order` in visit order, marks them visited, and
/// reports the last level's first vertex and the eccentricity — the inputs
/// the pseudo-peripheral search needs.
struct BfsResult {
  index_t far_vertex;
  index_t levels;
  std::size_t first_appended;  ///< order.size() before this component ran
};

BfsResult cm_bfs(const CsrMatrix& a, const std::vector<index_t>& deg,
                 index_t start, std::vector<char>& visited,
                 std::vector<index_t>& order,
                 std::vector<index_t>& neighbour_scratch) {
  BfsResult res{start, 0, order.size()};
  visited[static_cast<std::size_t>(start)] = 1;
  order.push_back(start);
  std::size_t level_begin = res.first_appended;
  while (level_begin < order.size()) {
    const std::size_t level_end = order.size();
    for (std::size_t q = level_begin; q < level_end; ++q) {
      const index_t u = order[q];
      neighbour_scratch.clear();
      for (const auto c : a.row_cols(u)) {
        const index_t v = static_cast<index_t>(c);
        if (v == u || visited[static_cast<std::size_t>(v)]) continue;
        visited[static_cast<std::size_t>(v)] = 1;
        neighbour_scratch.push_back(v);
      }
      std::sort(neighbour_scratch.begin(), neighbour_scratch.end(),
                [&deg](index_t x, index_t y) {
                  const index_t dx = deg[static_cast<std::size_t>(x)];
                  const index_t dy = deg[static_cast<std::size_t>(y)];
                  return dx != dy ? dx < dy : x < y;
                });
      for (const index_t v : neighbour_scratch) order.push_back(v);
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
  std::vector<index_t> deg(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    deg[static_cast<std::size_t>(i)] = degree(a, i);

  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<index_t> scratch;
  std::vector<index_t> probe_order;
  // A probe BFS marks only vertices of the current component, all of them
  // unvisited before it, so unmarking what it appended restores `visited`
  // in O(component) — no per-component copy of the whole array.
  const auto probe = [&](index_t from) {
    probe_order.clear();
    const BfsResult res = cm_bfs(a, deg, from, visited, probe_order, scratch);
    for (const index_t v : probe_order)
      visited[static_cast<std::size_t>(v)] = 0;
    return res;
  };

  for (index_t seed = 0; seed < n; ++seed) {
    if (visited[static_cast<std::size_t>(seed)]) continue;
    if (deg[static_cast<std::size_t>(seed)] == 0) {
      // Isolated vertex: nothing to probe.
      visited[static_cast<std::size_t>(seed)] = 1;
      order.push_back(seed);
      continue;
    }
    // Pseudo-peripheral start (George-Liu): BFS from the component's first
    // unvisited vertex, then restart from the farthest vertex found — two
    // passes get within a level or two of the true diameter, which is all
    // the bandwidth profile needs.
    const BfsResult pass1 = probe(seed);
    index_t start = pass1.far_vertex;
    if (start != seed) {
      const BfsResult pass2 = probe(start);
      if (pass2.levels > pass1.levels) start = pass2.far_vertex;
    }
    cm_bfs(a, deg, start, visited, order, scratch);
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
  std::vector<index_t> inv(static_cast<std::size_t>(n), -1);
  for (index_t i = 0; i < n; ++i) {
    const index_t o = perm[static_cast<std::size_t>(i)];
    require(o >= 0 && o < n && inv[static_cast<std::size_t>(o)] < 0,
            "permute_symmetric: perm must be a permutation of [0, n)");
    inv[static_cast<std::size_t>(o)] = i;
  }

  std::vector<nnz_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (index_t i = 0; i < n; ++i)
    row_ptr[static_cast<std::size_t>(i) + 1] =
        row_ptr[static_cast<std::size_t>(i)] +
        static_cast<nnz_t>(a.row_cols(perm[static_cast<std::size_t>(i)]).size());
  const std::size_t nnz = static_cast<std::size_t>(row_ptr.back());
  std::vector<Index> col_idx(nnz);
  std::vector<double> values(nnz);
  std::vector<std::pair<Index, double>> entries;
  for (index_t i = 0; i < n; ++i) {
    const index_t o = perm[static_cast<std::size_t>(i)];
    const auto cols = a.row_cols(o);
    const auto vals = a.row_vals(o);
    entries.clear();
    entries.reserve(cols.size());
    for (std::size_t s = 0; s < cols.size(); ++s)
      entries.emplace_back(
          static_cast<Index>(
              inv[static_cast<std::size_t>(static_cast<index_t>(cols[s]))]),
          vals[s]);
    std::sort(entries.begin(), entries.end());
    const std::size_t base =
        static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(i)]);
    for (std::size_t s = 0; s < entries.size(); ++s) {
      col_idx[base + s] = entries[s].first;
      values[base + s] = entries[s].second;
    }
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
