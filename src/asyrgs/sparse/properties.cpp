#include "asyrgs/sparse/properties.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace asyrgs {

RowNnzStats row_nnz_stats(const CsrMatrix& a) {
  RowNnzStats s;
  s.min = std::numeric_limits<nnz_t>::max();
  for (index_t i = 0; i < a.rows(); ++i) {
    const nnz_t c = a.row_nnz(i);
    s.min = std::min(s.min, c);
    s.max = std::max(s.max, c);
  }
  s.mean = static_cast<double>(a.nnz()) / static_cast<double>(a.rows());
  s.ratio = static_cast<double>(s.max) /
            static_cast<double>(std::max<nnz_t>(s.min, 1));
  return s;
}

double inf_norm(const CsrMatrix& a) {
  double best = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    double row_sum = 0.0;
    for (double v : a.row_vals(i)) row_sum += std::abs(v);
    best = std::max(best, row_sum);
  }
  return best;
}

double frobenius_norm(const CsrMatrix& a) {
  double acc = 0.0;
  for (double v : a.values()) acc += v * v;
  return std::sqrt(acc);
}

double rho(const CsrMatrix& a) {
  require(a.square(), "rho: matrix must be square");
  return inf_norm(a) / static_cast<double>(a.rows());
}

double rho2(const CsrMatrix& a) {
  require(a.square(), "rho2: matrix must be square");
  double best = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    double row_sum = 0.0;
    for (double v : a.row_vals(i)) row_sum += v * v;
    best = std::max(best, row_sum);
  }
  return best / static_cast<double>(a.rows());
}

bool is_symmetric(const CsrMatrix& a, double tol) {
  return a.square() && symmetry_scan(a).symmetric_within(tol);
}

SymmetryScan symmetry_scan(const CsrMatrix& a) {
  require(a.square(), "symmetry_scan: matrix must be square");
  const index_t n = a.rows();
  const nnz_t* row_ptr = a.row_ptr().data();
  const std::int64_t* col_idx = a.col_idx().data();
  const double* values = a.values().data();
  SymmetryScan scan;
  scan.diagonal.resize(static_cast<std::size_t>(n));
  // The merge.  Visiting rows in order asks row j for its entries in
  // increasing column order (entry (i, j) wants its mirror (j, i), and i
  // only grows), so one cursor per row finds every mirror without building
  // A^T.  Each matched mirror advances its cursor; nnz successful matches
  // consume every entry, so no entry can be left without a partner.  The
  // merge stops at the first entry without a mirror; the diagonal and the
  // row sums still see every entry.  Locals, not `scan`'s members, carry
  // the pass: a store through `scan` could alias `values`.
  std::vector<nnz_t> cursor(row_ptr, row_ptr + n);
  bool mirrored = true;
  double max_gap = scan.max_gap;
  double norm = 0.0;
  for (index_t i = 0; i < n; ++i) {
    double diag = 0.0, row_sum = 0.0;
    for (nnz_t t = row_ptr[i]; t < row_ptr[i + 1]; ++t) {
      const index_t j = col_idx[t];
      if (j == i) diag = values[t];
      row_sum += std::abs(values[t]);  // inf_norm's order of summation
      if (!mirrored) continue;
      nnz_t& mirror = cursor[j];
      if (mirror == row_ptr[j + 1] || col_idx[mirror] != i) {
        mirrored = false;
        continue;
      }
      // Same pair, same order of subtraction as a.equals(a.transpose(), tol).
      const double gap = std::abs(values[t] - values[mirror]);
      if (gap > max_gap) max_gap = gap;
      ++mirror;
    }
    scan.diagonal[static_cast<std::size_t>(i)] = diag;
    norm = std::max(norm, row_sum);
  }
  scan.inf_norm = norm;
  scan.mirrored = mirrored;
  scan.max_gap = max_gap;
  return scan;
}

bool is_strictly_diagonally_dominant(const CsrMatrix& a) {
  if (!a.square()) return false;
  for (index_t i = 0; i < a.rows(); ++i) {
    double diag = 0.0, off = 0.0;
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t t = 0; t < cols.size(); ++t) {
      if (cols[t] == i)
        diag = std::abs(vals[t]);
      else
        off += std::abs(vals[t]);
    }
    if (!(diag > off)) return false;
  }
  return true;
}

bool is_weakly_diagonally_dominant(const CsrMatrix& a) {
  if (!a.square()) return false;
  bool some_strict = false;
  for (index_t i = 0; i < a.rows(); ++i) {
    double diag = 0.0, off = 0.0;
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t t = 0; t < cols.size(); ++t) {
      if (cols[t] == i)
        diag = std::abs(vals[t]);
      else
        off += std::abs(vals[t]);
    }
    if (diag < off) return false;
    if (diag > off) some_strict = true;
  }
  return some_strict;
}

}  // namespace asyrgs
