// Coordinate-format builder for assembling sparse matrices.
//
// Generators and file readers accumulate (i, j, value) triplets here and then
// convert to the immutable full-width CSR format (CsrMatrix).  Duplicate
// entries are summed during conversion (finite-element style assembly).
#pragma once

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "asyrgs/sparse/csr.hpp"
#include "asyrgs/support/common.hpp"

namespace asyrgs {

/// Mutable triplet accumulator.
class CooBuilder {
 public:
  /// Creates a builder for a rows x cols matrix.  Throws asyrgs::Error when
  /// a dimension is not positive, or when the row offsets to_csr allocates
  /// for `rows` exceed the machine's physical memory (coo.cpp).
  CooBuilder(index_t rows, index_t cols);

  /// Appends A(i, j) += value.
  void add(index_t i, index_t j, double value) {
    require(i >= 0 && i < rows_ && j >= 0 && j < cols_,
            "CooBuilder::add: index out of range");
    is_.push_back(i);
    js_.push_back(j);
    vs_.push_back(value);
  }

  /// Appends A(i, j) += value and, when i != j, A(j, i) += value.  Handy for
  /// assembling symmetric matrices from their lower triangle.
  void add_symmetric(index_t i, index_t j, double value) {
    add(i, j, value);
    if (i != j) add(j, i, value);
  }

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t entries() const noexcept { return is_.size(); }

  /// Reserves space for `n` triplets.
  void reserve(std::size_t n) {
    is_.reserve(n);
    js_.reserve(n);
    vs_.reserve(n);
  }

  /// Converts to CSR with sorted column indices; duplicate coordinates are
  /// summed and exact-zero results are kept (structural nonzeros).
  [[nodiscard]] CsrMatrix to_csr() const {
    const std::size_t m = is_.size();

    // Counting sort by row, then sort each row segment by column and fold
    // duplicates.  O(nnz log rowlen) overall, no global sort.  At most
    // kRowOffsetArrays arrays of rows + 1 offsets are alive at once:
    // row_count, row_start and cursor, then row_count, row_start and
    // row_ptr.
    std::vector<nnz_t> row_count(static_cast<std::size_t>(rows_) + 1, 0);
    for (std::size_t t = 0; t < m; ++t) row_count[is_[t] + 1]++;
    std::vector<nnz_t> row_start(row_count);
    std::partial_sum(row_start.begin(), row_start.end(), row_start.begin());

    std::vector<index_t> cols_tmp(m);
    std::vector<double> vals_tmp(m);
    {
      std::vector<nnz_t> cursor(row_start.begin(), row_start.end() - 1);
      for (std::size_t t = 0; t < m; ++t) {
        const nnz_t slot = cursor[is_[t]]++;
        cols_tmp[slot] = js_[t];
        vals_tmp[slot] = vs_[t];
      }
    }

    std::vector<nnz_t> row_ptr(static_cast<std::size_t>(rows_) + 1, 0);
    std::vector<index_t> col_idx;
    std::vector<double> values;
    col_idx.reserve(m);
    values.reserve(m);

    std::vector<std::pair<index_t, double>> row_buffer;
    for (index_t i = 0; i < rows_; ++i) {
      row_buffer.clear();
      for (nnz_t t = row_start[i]; t < row_start[i + 1]; ++t)
        row_buffer.emplace_back(cols_tmp[t], vals_tmp[t]);
      std::sort(row_buffer.begin(), row_buffer.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      // Fold duplicates by summation.
      for (std::size_t t = 0; t < row_buffer.size(); ++t) {
        if (!col_idx.empty() &&
            static_cast<nnz_t>(col_idx.size()) > row_ptr[i] &&
            col_idx.back() == row_buffer[t].first) {
          values.back() += row_buffer[t].second;
        } else {
          col_idx.push_back(row_buffer[t].first);
          values.push_back(row_buffer[t].second);
        }
      }
      row_ptr[i + 1] = static_cast<nnz_t>(col_idx.size());
    }

    return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx),
                     std::move(values));
  }

 private:
  /// The row-offset arrays to_csr holds at once; the constructor bounds the
  /// row count by them.
  static constexpr std::size_t kRowOffsetArrays = 3;

  index_t rows_;
  index_t cols_;
  std::vector<index_t> is_;
  std::vector<index_t> js_;
  std::vector<double> vs_;
};

}  // namespace asyrgs
