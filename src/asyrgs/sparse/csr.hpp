// Immutable compressed-sparse-row matrix, parameterized on index width.
//
// This is the single matrix representation used by all solvers.  Column
// indices within each row are sorted, which the randomized solvers rely on
// for cache-friendly row scans and O(log nnz(row)) entry lookup.
//
// Storage policy: `CsrMatrixT<Index, Value>` selects the width of the stored
// column indices.  Two policies are supported (anything else is rejected at
// compile time); values are always double:
//
//   CsrMatrix       = CsrMatrixT<int64, double>  full-width (the historical
//                                                layout; source-compatible)
//   CsrMatrix32     = CsrMatrixT<int32, double>  compact indices
//
// Only the *stored* column indices narrow: dimensions stay index_t and row
// pointers stay nnz_t.  The int32 arithmetic is bit-identical to the
// full-width layout (same doubles, same association), and the paper's
// convergence theory is indifferent to the index width.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "asyrgs/support/common.hpp"

namespace asyrgs {

// ---------------------------------------------------------------------------
// Storage policy
// ---------------------------------------------------------------------------

/// The two supported (Index, Value) storage layouts, as a runtime tag —
/// what prepared handles record and the bench/trace layers report.
enum class StoragePolicy {
  kInt64Double,  ///< int64 indices, double values (full width)
  kInt32Double,  ///< int32 indices, double values (bit-identical math)
};

/// Stable machine-readable policy name ("int64_double", "int32_double") —
/// used verbatim in bench JSON and trace events.
[[nodiscard]] constexpr const char* to_string(StoragePolicy policy) noexcept {
  switch (policy) {
    case StoragePolicy::kInt64Double:
      return "int64_double";
    case StoragePolicy::kInt32Double:
      return "int32_double";
  }
  return "?";
}

namespace detail {

template <class Index, class Value>
inline constexpr bool kSupportedStorage =
    (std::is_same_v<Index, std::int64_t> ||
     std::is_same_v<Index, std::int32_t>) &&
    std::is_same_v<Value, double>;

template <class Index, class Value>
[[nodiscard]] constexpr StoragePolicy storage_policy_of() noexcept {
  static_assert(kSupportedStorage<Index, Value>,
                "CsrMatrixT: supported storage policies are <int64,double> "
                "and <int32,double>");
  if constexpr (std::is_same_v<Index, std::int64_t>)
    return StoragePolicy::kInt64Double;
  else
    return StoragePolicy::kInt32Double;
}

/// Re-installation guard for transpose-cache slots stolen by a move; shared
/// by every CsrMatrixT instantiation (the path is cold — see
/// transpose_shared).
[[nodiscard]] inline std::mutex& transpose_slot_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace detail

/// True when a matrix with `cols` columns can store every column index as
/// `Index` (indices run 0 .. cols-1).  The overflow guard behind prepare-time
/// narrowing: int32 admits up to 2^31 columns.
template <class Index>
[[nodiscard]] constexpr bool index_width_fits(index_t cols) noexcept {
  return cols - 1 <= static_cast<index_t>(std::numeric_limits<Index>::max());
}

// ---------------------------------------------------------------------------
// Raw CSR row kernels
// ---------------------------------------------------------------------------
//
// The innermost loops of every solver are scans of one CSR row against a
// dense vector.  These free kernels take raw `__restrict`-qualified arrays —
// CSR index/value storage never aliases the dense operand — so the compiler
// can keep the row pointers in registers and schedule the loads freely.
// They are shared by the sequential solvers (rgs, rcd_lsq), SpMV, and the
// benches; the asynchronous kernels use their own variants with
// relaxed-atomic reads of the shared iterate.  Both are templated over the
// stored index width only: every policy stores double values.

/// Sum of vals[t] * x[cols[t]] over one row (SpMV / dot building block).
template <class Index>
[[nodiscard]] inline double csr_row_dot(const Index* __restrict cols,
                                        const double* __restrict vals,
                                        nnz_t len,
                                        const double* __restrict x) noexcept {
  double acc = 0.0;
  for (nnz_t t = 0; t < len; ++t) acc += vals[t] * x[cols[t]];
  return acc;
}

/// acc minus the row/vector products, one subtraction per nonzero — the
/// canonical Gauss-Seidel association (`acc = b_r`, then acc -= A_rj x_j in
/// column order) that every solver shares so equal-seed runs agree bit for
/// bit (per storage policy; int32/double reproduces int64/double exactly).
template <class Index>
[[nodiscard]] inline double csr_row_sub_dot(
    double acc, const Index* __restrict cols, const double* __restrict vals,
    nnz_t len, const double* __restrict x) noexcept {
  for (nnz_t t = 0; t < len; ++t) acc -= vals[t] * x[cols[t]];
  return acc;
}

/// Sparse rows x cols matrix in CSR format with sorted column indices,
/// parameterized on the stored index width (see the header comment for the
/// two supported policies and their aliases).
///
/// Thread-safety: immutable after construction — every member below is
/// const and allocation-free, so one matrix may be shared by any number
/// of concurrent solver teams (the asynchronous solvers rely on this).
template <class Index, class Value>
class CsrMatrixT {
  static_assert(detail::kSupportedStorage<Index, Value>,
                "CsrMatrixT: supported storage policies are <int64,double> "
                "and <int32,double>");

 public:
  using index_type = Index;
  using value_type = Value;
  /// This instantiation's policy tag.
  static constexpr StoragePolicy kStorage =
      detail::storage_policy_of<Index, Value>();

  // Empty matrix; installs the transpose-cache slot eagerly (see
  // transpose_shared).
  CsrMatrixT() : transpose_cache_(std::make_shared<TransposeCache>()) {}

  /// Takes ownership of pre-built CSR arrays.  Validates monotone row
  /// pointers, in-range sorted column indices, finite values, and array
  /// sizes; throws asyrgs::Error on malformed input.  Every loaded,
  /// generated, assembled, transposed or narrowed matrix passes through
  /// here, so no solver ever sees a NaN or infinite entry.
  CsrMatrixT(index_t rows, index_t cols, std::vector<nnz_t> row_ptr,
             std::vector<Index> col_idx, std::vector<Value> values)
      : rows_(rows),
        cols_(cols),
        row_ptr_(std::move(row_ptr)),
        col_idx_(std::move(col_idx)),
        values_(std::move(values)),
        transpose_cache_(std::make_shared<TransposeCache>()) {
    require(rows_ > 0 && cols_ > 0, "CsrMatrix: dimensions must be positive");
    require(row_ptr_.size() == static_cast<std::size_t>(rows_) + 1,
            "CsrMatrix: row_ptr must have rows+1 entries");
    require(row_ptr_.front() == 0, "CsrMatrix: row_ptr must start at 0");
    require(col_idx_.size() == values_.size(),
            "CsrMatrix: col_idx/values size mismatch");
    require(row_ptr_.back() == static_cast<nnz_t>(col_idx_.size()),
            "CsrMatrix: row_ptr end does not match nnz");
    for (index_t i = 0; i < rows_; ++i) {
      require(row_ptr_[i] <= row_ptr_[i + 1],
              "CsrMatrix: row_ptr must be non-decreasing");
      for (nnz_t t = row_ptr_[i]; t < row_ptr_[i + 1]; ++t) {
        require(col_idx_[t] >= 0 && static_cast<index_t>(col_idx_[t]) < cols_,
                "CsrMatrix: column index out of range");
        if (t > row_ptr_[i])
          require(col_idx_[t - 1] < col_idx_[t],
                  "CsrMatrix: columns must be strictly increasing in each row");
        require(std::isfinite(values_[t]),
                "CsrMatrix: values must be finite (NaN or infinity found)");
      }
    }
  }

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] nnz_t nnz() const noexcept {
    return row_ptr_.empty() ? 0 : row_ptr_.back();
  }
  [[nodiscard]] bool square() const noexcept { return rows_ == cols_; }

  /// Row i as spans over (column indices, values).
  [[nodiscard]] std::span<const Index> row_cols(index_t i) const noexcept {
    return {col_idx_.data() + row_ptr_[i],
            static_cast<std::size_t>(row_ptr_[i + 1] - row_ptr_[i])};
  }
  [[nodiscard]] std::span<const Value> row_vals(index_t i) const noexcept {
    return {values_.data() + row_ptr_[i],
            static_cast<std::size_t>(row_ptr_[i + 1] - row_ptr_[i])};
  }
  [[nodiscard]] nnz_t row_nnz(index_t i) const noexcept {
    return row_ptr_[i + 1] - row_ptr_[i];
  }

  [[nodiscard]] const std::vector<nnz_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<Index>& col_idx() const noexcept {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<Value>& values() const noexcept {
    return values_;
  }

  /// A(i, j), zero when the entry is not stored (binary search over the
  /// sorted row).
  [[nodiscard]] double at(index_t i, index_t j) const {
    require(i >= 0 && i < rows_ && j >= 0 && j < cols_,
            "CsrMatrix::at: index out of range");
    const auto cols = row_cols(i);
    const auto it = std::lower_bound(cols.begin(), cols.end(),
                                     static_cast<Index>(j));
    if (it == cols.end() || *it != static_cast<Index>(j)) return 0.0;
    return values_[row_ptr_[i] + (it - cols.begin())];
  }

  /// Dot product of row i with dense vector x (serial building block of both
  /// SpMV and the Gauss-Seidel update gamma = b_r - A_r x).
  [[nodiscard]] double row_dot(index_t i, const double* x) const noexcept {
    const nnz_t lo = row_ptr_[i];
    return csr_row_dot(col_idx_.data() + lo, values_.data() + lo,
                       row_ptr_[i + 1] - lo, x);
  }

  /// y = A x (serial reference implementation; see sparse/spmv.hpp for the
  /// parallel kernels).
  void multiply(const double* x, double* y) const {
    for (index_t i = 0; i < rows_; ++i) y[i] = row_dot(i, x);
  }

  /// y = A^T x (serial; y must have cols() entries).
  void multiply_transpose(const double* x, double* y) const {
    std::fill(y, y + cols_, 0.0);
    for (index_t i = 0; i < rows_; ++i) {
      const double xi = x[i];
      if (xi == 0.0) continue;
      for (nnz_t t = row_ptr_[i]; t < row_ptr_[i + 1]; ++t)
        y[col_idx_[t]] += values_[t] * xi;
    }
  }

  /// Main diagonal as a dense double vector (zeros for missing entries;
  /// requires a square matrix).
  [[nodiscard]] std::vector<double> diagonal() const {
    require(square(), "CsrMatrix::diagonal: matrix must be square");
    std::vector<double> d(static_cast<std::size_t>(rows_), 0.0);
    for (index_t i = 0; i < rows_; ++i) d[i] = at(i, i);
    return d;
  }

  /// Explicit transpose (used to give the least-squares solver column access
  /// to A via CSR rows of A^T).  For narrow-index policies the transpose
  /// stores *row* indices as Index, so rows() must fit the index width too.
  [[nodiscard]] CsrMatrixT transpose() const {
    require(index_width_fits<Index>(rows_),
            "CsrMatrix::transpose: row count exceeds the index width");
    std::vector<nnz_t> t_row_ptr(static_cast<std::size_t>(cols_) + 1, 0);
    for (Index c : col_idx_) t_row_ptr[static_cast<index_t>(c) + 1]++;
    for (index_t j = 0; j < cols_; ++j) t_row_ptr[j + 1] += t_row_ptr[j];

    std::vector<Index> t_col(col_idx_.size());
    std::vector<Value> t_val(values_.size());
    std::vector<nnz_t> cursor(t_row_ptr.begin(), t_row_ptr.end() - 1);
    // Walking rows in order writes each transposed row's entries in
    // increasing original-row order, so column indices stay sorted.
    for (index_t i = 0; i < rows_; ++i) {
      for (nnz_t t = row_ptr_[i]; t < row_ptr_[i + 1]; ++t) {
        const nnz_t slot = cursor[col_idx_[t]]++;
        t_col[slot] = static_cast<Index>(i);
        t_val[slot] = values_[t];
      }
    }
    return CsrMatrixT(cols_, rows_, std::move(t_row_ptr), std::move(t_col),
                      std::move(t_val));
  }

  /// The transpose, built at most once per matrix and cached (the matrix is
  /// immutable, so the cached value can never go stale).  Thread-safe:
  /// concurrent first calls build exactly one instance; later calls are a
  /// shared_ptr copy.  Copies of the matrix share the cache.  This is the
  /// amortization path behind the prepared least-squares handles — every
  /// LsqProblem against one matrix shares the O(nnz) transpose, built a
  /// single time.  The cached transpose
  /// stays resident for the matrix's lifetime (~nnz extra memory); callers
  /// that need A^T exactly once and care about footprint should call
  /// transpose() instead.  `built_now` (optional) is set to whether THIS
  /// call constructed the transpose — race-free, unlike checking
  /// transpose_cached() before and after.
  [[nodiscard]] std::shared_ptr<const CsrMatrixT> transpose_shared(
      bool* built_now = nullptr) const {
    if (!transpose_cache_) {  // moved-from only; see constructor
      const std::scoped_lock lock(detail::transpose_slot_mutex());
      if (!transpose_cache_)
        transpose_cache_ = std::make_shared<TransposeCache>();
    }
    TransposeCache& cache = *transpose_cache_;
    const std::scoped_lock lock(cache.mutex);
    const bool building = cache.value == nullptr;
    if (building) cache.value = std::make_shared<const CsrMatrixT>(transpose());
    if (built_now != nullptr) *built_now = building;
    return cache.value;
  }

  /// True when transpose_shared() has already built (and cached) the
  /// transpose.  Thread-safe; exposed so tests can assert single
  /// construction.
  [[nodiscard]] bool transpose_cached() const {
    const std::shared_ptr<TransposeCache> slot = transpose_cache_;
    if (!slot) return false;
    const std::scoped_lock lock(slot->mutex);
    return slot->value != nullptr;
  }

  /// Deep equality of dimensions, structure, and values.
  [[nodiscard]] bool equals(const CsrMatrixT& other, double tol = 0.0) const {
    if (rows_ != other.rows_ || cols_ != other.cols_) return false;
    if (row_ptr_ != other.row_ptr_ || col_idx_ != other.col_idx_) return false;
    for (std::size_t t = 0; t < values_.size(); ++t)
      if (std::abs(values_[t] - other.values_[t]) > tol) return false;
    return true;
  }

 private:
  /// One-shot cache slot for the transpose.  Heap-allocated and shared
  /// between copies of the matrix (copies have identical values, so sharing
  /// is sound).  The per-slot mutex guards `value` so concurrent first
  /// builds construct exactly one transpose and concurrent readers never
  /// race the writer.
  struct TransposeCache {
    std::mutex mutex;
    std::shared_ptr<const CsrMatrixT> value;
  };

  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<nnz_t> row_ptr_;  // size rows_ + 1
  std::vector<Index> col_idx_;  // size nnz
  std::vector<Value> values_;   // size nnz
  /// Installed eagerly by every constructor (so the pointer itself is
  /// immutable after construction — copies share the slot, and concurrent
  /// copy/transpose_shared cannot race on it; only moved-from matrices are
  /// left with a null slot, re-installed lazily).  Mutable because caching
  /// the transpose is logically const.
  mutable std::shared_ptr<TransposeCache> transpose_cache_;
};

/// Full-width storage: the historical layout and the source-compatible
/// default everywhere a bare `CsrMatrix` is named.
using CsrMatrix = CsrMatrixT<std::int64_t, double>;
/// Compact indices, the same double values.  Solves on this policy are
/// bit-identical to CsrMatrix (same doubles, same association).
using CsrMatrix32 = CsrMatrixT<std::int32_t, double>;

/// Rebuilds `a` under another storage policy.  Indices must fit the target
/// width — throws asyrgs::Error when cols() exceeds it (the overflow guard
/// the prepared handles rely on for their automatic narrowing).
template <class ToIndex, class ToValue, class FromIndex, class FromValue>
[[nodiscard]] CsrMatrixT<ToIndex, ToValue> convert_storage(
    const CsrMatrixT<FromIndex, FromValue>& a) {
  require(index_width_fits<ToIndex>(a.cols()),
          "convert_storage: column count exceeds the target index width");
  std::vector<ToIndex> col_idx(a.col_idx().size());
  for (std::size_t t = 0; t < col_idx.size(); ++t)
    col_idx[t] = static_cast<ToIndex>(a.col_idx()[t]);
  std::vector<ToValue> values(a.values().size());
  for (std::size_t t = 0; t < values.size(); ++t)
    values[t] = static_cast<ToValue>(a.values()[t]);
  return CsrMatrixT<ToIndex, ToValue>(a.rows(), a.cols(), a.row_ptr(),
                                      std::move(col_idx), std::move(values));
}

/// Result of removing structurally empty columns.
template <class Index, class Value>
struct ColumnCompressionT {
  CsrMatrixT<Index, Value> matrix;   ///< same rows, empty columns removed
  std::vector<index_t> kept_columns; ///< new column c was old kept_columns[c]
};

using ColumnCompression = ColumnCompressionT<std::int64_t, double>;

/// Removes columns with no stored entries.  The paper preprocesses its data
/// matrix the same way ("after removing rows and columns that were
/// identically zero"); required by the least-squares solvers, which assume
/// full column rank.
template <class Index, class Value>
[[nodiscard]] ColumnCompressionT<Index, Value> drop_empty_columns(
    const CsrMatrixT<Index, Value>& a) {
  std::vector<char> used(static_cast<std::size_t>(a.cols()), 0);
  for (Index c : a.col_idx()) used[static_cast<std::size_t>(c)] = 1;

  ColumnCompressionT<Index, Value> out;
  std::vector<Index> new_index(static_cast<std::size_t>(a.cols()),
                               static_cast<Index>(-1));
  for (index_t c = 0; c < a.cols(); ++c) {
    if (used[static_cast<std::size_t>(c)]) {
      new_index[static_cast<std::size_t>(c)] =
          static_cast<Index>(out.kept_columns.size());
      out.kept_columns.push_back(c);
    }
  }
  require(!out.kept_columns.empty(), "drop_empty_columns: matrix is all zero");

  std::vector<Index> col_idx(a.col_idx());
  for (Index& c : col_idx) c = new_index[static_cast<std::size_t>(c)];
  out.matrix = CsrMatrixT<Index, Value>(
      a.rows(), static_cast<index_t>(out.kept_columns.size()), a.row_ptr(),
      std::move(col_idx), std::vector<Value>(a.values()));
  return out;
}

}  // namespace asyrgs
