#include "asyrgs/sparse/csr.hpp"

namespace asyrgs {

// Anchor one instantiation of each supported index width in this TU so a
// member that fails to compile for the narrow width surfaces here instead
// of in whichever consumer first touches it.
template class CsrMatrixT<std::int64_t>;
template class CsrMatrixT<std::int32_t>;

ColumnCompression drop_empty_columns(const CsrMatrix& a) {
  std::vector<char> used(static_cast<std::size_t>(a.cols()), 0);
  for (index_t c : a.col_idx()) used[static_cast<std::size_t>(c)] = 1;

  ColumnCompression out;
  std::vector<index_t> new_index(static_cast<std::size_t>(a.cols()), -1);
  for (index_t c = 0; c < a.cols(); ++c) {
    if (used[static_cast<std::size_t>(c)]) {
      new_index[static_cast<std::size_t>(c)] =
          static_cast<index_t>(out.kept_columns.size());
      out.kept_columns.push_back(c);
    }
  }
  require(!out.kept_columns.empty(), "drop_empty_columns: matrix is all zero");

  std::vector<index_t> col_idx(a.col_idx());
  for (index_t& c : col_idx) c = new_index[static_cast<std::size_t>(c)];
  out.matrix =
      CsrMatrix(a.rows(), static_cast<index_t>(out.kept_columns.size()),
                a.row_ptr(), std::move(col_idx), a.values());
  return out;
}

}  // namespace asyrgs
