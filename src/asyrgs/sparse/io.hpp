// Matrix Market (.mtx) input/output.
//
// Supports the coordinate format with `real`/`integer` fields and
// `general`/`symmetric` symmetry, which covers the SuiteSparse-style SPD
// matrices a user would feed this solver, plus dense vector I/O in the
// `array` format so experiment artifacts can be round-tripped.  Matrices
// are read and written at full width (CsrMatrix); the prepared handles
// narrow their own copies.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "asyrgs/sparse/csr.hpp"

namespace asyrgs {

/// Reads a Matrix Market coordinate file into CSR.  Symmetric files are
/// expanded to full storage.  Throws asyrgs::Error on malformed input —
/// including a declared entry count above rows * cols, and non-finite
/// values.
[[nodiscard]] CsrMatrix read_matrix_market(std::istream& in);
[[nodiscard]] CsrMatrix read_matrix_market_file(const std::string& path);

/// Writes CSR in `matrix coordinate real general` format (values print with
/// full round-trip precision).
void write_matrix_market(std::ostream& out, const CsrMatrix& a);
void write_matrix_market_file(const std::string& path, const CsrMatrix& a);

/// Reads/writes a dense vector in `matrix array real general` format
/// (n x 1).  The reader throws asyrgs::Error on malformed input, including
/// fewer values than the size line declares.
[[nodiscard]] std::vector<double> read_vector_market(std::istream& in);
void write_vector_market(std::ostream& out, const std::vector<double>& v);

}  // namespace asyrgs
