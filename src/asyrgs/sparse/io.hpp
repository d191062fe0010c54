// Matrix Market (.mtx) input/output.
//
// Supports the coordinate format with `real`/`integer` fields and
// `general`/`symmetric` symmetry, which covers the SuiteSparse-style SPD
// matrices a user would feed this solver, plus dense vector I/O in the
// `array` format so experiment artifacts can be round-tripped.
//
// Loading is storage-policy-aware: read_matrix_market_as<Index, Value>
// parses straight into a builder of the target width — triplets are stored
// as (Index, Value) from the first entry, with the column range validated
// once at load — so reading a CsrMatrix32 never materializes full-width
// intermediates.  The unsuffixed functions keep their historical
// full-width signatures.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "asyrgs/sparse/csr.hpp"

namespace asyrgs {

/// Reads a Matrix Market coordinate file into CSR at the requested storage
/// width.  Symmetric files are expanded to full storage.  Throws
/// asyrgs::Error on malformed input — including a declared entry count
/// above rows * cols, and non-finite values — or when the declared column
/// count exceeds the index width.  (Definitions in io.cpp, instantiated for
/// the two supported policies.)
template <class Index, class Value>
[[nodiscard]] CsrMatrixT<Index, Value> read_matrix_market_as(std::istream& in);
template <class Index, class Value>
[[nodiscard]] CsrMatrixT<Index, Value> read_matrix_market_file_as(
    const std::string& path);

/// Full-width readers (historical interface).
[[nodiscard]] CsrMatrix read_matrix_market(std::istream& in);
[[nodiscard]] CsrMatrix read_matrix_market_file(const std::string& path);

/// Writes CSR in `matrix coordinate real general` format (any storage
/// policy; values print with full round-trip precision).
template <class Index, class Value>
void write_matrix_market(std::ostream& out, const CsrMatrixT<Index, Value>& a);
template <class Index, class Value>
void write_matrix_market_file(const std::string& path,
                              const CsrMatrixT<Index, Value>& a);

/// Reads/writes a dense vector in `matrix array real general` format
/// (n x 1).
[[nodiscard]] std::vector<double> read_vector_market(std::istream& in);
void write_vector_market(std::ostream& out, const std::vector<double>& v);

}  // namespace asyrgs
