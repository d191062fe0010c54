#include "asyrgs/sparse/io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "asyrgs/sparse/coo.hpp"

namespace asyrgs {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Most triplets (or vector values) reserved before any entry line is read,
/// so a size line alone never asks for more memory than its entry lines
/// then supply; larger inputs grow geometrically as entries arrive.
constexpr nnz_t kMaxReservedEntries = nnz_t{1} << 16;

/// Reads the next line that is neither empty nor a '%' comment.
bool next_content_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    const auto pos = line.find_first_not_of(" \t\r");
    if (pos == std::string::npos) continue;
    if (line[pos] == '%') continue;
    return true;
  }
  return false;
}

}  // namespace

CsrMatrix read_matrix_market(std::istream& in) {
  std::string header;
  require(static_cast<bool>(std::getline(in, header)),
          "matrix market: empty stream");
  std::istringstream hs(lower(header));
  std::string banner, object, format, field, symmetry;
  hs >> banner >> object >> format >> field >> symmetry;
  require(banner == "%%matrixmarket", "matrix market: missing banner");
  require(object == "matrix", "matrix market: object must be 'matrix'");
  require(format == "coordinate",
          "matrix market: only coordinate format supported for matrices");
  require(field == "real" || field == "integer",
          "matrix market: field must be real or integer");
  require(symmetry == "general" || symmetry == "symmetric",
          "matrix market: symmetry must be general or symmetric");
  const bool symmetric = (symmetry == "symmetric");

  std::string line;
  require(next_content_line(in, line), "matrix market: missing size line");
  std::istringstream ss(line);
  index_t rows = 0, cols = 0;
  nnz_t entries = 0;
  ss >> rows >> cols >> entries;
  require(!ss.fail(), "matrix market: malformed size line");
  require(rows > 0 && cols > 0 && entries >= 0,
          "matrix market: invalid dimensions");
  // A coordinate file lists each position at most once, so more entries
  // than rows * cols is malformed.  A product that overflows nnz_t bounds
  // nothing.
  nnz_t positions = 0;
  require(__builtin_mul_overflow(rows, cols, &positions) ||
              entries <= positions,
          "matrix market: declared entry count exceeds rows * cols");

  // The builder refuses a row count whose row offsets exceed the machine's
  // memory before anything sized by it is allocated.
  CooBuilder builder(rows, cols);
  const nnz_t reserved = std::min(entries, kMaxReservedEntries);
  builder.reserve(static_cast<std::size_t>(symmetric ? 2 * reserved : reserved));
  for (nnz_t t = 0; t < entries; ++t) {
    require(next_content_line(in, line),
            "matrix market: fewer entries than declared");
    std::istringstream es(line);
    index_t i = 0, j = 0;
    double v = 0.0;
    es >> i >> j >> v;
    require(!es.fail(), "matrix market: malformed entry line");
    if (symmetric) {
      require(i >= j, "matrix market: symmetric file must store the lower "
                      "triangle (found entry above the diagonal)");
      builder.add_symmetric(i - 1, j - 1, v);
    } else {
      builder.add(i - 1, j - 1, v);
    }
  }
  return builder.to_csr();
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), ("cannot open matrix file: " + path).c_str());
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const CsrMatrix& a) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << "% written by asyrgs\n";
  out << a.rows() << ' ' << a.cols() << ' ' << a.nnz() << '\n';
  out << std::setprecision(17);
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t t = 0; t < cols.size(); ++t)
      out << (i + 1) << ' ' << (cols[t] + 1) << ' ' << vals[t] << '\n';
  }
}

void write_matrix_market_file(const std::string& path, const CsrMatrix& a) {
  std::ofstream out(path);
  require(out.good(), ("cannot open output file: " + path).c_str());
  write_matrix_market(out, a);
}

std::vector<double> read_vector_market(std::istream& in) {
  std::string header;
  require(static_cast<bool>(std::getline(in, header)),
          "vector market: empty stream");
  std::istringstream hs(lower(header));
  std::string banner, object, format, field, symmetry;
  hs >> banner >> object >> format >> field >> symmetry;
  require(banner == "%%matrixmarket" && object == "matrix" &&
              format == "array" && (field == "real" || field == "integer"),
          "vector market: expected 'matrix array real' header");

  std::string line;
  require(next_content_line(in, line), "vector market: missing size line");
  std::istringstream ss(line);
  index_t rows = 0, cols = 0;
  ss >> rows >> cols;
  require(!ss.fail() && rows > 0 && cols == 1,
          "vector market: expected an n x 1 array");

  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(std::min(rows, kMaxReservedEntries)));
  for (index_t i = 0; i < rows; ++i) {
    require(next_content_line(in, line),
            "vector market: fewer values than declared");
    std::istringstream es(line);
    double val = 0.0;
    es >> val;
    require(!es.fail(), "vector market: malformed value line");
    v.push_back(val);
  }
  return v;
}

void write_vector_market(std::ostream& out, const std::vector<double>& v) {
  out << "%%MatrixMarket matrix array real general\n";
  out << v.size() << " 1\n";
  out << std::setprecision(17);
  for (double x : v) out << x << '\n';
}

}  // namespace asyrgs
