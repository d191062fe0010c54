// Matrix Market I/O tests: round trips, symmetric expansion, malformed
// input rejection, and a seeded mutation sweep over small valid files.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include "asyrgs/gen/laplacian.hpp"
#include "asyrgs/sparse/coo.hpp"
#include "asyrgs/sparse/io.hpp"
#include "asyrgs/support/prng.hpp"

namespace asyrgs {
namespace {

TEST(Io, GeneralRoundTrip) {
  const CsrMatrix a = laplacian_2d(6, 5);
  std::stringstream buf;
  write_matrix_market(buf, a);
  const CsrMatrix back = read_matrix_market(buf);
  EXPECT_TRUE(a.equals(back, 0.0));
}

TEST(Io, ReadsSymmetricLowerTriangleAndExpands) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "% a comment line\n"
      "3 3 4\n"
      "1 1 2.0\n"
      "2 1 -1.0\n"
      "2 2 2.0\n"
      "3 3 2.0\n");
  const CsrMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_DOUBLE_EQ(m.at(0, 1), -1.0);  // mirrored entry
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_EQ(m.nnz(), 5);
}

TEST(Io, RejectsUpperTriangleInSymmetricFile) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 1\n"
      "1 2 5.0\n");
  EXPECT_THROW(read_matrix_market(in), Error);
}

TEST(Io, RejectsMalformedHeaders) {
  {
    std::stringstream in("%%NotMatrixMarket matrix coordinate real general\n");
    EXPECT_THROW(read_matrix_market(in), Error);
  }
  {
    std::stringstream in("%%MatrixMarket matrix array real general\n2 2\n");
    EXPECT_THROW(read_matrix_market(in), Error);
  }
  {
    std::stringstream in(
        "%%MatrixMarket matrix coordinate complex general\n1 1 0\n");
    EXPECT_THROW(read_matrix_market(in), Error);
  }
  {
    std::stringstream in("");
    EXPECT_THROW(read_matrix_market(in), Error);
  }
}

TEST(Io, RejectsTruncatedEntryList) {
  std::stringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in), Error);
}

TEST(Io, RejectsEntryCountAboveRowsTimesCols) {
  // A 3x3 file has 9 positions; a size line declaring more is malformed and
  // must fail as asyrgs::Error before anything is reserved for it.
  std::stringstream general(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 4000000000000000000\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(general), Error);
  // Symmetric files reserve room for the mirrored entries; 2 * 5e18 would
  // overflow nnz_t.
  std::stringstream symmetric(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 5000000000000000000\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(symmetric), Error);
  std::stringstream one_over(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 10\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(one_over), Error);
}

TEST(Io, LargeDeclaredCountFailsOnTheMissingEntries) {
  // 2^40 entries is within rows * cols = 2^42 here, so only the stream can
  // refute it: the loader must not reserve for the declaration up front.
  std::stringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2097152 2097152 1099511627776\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in), Error);
}

TEST(Io, RejectsNonFiniteValues) {
  // Summed duplicates overflow to +inf: (1,2) = 1e308 + 1e308.
  std::stringstream overflow(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 6\n"
      "1 1 4.0\n"
      "1 2 1e308\n"
      "1 2 1e308\n"
      "2 1 1.0\n"
      "2 2 4.0\n"
      "3 3 4.0\n");
  EXPECT_THROW(read_matrix_market(overflow), Error);
  std::stringstream overflow_narrow(overflow.str());
  EXPECT_THROW((read_matrix_market_as<std::int32_t, double>(overflow_narrow)),
               Error);
}

TEST(Io, CaseInsensitiveHeaderAndIntegerField) {
  std::stringstream in(
      "%%matrixmarket MATRIX Coordinate Integer General\n"
      "2 2 2\n"
      "1 1 3\n"
      "2 2 4\n");
  const CsrMatrix m = read_matrix_market(in);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 4.0);
}

TEST(Io, VectorRoundTrip) {
  const std::vector<double> v = {1.5, -2.25, 0.0, 1e-17};
  std::stringstream buf;
  write_vector_market(buf, v);
  const std::vector<double> back = read_vector_market(buf);
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_DOUBLE_EQ(back[i], v[i]);
}

TEST(Io, VectorRejectsMultiColumnArray) {
  std::stringstream in(
      "%%MatrixMarket matrix array real general\n"
      "2 2\n1\n2\n3\n4\n");
  EXPECT_THROW(read_vector_market(in), Error);
}

TEST(Io, FileRoundTripThroughDisk) {
  const CsrMatrix a = laplacian_1d(17);
  const std::string path = "/tmp/asyrgs_io_test.mtx";
  write_matrix_market_file(path, a);
  const CsrMatrix back = read_matrix_market_file(path);
  EXPECT_TRUE(a.equals(back, 0.0));
  EXPECT_THROW(read_matrix_market_file("/nonexistent/nope.mtx"), Error);
}

// --- seeded mutations: every parse returns a matrix or throws Error --------
//
// Small valid files, mutated one edit at a time and in short seeded chains:
// edge-value tokens, truncation, dropped and duplicated lines.  Whatever the
// result, the loader may only return a matrix or throw asyrgs::Error — never
// std::length_error, std::bad_alloc, or anything else a caller would not
// expect from malformed input.

const char kGeneralFile[] =
    "%%MatrixMarket matrix coordinate real general\n"
    "% comment line\n"
    "3 3 5\n"
    "1 1 4.0\n"
    "1 2 -1.0\n"
    "2 1 -1.0\n"
    "2 2 4.0\n"
    "3 3 4.0\n";

const char kSymmetricFile[] =
    "%%MatrixMarket matrix coordinate real symmetric\n"
    "3 3 4\n"
    "1 1 2.0\n"
    "2 1 -1.0\n"
    "2 2 2.0\n"
    "3 3 2.0\n";

const char* const kEdgeTokens[] = {"0", "-1", "2147483648",
                                   "9223372036854775807", "x7"};
constexpr std::size_t kTwoPow31 = 2;  // index of "2147483648" above

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(text);
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

/// The edge value for token `t` of some line.  A first token never takes
/// 2^31: once the size line is dropped any line can become it, and a 2^31
/// row count is a legal declaration whose CSR row pointers alone need
/// 16 GB — a resource limit, not malformed input.
const char* edge_token(std::size_t t, std::size_t pick) {
  return kEdgeTokens[t == 0 && pick == kTwoPow31 ? pick + 1 : pick];
}

/// Parses `text` at both index widths; any exception other than
/// asyrgs::Error fails the test.
void expect_matrix_or_error(const std::string& text) {
  const auto attempt = [&](auto parse) {
    std::istringstream in(text);
    try {
      (void)parse(in);
    } catch (const Error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-asyrgs exception: " << e.what() << "\non input:\n"
                    << text;
    }
  };
  attempt([](std::istream& in) { return read_matrix_market(in); });
  attempt([](std::istream& in) {
    return read_matrix_market_as<std::int32_t, double>(in);
  });
}

TEST(IoMutation, EverySingleTokenEdgeValueParsesOrThrowsError) {
  for (const char* base : {kGeneralFile, kSymmetricFile}) {
    const std::vector<std::string> lines = split(base, '\n');
    for (std::size_t l = 0; l < lines.size(); ++l) {
      const std::vector<std::string> tokens = split(lines[l], ' ');
      for (std::size_t t = 0; t < tokens.size(); ++t) {
        for (std::size_t e = 0; e < std::size(kEdgeTokens); ++e) {
          std::vector<std::string> mutated_tokens = tokens;
          mutated_tokens[t] = edge_token(t, e);
          std::vector<std::string> mutated = lines;
          mutated[l] = join(mutated_tokens, " ");
          expect_matrix_or_error(join(mutated, "\n") + "\n");
        }
      }
    }
  }
}

/// One seeded edit: an edge-value token, a truncation, or a dropped or
/// duplicated line.
std::string mutate(const std::string& text, Xoshiro256& rng) {
  std::vector<std::string> lines = split(text, '\n');
  if (lines.empty()) return text;
  const std::size_t l =
      static_cast<std::size_t>(uniform_index(rng, static_cast<index_t>(
                                                      lines.size())));
  switch (uniform_index(rng, 4)) {
    case 0: {
      std::vector<std::string> tokens = split(lines[l], ' ');
      if (tokens.empty()) return text;
      const std::size_t t = static_cast<std::size_t>(
          uniform_index(rng, static_cast<index_t>(tokens.size())));
      tokens[t] = edge_token(
          t, static_cast<std::size_t>(uniform_index(
                 rng, static_cast<index_t>(std::size(kEdgeTokens)))));
      lines[l] = join(tokens, " ");
      break;
    }
    case 1:
      return text.substr(0, static_cast<std::size_t>(uniform_index(
                                rng, static_cast<index_t>(text.size()))));
    case 2:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(l));
      break;
    default:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(l), lines[l]);
      break;
  }
  return join(lines, "\n") + "\n";
}

TEST(IoMutation, SeededMutationChainsParseOrThrowError) {
  constexpr int kRounds = 400;  // per base file
  Xoshiro256 rng(20140519);
  for (const char* base : {kGeneralFile, kSymmetricFile}) {
    for (int round = 0; round < kRounds; ++round) {
      std::string text = base;
      const index_t edits = 1 + uniform_index(rng, 3);
      for (index_t k = 0; k < edits; ++k) text = mutate(text, rng);
      expect_matrix_or_error(text);
    }
  }
}

}  // namespace
}  // namespace asyrgs
