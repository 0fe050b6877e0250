#include "sparse/io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gen/generators.hpp"

namespace scc::sparse {
namespace {

TEST(MatrixMarket, ReadGeneralReal) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 3 3\n"
      "1 1 1.5\n"
      "2 3 -2.0\n"
      "3 2 4.25\n");
  const CsrMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_DOUBLE_EQ(m.row_vals(0)[0], 1.5);
  EXPECT_EQ(m.row_cols(1)[0], 2);
  EXPECT_DOUBLE_EQ(m.row_vals(2)[0], 4.25);
}

TEST(MatrixMarket, ReadPatternAssignsOnes) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 2\n"
      "2 1\n");
  const CsrMatrix m = read_matrix_market(in);
  EXPECT_DOUBLE_EQ(m.row_vals(0)[0], 1.0);
  EXPECT_DOUBLE_EQ(m.row_vals(1)[0], 1.0);
}

TEST(MatrixMarket, ReadSymmetricMirrorsOffDiagonals) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n"
      "1 1 2.0\n"
      "2 1 3.0\n"
      "3 3 4.0\n");
  const CsrMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.nnz(), 4);  // diagonal entries not duplicated
  EXPECT_DOUBLE_EQ(m.row_vals(0)[1], 3.0);  // mirrored (1,2)
}

TEST(MatrixMarket, ReadIntegerField) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate integer general\n"
      "2 2 1\n"
      "1 1 7\n");
  const CsrMatrix m = read_matrix_market(in);
  EXPECT_DOUBLE_EQ(m.row_vals(0)[0], 7.0);
}

TEST(MatrixMarket, RejectsBadBanner) {
  std::istringstream in("%%NotMatrixMarket matrix coordinate real general\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(in), std::invalid_argument);
}

TEST(MatrixMarket, RejectsArrayFormat) {
  std::istringstream in("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
  EXPECT_THROW(read_matrix_market(in), std::invalid_argument);
}

TEST(MatrixMarket, RejectsUnsupportedField) {
  std::istringstream in("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n");
  EXPECT_THROW(read_matrix_market(in), std::invalid_argument);
}

TEST(MatrixMarket, RejectsOutOfRangeIndices) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in), std::invalid_argument);
}

TEST(MatrixMarket, RejectsTruncatedEntries) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in), std::invalid_argument);
}

TEST(MatrixMarket, RejectsEntryCountItCannotBack) {
  // The size line claims 10^11 entries; the reader must not allocate for
  // them before the stream delivers any.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "4 4 100000000000\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in), std::invalid_argument);
}

TEST(MatrixMarket, RejectsDimensionsBeyondIndexRange) {
  std::istringstream rows(
      "%%MatrixMarket matrix coordinate real general\n"
      "5000000000 4 1\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(rows), std::invalid_argument);
  std::istringstream cols(
      "%%MatrixMarket matrix coordinate real general\n"
      "4 2147483648 1\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(cols), std::invalid_argument);
}

TEST(MatrixMarket, RejectsTrailingTokens) {
  std::istringstream entry(
      "%%MatrixMarket matrix coordinate real general\n"
      "1 1 1\n"
      "1 1 1.0 garbage\n");
  EXPECT_THROW(read_matrix_market(entry), std::invalid_argument);
  std::istringstream size(
      "%%MatrixMarket matrix coordinate real general\n"
      "1 1 1 7\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(size), std::invalid_argument);
  std::istringstream pattern(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "1 1 1\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(pattern), std::invalid_argument);
}

TEST(MatrixMarketFuzz, MutantsParseOrThrowInvalidArgument) {
  // Seeded mutational fuzzing of a valid file: truncation, byte flips and
  // token splices. A mutant either parses into a structurally valid matrix
  // or is rejected with std::invalid_argument -- never another exception,
  // a crash or an allocation sized by a number the file never backed.
  const std::string seed_file =
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "% fuzz seed\n"
      "5 5 6\n"
      "1 1 4.0\n"
      "2 1 -1.5\n"
      "3 3 2.25\n"
      "4 2 1e-3\n"
      "5 5 7\n"
      "5 4 0.5\n";
  const std::vector<std::string> tokens = {"0",    "-1",  "2147483648", "99999999999",
                                           "1e308", "nan", "garbage",    "%",
                                           "\n",   "1",   "5",          "pattern"};
  Rng rng(0xf022);
  int parsed = 0;
  for (int mutant = 0; mutant < 3000; ++mutant) {
    std::string text = seed_file;
    const auto mutations = rng.uniform_in(1, 3);
    for (std::int64_t m = 0; m < mutations && !text.empty(); ++m) {
      const auto at = static_cast<std::size_t>(rng.uniform(text.size()));
      switch (rng.uniform(3)) {
        case 0:  // truncate
          text.resize(at);
          break;
        case 1:  // flip one byte to an arbitrary value
          text[at] = static_cast<char>(rng.uniform(256));
          break;
        default:  // splice a token between spaces
          text.insert(at, " " + tokens[static_cast<std::size_t>(rng.uniform(tokens.size()))] +
                              " ");
          break;
      }
    }
    std::istringstream in(text);
    try {
      const CsrMatrix matrix = read_matrix_market(in);
      matrix.validate();
      ++parsed;
    } catch (const std::invalid_argument&) {
    }
  }
  // Some mutants (a flipped comment byte, a truncated tail newline) stay
  // valid; most do not.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, 3000);
}

TEST(MatrixMarket, RejectsEmptyStream) {
  std::istringstream in("");
  EXPECT_THROW(read_matrix_market(in), std::invalid_argument);
}

TEST(MatrixMarket, SkipsBlankAndCommentLines) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment\n"
      "\n"
      "2 2 1\n"
      "% another\n"
      "\n"
      "2 2 5.0\n");
  const CsrMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.nnz(), 1);
}

TEST(MatrixMarket, WriteReadRoundTrip) {
  const CsrMatrix m = gen::random_uniform(60, 5, 77);
  std::stringstream buffer;
  write_matrix_market(buffer, m);
  const CsrMatrix back = read_matrix_market(buffer);
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.nnz(), m.nnz());
  for (index_t r = 0; r < m.rows(); ++r) {
    const auto a = m.row_vals(r);
    const auto b = back.row_vals(r);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_DOUBLE_EQ(a[k], b[k]);
    }
  }
}

TEST(MatrixMarket, FileRoundTrip) {
  const CsrMatrix m = gen::banded(40, 4, 0.5, 3);
  const std::string path = ::testing::TempDir() + "/scc_spmv_io_test.mtx";
  write_matrix_market_file(path, m);
  const CsrMatrix back = read_matrix_market_file(path);
  EXPECT_EQ(back.nnz(), m.nnz());
}

TEST(MatrixMarket, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market_file("/nonexistent/dir/none.mtx"), std::invalid_argument);
}

}  // namespace
}  // namespace scc::sparse
