#include "sparse/io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace scc::sparse {

namespace {

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

struct Header {
  bool pattern = false;
  bool symmetric = false;
};

Header parse_header(const std::string& line) {
  std::istringstream iss(line);
  std::string banner, object, format, field, symmetry;
  iss >> banner >> object >> format >> field >> symmetry;
  SCC_REQUIRE(banner == "%%MatrixMarket", "not a Matrix Market file (banner '" << banner << "')");
  SCC_REQUIRE(to_lower(object) == "matrix", "unsupported MatrixMarket object '" << object << "'");
  SCC_REQUIRE(to_lower(format) == "coordinate",
              "only coordinate format is supported, got '" << format << "'");
  Header h;
  const std::string f = to_lower(field);
  SCC_REQUIRE(f == "real" || f == "integer" || f == "pattern",
              "unsupported field '" << field << "'");
  h.pattern = f == "pattern";
  const std::string s = to_lower(symmetry);
  SCC_REQUIRE(s == "general" || s == "symmetric", "unsupported symmetry '" << symmetry << "'");
  h.symmetric = s == "symmetric";
  return h;
}

/// True when `line` holds nothing after what was already extracted.
bool fully_read(std::istringstream& line) { return (line >> std::ws).eof(); }

bool next_content_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;  // blank
    if (line[first] == '%') continue;          // comment
    return true;
  }
  return false;
}

}  // namespace

CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  SCC_REQUIRE(static_cast<bool>(std::getline(in, line)), "empty Matrix Market stream");
  const Header header = parse_header(line);

  SCC_REQUIRE(next_content_line(in, line), "missing Matrix Market size line");
  std::istringstream size_line(line);
  long long rows = 0, cols = 0, entries = 0;
  size_line >> rows >> cols >> entries;
  SCC_REQUIRE(!size_line.fail() && fully_read(size_line), "malformed size line '" << line << "'");
  constexpr long long kMaxIndex = std::numeric_limits<index_t>::max();
  SCC_REQUIRE(rows > 0 && cols > 0 && rows <= kMaxIndex && cols <= kMaxIndex && entries >= 0,
              "invalid matrix dimensions '" << line << "' (rows and cols must be in [1, "
                                            << kMaxIndex << "])");

  // No reserve: the entry count is the file's claim, not data it delivered.
  CooMatrix coo(static_cast<index_t>(rows), static_cast<index_t>(cols));
  for (long long i = 0; i < entries; ++i) {
    SCC_REQUIRE(next_content_line(in, line),
                "expected " << entries << " entries, stream ended after " << i);
    std::istringstream entry(line);
    long long r = 0, c = 0;
    double v = 1.0;
    entry >> r >> c;
    if (!header.pattern) entry >> v;
    SCC_REQUIRE(!entry.fail() && fully_read(entry), "malformed entry line '" << line << "'");
    SCC_REQUIRE(r >= 1 && r <= rows && c >= 1 && c <= cols,
                "entry (" << r << "," << c << ") out of range");
    coo.add(static_cast<index_t>(r - 1), static_cast<index_t>(c - 1), v);
    if (header.symmetric && r != c) {
      coo.add(static_cast<index_t>(c - 1), static_cast<index_t>(r - 1), v);
    }
  }
  return CsrMatrix::from_coo(std::move(coo));
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  SCC_REQUIRE(in.is_open(), "cannot open matrix file '" << path << "'");
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const CsrMatrix& matrix) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << "% written by scc-spmv\n";
  out << matrix.rows() << ' ' << matrix.cols() << ' ' << matrix.nnz() << '\n';
  out.precision(17);
  for (index_t r = 0; r < matrix.rows(); ++r) {
    const auto cols = matrix.row_cols(r);
    const auto vals = matrix.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      out << (r + 1) << ' ' << (cols[k] + 1) << ' ' << vals[k] << '\n';
    }
  }
}

void write_matrix_market_file(const std::string& path, const CsrMatrix& matrix) {
  std::ofstream out(path);
  SCC_REQUIRE(out.is_open(), "cannot open output file '" << path << "'");
  write_matrix_market(out, matrix);
}

}  // namespace scc::sparse
