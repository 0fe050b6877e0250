#include "testbed/cache.hpp"

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <vector>

#include "common/framed_file.hpp"

namespace scc::testbed {

namespace {

/// Payload: the rows, cols and nnz words, then the raw ptr (i64), col (i32)
/// and val (f64) arrays.
constexpr common::FrameFormat kFormat{.magic = 0x5cc5bedf11e00001ULL, .version = 4};

}  // namespace

std::string cache_directory() {
  if (const char* dir = std::getenv("SCC_SPMV_CACHE_DIR"); dir != nullptr && *dir != '\0') {
    return dir;
  }
  return ".scc-spmv-cache";
}

std::string cache_key(const std::string& name, double scale) {
  std::ostringstream oss;
  oss << name << "_s" << static_cast<long long>(scale * 10000.0) << ".v" << kFormat.version
      << ".csrbin";
  return oss.str();
}

std::optional<sparse::CsrMatrix> load_cached(const std::string& name, double scale) {
  index_t rows = 0;
  index_t cols = 0;
  std::vector<nnz_t> ptr;
  std::vector<index_t> col;
  std::vector<real_t> val;
  const std::string path =
      (std::filesystem::path(cache_directory()) / cache_key(name, scale)).string();
  const bool intact = common::read_framed_file(path, kFormat, [&](common::FrameReader& in) {
    nnz_t nnz = 0;
    in(rows, cols, nnz);
    in.require(rows > 0 && cols > 0 && nnz >= 0);
    in.array(ptr, static_cast<std::uint64_t>(rows) + 1);
    in.array(col, static_cast<std::uint64_t>(nnz));
    in.array(val, static_cast<std::uint64_t>(nnz));
  });
  if (!intact) return std::nullopt;
  try {
    return sparse::CsrMatrix(rows, cols, std::move(ptr), std::move(col), std::move(val));
  } catch (const std::exception&) {
    // Structurally invalid arrays that still carried a valid checksum: rebuild.
    return std::nullopt;
  }
}

void store_cached(const std::string& name, double scale, const sparse::CsrMatrix& matrix) {
  std::error_code ec;
  const std::filesystem::path dir = cache_directory();
  std::filesystem::create_directories(dir, ec);
  if (ec) return;
  common::FrameWriter shape;
  shape(matrix.rows(), matrix.cols(), matrix.nnz());
  common::write_framed_file((dir / cache_key(name, scale)).string(), kFormat,
                            {shape.data(), std::as_bytes(matrix.ptr()),
                             std::as_bytes(matrix.col()), std::as_bytes(matrix.val())});
}

}  // namespace scc::testbed
