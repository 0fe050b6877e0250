#include "testbed/cache.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

namespace scc::testbed {

namespace {

constexpr std::uint64_t kMagic = 0x5cc5bedf11e00001ULL;
constexpr std::uint32_t kVersion = 3;

struct Header {
  std::uint64_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint32_t reserved = 0;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t nnz = 0;
};

}  // namespace

std::string cache_directory() {
  if (const char* dir = std::getenv("SCC_SPMV_CACHE_DIR"); dir != nullptr && *dir != '\0') {
    return dir;
  }
  return ".scc-spmv-cache";
}

std::string cache_key(const std::string& name, double scale) {
  std::ostringstream oss;
  oss << name << "_s" << static_cast<long long>(scale * 10000.0) << ".csrbin";
  return oss.str();
}

std::optional<sparse::CsrMatrix> load_cached(const std::string& name, double scale) {
  const std::filesystem::path path =
      std::filesystem::path(cache_directory()) / cache_key(name, scale);
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;

  Header header;
  in.read(reinterpret_cast<char*>(&header), sizeof header);
  constexpr std::int64_t kMaxIndex = std::numeric_limits<index_t>::max();
  if (!in || header.magic != kMagic || header.version != kVersion || header.rows <= 0 ||
      header.cols <= 0 || header.nnz < 0 || header.rows > kMaxIndex || header.cols > kMaxIndex) {
    return std::nullopt;
  }
  // Allocate only what the file backs: its payload must be exactly the
  // arrays the header describes, so a corrupt count is a rebuild.
  std::error_code ec;
  const std::uintmax_t file_bytes = std::filesystem::file_size(path, ec);
  const auto rows = static_cast<std::uintmax_t>(header.rows);
  const auto nnz = static_cast<std::uintmax_t>(header.nnz);
  constexpr std::uintmax_t kEntryBytes = sizeof(index_t) + sizeof(real_t);
  if (ec || nnz > file_bytes / kEntryBytes ||
      file_bytes != sizeof header + (rows + 1) * sizeof(nnz_t) + nnz * kEntryBytes) {
    return std::nullopt;
  }
  std::vector<nnz_t> ptr(static_cast<std::size_t>(header.rows) + 1);
  std::vector<index_t> col(static_cast<std::size_t>(header.nnz));
  std::vector<real_t> val(static_cast<std::size_t>(header.nnz));
  in.read(reinterpret_cast<char*>(ptr.data()),
          static_cast<std::streamsize>(ptr.size() * sizeof(nnz_t)));
  in.read(reinterpret_cast<char*>(col.data()),
          static_cast<std::streamsize>(col.size() * sizeof(index_t)));
  in.read(reinterpret_cast<char*>(val.data()),
          static_cast<std::streamsize>(val.size() * sizeof(real_t)));
  if (!in) return std::nullopt;
  try {
    return sparse::CsrMatrix(static_cast<index_t>(header.rows),
                             static_cast<index_t>(header.cols), std::move(ptr), std::move(col),
                             std::move(val));
  } catch (const std::exception&) {
    // Corrupt payload that passed the size checks: rebuild.
    return std::nullopt;
  }
}

void store_cached(const std::string& name, double scale, const sparse::CsrMatrix& matrix) {
  std::error_code ec;
  const std::filesystem::path dir = cache_directory();
  std::filesystem::create_directories(dir, ec);
  if (ec) return;
  const std::filesystem::path path = dir / cache_key(name, scale);
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return;
    Header header;
    header.rows = matrix.rows();
    header.cols = matrix.cols();
    header.nnz = matrix.nnz();
    out.write(reinterpret_cast<const char*>(&header), sizeof header);
    out.write(reinterpret_cast<const char*>(matrix.ptr().data()),
              static_cast<std::streamsize>(matrix.ptr().size_bytes()));
    out.write(reinterpret_cast<const char*>(matrix.col().data()),
              static_cast<std::streamsize>(matrix.col().size_bytes()));
    out.write(reinterpret_cast<const char*>(matrix.val().data()),
              static_cast<std::streamsize>(matrix.val().size_bytes()));
    if (!out) return;
  }
  // Atomic-ish publish so concurrent bench binaries never read a torn file.
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
}

}  // namespace scc::testbed
