// Binary on-disk cache for generated testbed matrices.
//
// Every bench binary walks the full 32-matrix suite; regenerating ~20M
// nonzeros per process would dominate their runtime. The cache stores the
// raw CSR arrays as a checksummed common::framed_file whose name carries the
// format version; a load reads them straight into the matrix. Corrupt or
// stale files are ignored and rebuilt.
#pragma once

#include <optional>
#include <string>

#include "sparse/csr.hpp"

namespace scc::testbed {

/// Cache directory: $SCC_SPMV_CACHE_DIR if set, else ".scc-spmv-cache" under
/// the current working directory. Created on first store.
std::string cache_directory();

/// Stable file name for (matrix name, scale, format version).
std::string cache_key(const std::string& name, double scale);

/// Load a cached matrix; nullopt when absent or unreadable.
std::optional<sparse::CsrMatrix> load_cached(const std::string& name, double scale);

/// Store a matrix; best-effort (failure to write is not an error, the
/// caller simply regenerates next time).
void store_cached(const std::string& name, double scale, const sparse::CsrMatrix& matrix);

}  // namespace scc::testbed
