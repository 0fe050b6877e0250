// Hybrid ELL + COO format (Bell & Garland, the paper's reference [9]).
//
// The CUDA SpMV library the paper benchmarks its GPUs with stores the
// "typical" part of each row in a fixed-width ELL slab (coalesced accesses)
// and spills the long-row tail into COO. The split width is chosen so that
// at most `spill_fraction` of the nonzeros land in the tail (sparse::hyb_split).
#pragma once

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"
#include "sparse/layout.hpp"

namespace scc::sparse {

class HybMatrix {
 public:
  HybMatrix() = default;

  /// Split `csr` at the smallest ELL width that keeps the COO tail to at
  /// most `spill_fraction` of the nonzeros.
  static HybMatrix from_csr(const CsrMatrix& csr, double spill_fraction = kHybSpillFraction);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t ell_width() const { return ell_.width(); }
  nnz_t ell_nnz() const { return ell_.stored_nnz(); }
  nnz_t coo_nnz() const { return coo_.nnz(); }

  const EllMatrix& ell() const { return ell_; }
  const CooMatrix& coo() const { return coo_; }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  EllMatrix ell_;
  CooMatrix coo_;
};

}  // namespace scc::sparse
