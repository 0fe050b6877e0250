#include "sparse/hyb.hpp"

#include "common/error.hpp"
#include "sparse/layout.hpp"

namespace scc::sparse {

HybMatrix HybMatrix::from_csr(const CsrMatrix& csr, double spill_fraction) {
  HybMatrix out;
  out.rows_ = csr.rows();
  out.cols_ = csr.cols();
  const index_t width = hyb_split(csr, 0, csr.rows(), spill_fraction).width;

  // Split: the first `width` entries of each row go to ELL, the rest to COO.
  CooMatrix ell_part(csr.rows(), csr.cols());
  CooMatrix coo_part(csr.rows(), csr.cols());
  for (index_t r = 0; r < csr.rows(); ++r) {
    const auto cols = csr.row_cols(r);
    const auto vals = csr.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (static_cast<index_t>(k) < width) {
        ell_part.add(r, cols[k], vals[k]);
      } else {
        coo_part.add(r, cols[k], vals[k]);
      }
    }
  }
  out.ell_ = EllMatrix::from_csr(CsrMatrix::from_coo(std::move(ell_part)),
                                 /*max_fill_ratio=*/1e9);
  coo_part.normalize();
  out.coo_ = std::move(coo_part);
  SCC_ASSERT(out.ell_.stored_nnz() + out.coo_.nnz() == csr.nnz(),
             "HYB split lost nonzeros");
  return out;
}

}  // namespace scc::sparse
