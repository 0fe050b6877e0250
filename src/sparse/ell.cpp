#include "sparse/ell.hpp"

#include "common/error.hpp"
#include "sparse/layout.hpp"

namespace scc::sparse {

EllMatrix EllMatrix::from_csr(const CsrMatrix& csr, double max_fill_ratio) {
  SCC_REQUIRE(max_fill_ratio >= 1.0, "max_fill_ratio must be >= 1");
  EllMatrix out;
  out.rows_ = csr.rows();
  out.cols_ = csr.cols();
  out.nnz_ = csr.nnz();
  const index_t width = ell_width(csr, 0, csr.rows());
  out.width_ = width;
  const auto padded = static_cast<double>(out.rows_) * static_cast<double>(width);
  SCC_REQUIRE(csr.nnz() == 0 || padded <= max_fill_ratio * static_cast<double>(csr.nnz()),
              "ELL padding ratio " << (csr.nnz() ? padded / static_cast<double>(csr.nnz()) : 0.0)
                                   << " exceeds limit " << max_fill_ratio);
  const std::size_t slots = static_cast<std::size_t>(out.rows_) * static_cast<std::size_t>(width);
  out.col_.assign(slots, 0);
  out.val_.assign(slots, 0.0);
  for (index_t r = 0; r < csr.rows(); ++r) {
    const auto cols = csr.row_cols(r);
    const auto vals = csr.row_vals(r);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      const std::size_t slot =
          j * static_cast<std::size_t>(out.rows_) + static_cast<std::size_t>(r);
      out.col_[slot] = cols[j];
      out.val_[slot] = vals[j];
    }
  }
  return out;
}

double EllMatrix::padding_fraction() const {
  const auto slots = static_cast<double>(rows_) * static_cast<double>(width_);
  if (slots == 0.0) return 0.0;
  return 1.0 - static_cast<double>(nnz_) / slots;
}

}  // namespace scc::sparse
