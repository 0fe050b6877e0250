#include "sparse/bcsr.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "sparse/layout.hpp"

namespace scc::sparse {

BcsrMatrix BcsrMatrix::from_csr(const CsrMatrix& csr, index_t b, double max_fill_ratio) {
  SCC_REQUIRE(b >= 1 && b <= 16, "block size " << b << " out of [1,16]");
  SCC_REQUIRE(max_fill_ratio >= 1.0, "max_fill_ratio must be >= 1");

  BcsrMatrix out;
  out.rows_ = csr.rows();
  out.cols_ = csr.cols();
  out.b_ = b;
  out.nnz_ = csr.nnz();
  out.block_rows_ = (csr.rows() + b - 1) / b;

  // Pass 1: the populated block columns of each block row, in order.
  out.block_ptr_.assign(static_cast<std::size_t>(out.block_rows_) + 1, 0);
  for_each_block_row(csr, 0, csr.rows(), b, [&](const BlockRow& block_row) {
    out.block_col_.insert(out.block_col_.end(), block_row.block_cols.begin(),
                          block_row.block_cols.end());
    out.block_ptr_[static_cast<std::size_t>(block_row.index) + 1] =
        static_cast<nnz_t>(out.block_col_.size());
  });
  const nnz_t total_blocks = out.block_count();

  const double stored =
      static_cast<double>(total_blocks) * static_cast<double>(b) * static_cast<double>(b);
  SCC_REQUIRE(csr.nnz() == 0 || stored <= max_fill_ratio * static_cast<double>(csr.nnz()),
              "BCSR fill ratio " << (csr.nnz() ? stored / static_cast<double>(csr.nnz()) : 0.0)
                                 << " exceeds limit " << max_fill_ratio << " at block size "
                                 << b);

  // Pass 2: scatter values into the dense blocks; a block row's columns are
  // ascending, so each entry's block is found by binary search.
  out.val_.assign(static_cast<std::size_t>(total_blocks) * static_cast<std::size_t>(b) *
                      static_cast<std::size_t>(b),
                  0.0);
  for (index_t r = 0; r < csr.rows(); ++r) {
    const auto br = static_cast<std::size_t>(r / b);
    const auto first = out.block_col_.begin() + out.block_ptr_[br];
    const auto last = out.block_col_.begin() + out.block_ptr_[br + 1];
    const auto cols = csr.row_cols(r);
    const auto vals = csr.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const auto slot =
          static_cast<std::size_t>(std::lower_bound(first, last, cols[k] / b) -
                                   out.block_col_.begin());
      const auto base = slot * static_cast<std::size_t>(b) * static_cast<std::size_t>(b);
      const auto within = static_cast<std::size_t>((r % b) * b + cols[k] % b);
      out.val_[base + within] = vals[k];
    }
  }
  return out;
}

double BcsrMatrix::fill_ratio() const {
  if (nnz_ == 0) return 1.0;
  return static_cast<double>(block_count()) * static_cast<double>(b_) *
         static_cast<double>(b_) / static_cast<double>(nnz_);
}

CsrMatrix BcsrMatrix::to_csr() const {
  CooMatrix coo(rows_, cols_);
  coo.reserve(nnz_);
  for (index_t br = 0; br < block_rows_; ++br) {
    for (nnz_t k = block_ptr_[static_cast<std::size_t>(br)];
         k < block_ptr_[static_cast<std::size_t>(br) + 1]; ++k) {
      const index_t bc = block_col_[static_cast<std::size_t>(k)];
      const auto base = static_cast<std::size_t>(k) * static_cast<std::size_t>(b_) *
                        static_cast<std::size_t>(b_);
      for (index_t i = 0; i < b_; ++i) {
        const index_t row = br * b_ + i;
        if (row >= rows_) break;
        for (index_t j = 0; j < b_; ++j) {
          const index_t col = bc * b_ + j;
          if (col >= cols_) break;
          const real_t v = val_[base + static_cast<std::size_t>(i * b_ + j)];
          if (v != 0.0) coo.add(row, col, v);
        }
      }
    }
  }
  return CsrMatrix::from_coo(std::move(coo));
}

}  // namespace scc::sparse
