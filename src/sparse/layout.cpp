#include "sparse/layout.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"

namespace scc::sparse {

index_t ell_width(const CsrMatrix& matrix, index_t begin, index_t end) {
  index_t width = 0;
  for (index_t r = begin; r < end; ++r) width = std::max(width, matrix.row_length(r));
  return width;
}

HybSplit hyb_split(const CsrMatrix& matrix, index_t begin, index_t end, double spill_fraction) {
  SCC_REQUIRE(spill_fraction >= 0.0 && spill_fraction < 1.0,
              "spill_fraction must be in [0,1)");
  // Suffix counts of the row-length histogram: widening the slab from w to
  // w + 1 moves one entry of every row longer than w out of the tail.
  const index_t max_len = ell_width(matrix, begin, end);
  std::vector<nnz_t> rows_of_length(static_cast<std::size_t>(max_len) + 1, 0);
  for (index_t r = begin; r < end; ++r) {
    ++rows_of_length[static_cast<std::size_t>(matrix.row_length(r))];
  }
  nnz_t rows_longer = (end - begin) - rows_of_length[0];
  HybSplit split{0, matrix.ptr()[static_cast<std::size_t>(end)] -
                        matrix.ptr()[static_cast<std::size_t>(begin)]};
  const auto budget = static_cast<nnz_t>(spill_fraction * static_cast<double>(split.tail));
  while (split.width < max_len && split.tail > budget) {
    split.tail -= rows_longer;
    rows_longer -= rows_of_length[static_cast<std::size_t>(++split.width)];
  }
  return split;
}

void for_each_block_row(const CsrMatrix& matrix, index_t begin, index_t end, index_t b,
                        const std::function<void(const BlockRow&)>& visit) {
  SCC_REQUIRE(b >= 1, "block size " << b << " must be >= 1");
  // stamp[bc - lo] names the last block row that listed bc, so a column
  // seen in an earlier row of the same block row is skipped; the short list
  // is then sorted. Rows keep their columns ascending, so their ends bound
  // the stamp.
  index_t lo = matrix.cols();
  index_t hi = -1;
  for (index_t r = begin; r < end; ++r) {
    const auto row = matrix.row_cols(r);
    if (row.empty()) continue;
    lo = std::min(lo, row.front() / b);
    hi = std::max(hi, row.back() / b);
  }
  std::vector<index_t> stamp(static_cast<std::size_t>(std::max<index_t>(hi - lo + 1, 0)), -1);
  std::vector<index_t> block_cols;
  BlockRow block_row;
  for (index_t row_begin = begin; row_begin < end; row_begin += b, ++block_row.index) {
    block_row.row_begin = row_begin;
    block_row.row_end = std::min<index_t>(row_begin + b, end);
    block_cols.clear();
    for (index_t r = block_row.row_begin; r < block_row.row_end; ++r) {
      for (const index_t c : matrix.row_cols(r)) {
        index_t& seen = stamp[static_cast<std::size_t>(c / b - lo)];
        if (seen != block_row.index) {
          seen = block_row.index;
          block_cols.push_back(c / b);
        }
      }
    }
    std::sort(block_cols.begin(), block_cols.end());
    block_row.block_cols = block_cols;
    visit(block_row);
  }
}

}  // namespace scc::sparse
