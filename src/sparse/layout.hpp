// The layout rules of the padded and blocked formats -- ELL and HYB (Bell &
// Garland, the paper's reference [9]), square-block BCSR (Williams et al.,
// [11]) -- each defined once over a row range [begin, end) of the matrix.
// The containers pass the whole matrix; the simulator's traces and counts
// pass one UE's (checked) row block, whose BCSR block rows are aligned at
// its first row.
#pragma once

#include <functional>
#include <span>

#include "sparse/csr.hpp"

namespace scc::sparse {

/// ELL slab width of [begin, end): its widest row.
index_t ell_width(const CsrMatrix& matrix, index_t begin, index_t end);

/// Bell & Garland's break-even share of nonzeros in HYB's COO tail.
inline constexpr double kHybSpillFraction = 0.33;

/// HYB split: the first `width` entries of each row form the ELL slab, the
/// `tail` entries past it the COO tail.
struct HybSplit {
  index_t width = 0;
  nnz_t tail = 0;
};

/// The smallest width whose tail holds at most floor(spill_fraction * nnz)
/// entries, nnz being the range's own; spill_fraction in [0, 1).
HybSplit hyb_split(const CsrMatrix& matrix, index_t begin, index_t end,
                   double spill_fraction = kHybSpillFraction);

/// One BCSR block row of a row range: rows [row_begin, row_end) and the
/// distinct block columns (column / b) their entries touch, ascending.
struct BlockRow {
  index_t index = 0;  ///< counted from the range's first block row
  index_t row_begin = 0;
  index_t row_end = 0;
  std::span<const index_t> block_cols;  ///< valid during the visit only
};

/// Calls `visit` for each b x b block row of [begin, end) in order (block
/// rows start at `begin`, block columns at column 0). Each block row is
/// gathered once, through a stamp array over the range's block columns:
/// no pattern of the whole range is held. b >= 1.
void for_each_block_row(const CsrMatrix& matrix, index_t begin, index_t end, index_t b,
                        const std::function<void(const BlockRow&)>& visit);

}  // namespace scc::sparse
