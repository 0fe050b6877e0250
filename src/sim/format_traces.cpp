#include "sim/format_traces.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "sim/trace_internal.hpp"

namespace scc::sim {

namespace {

void check_block(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block) {
  SCC_REQUIRE(block.row_begin >= 0 && block.row_end <= matrix.rows() &&
                  block.row_begin <= block.row_end,
              "row block out of range");
}

index_t max_row_length(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block) {
  index_t width = 0;
  for (index_t r = block.row_begin; r < block.row_end; ++r) {
    width = std::max(width, matrix.row_length(r));
  }
  return width;
}

/// The ELL inner loops over a local column-major slab of the given width;
/// shared by the pure-ELL trace and the ELL part of HYB. `row_limit(r)`
/// gives how many real entries row r contributes to the slab.
void ell_slab_trace(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block,
                    index_t width, detail::Tracker& tracker) {
  const auto rows_local = static_cast<std::uint64_t>(block.row_count());
  for (index_t j = 0; j < width; ++j) {
    for (index_t r = block.row_begin; r < block.row_end; ++r) {
      const auto local_r = static_cast<std::uint64_t>(r - block.row_begin);
      const auto slot = static_cast<std::uint64_t>(j) * rows_local + local_r;
      tracker.access(detail::kIndexBase + kIndexBytes * slot, false);
      tracker.access(detail::kValueBase + kValueBytes * slot, false);
      // Padding slots carry column 0 (they multiply by a stored zero).
      const auto cols = matrix.row_cols(r);
      const std::uint64_t x_elem =
          j < static_cast<index_t>(cols.size())
              ? static_cast<std::uint64_t>(cols[static_cast<std::size_t>(j)])
              : 0;
      tracker.access(detail::kXBase + kValueBytes * x_elem, false);
      // y[r] += ...: read-modify-write every slice.
      tracker.access(detail::kYBase + kValueBytes * local_r, false);
      tracker.repeat(detail::kYBase + kValueBytes * local_r, true);
    }
  }
}

}  // namespace

FormatTraceResult run_ell_trace(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block,
                                cache::Hierarchy& hierarchy, cache::Tlb* tlb) {
  check_block(matrix, block);
  const index_t width = max_row_length(matrix, block);
  detail::Tracker tracker(hierarchy, tlb);
  ell_slab_trace(matrix, block, width, tracker);
  FormatTraceResult out;
  out.trace = tracker.finish(block.row_count(), block.nnz);
  out.executed_elements = static_cast<double>(width) * static_cast<double>(block.row_count());
  out.rows_iterated = static_cast<double>(block.row_count());
  return out;
}

FormatTraceResult run_bcsr_trace(const sparse::CsrMatrix& matrix,
                                 const sparse::RowBlock& block, index_t block_size,
                                 cache::Hierarchy& hierarchy, cache::Tlb* tlb) {
  check_block(matrix, block);
  SCC_REQUIRE(block_size >= 1 && block_size <= 16, "block size out of [1,16]");
  const auto b = static_cast<std::uint64_t>(block_size);
  detail::Tracker tracker(hierarchy, tlb);

  const index_t rows_local = block.row_count();
  const index_t block_rows = (rows_local + block_size - 1) / block_size;
  const auto col_count = static_cast<std::uint64_t>(matrix.cols());
  std::uint64_t stored_blocks = 0;
  std::uint64_t value_cursor = 0;
  std::uint64_t bcol_cursor = 0;
  // The block columns of one block row, gathered once each: stamp[bc - lo]
  // names the last block row that listed bc, so a column seen in an earlier
  // row of the same block row is skipped; the short list is then sorted.
  // Rows keep their columns ascending, so their ends bound the stamp.
  index_t lo = matrix.cols();
  index_t hi = -1;
  for (index_t r = block.row_begin; r < block.row_end; ++r) {
    const auto row = matrix.row_cols(r);
    if (row.empty()) continue;
    lo = std::min(lo, row.front() / block_size);
    hi = std::max(hi, row.back() / block_size);
  }
  std::vector<index_t> stamp(static_cast<std::size_t>(std::max<index_t>(hi - lo + 1, 0)), -1);
  std::vector<index_t> block_cols;
  for (index_t br = 0; br < block_rows; ++br) {
    // Block-row pointer (one 4-byte read, like the CSR ptr stream).
    tracker.access(detail::kPtrBase + kPtrBytes * static_cast<std::uint64_t>(br + 1), false);
    const index_t r_begin = block.row_begin + br * block_size;
    const index_t r_end = std::min<index_t>(r_begin + block_size, block.row_end);
    block_cols.clear();
    for (index_t r = r_begin; r < r_end; ++r) {
      for (index_t c : matrix.row_cols(r)) {
        index_t& seen = stamp[static_cast<std::size_t>(c / block_size - lo)];
        if (seen != br) {
          seen = br;
          block_cols.push_back(c / block_size);
        }
      }
    }
    std::sort(block_cols.begin(), block_cols.end());
    for (const index_t bc : block_cols) {
      ++stored_blocks;
      tracker.access(detail::kIndexBase + kIndexBytes * bcol_cursor++, false);
      // Dense b x b payload streamed, with one x load per block column
      // element (registers carry x across the unrolled row loop) and a
      // read-modify-write of each y element.
      tracker.read_run(detail::kValueBase + kValueBytes * value_cursor, b * b, kValueBytes);
      value_cursor += b * b;
      const auto x_first = static_cast<std::uint64_t>(bc) * b;
      tracker.read_run(detail::kXBase + kValueBytes * x_first, std::min(b, col_count - x_first),
                       kValueBytes);
      for (index_t r = r_begin; r < r_end; ++r) {
        const auto local_r = static_cast<std::uint64_t>(r - block.row_begin);
        tracker.access(detail::kYBase + kValueBytes * local_r, false);
        tracker.repeat(detail::kYBase + kValueBytes * local_r, true);
      }
    }
  }
  FormatTraceResult out;
  out.trace = tracker.finish(block.row_count(), block.nnz);
  out.executed_elements = static_cast<double>(stored_blocks) * static_cast<double>(b * b);
  out.rows_iterated = static_cast<double>(block_rows);
  return out;
}

FormatTraceResult run_hyb_trace(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block,
                                double spill_fraction, cache::Hierarchy& hierarchy,
                                cache::Tlb* tlb) {
  check_block(matrix, block);
  SCC_REQUIRE(spill_fraction >= 0.0 && spill_fraction < 1.0, "spill_fraction out of [0,1)");

  // Bell-Garland split over the local block: smallest width whose tail stays
  // within the spill budget.
  const index_t max_len = max_row_length(matrix, block);
  auto spill_at = [&](index_t w) {
    nnz_t spill = 0;
    for (index_t r = block.row_begin; r < block.row_end; ++r) {
      spill += std::max<nnz_t>(0, matrix.row_length(r) - w);
    }
    return spill;
  };
  const auto budget = static_cast<nnz_t>(spill_fraction * static_cast<double>(block.nnz));
  index_t width = 0;
  while (width < max_len && spill_at(width) > budget) ++width;

  detail::Tracker tracker(hierarchy, tlb);
  ell_slab_trace(matrix, block, width, tracker);

  // COO tail: entries beyond `width` per row, row-major. Streams: row index,
  // column index, value; x indirect; y read-modify-write (row-major order,
  // so y behaves like a slow-moving stream).
  std::uint64_t tail_cursor = 0;
  for (index_t r = block.row_begin; r < block.row_end; ++r) {
    const auto cols = matrix.row_cols(r);
    const auto local_r = static_cast<std::uint64_t>(r - block.row_begin);
    for (std::size_t k = static_cast<std::size_t>(width); k < cols.size(); ++k) {
      tracker.access(detail::kAuxBase + kIndexBytes * tail_cursor, false);    // row idx
      tracker.access(detail::kIndexBase + kIndexBytes * tail_cursor, false);  // col idx
      tracker.access(detail::kValueBase + kValueBytes * tail_cursor, false);
      tracker.access(detail::kXBase + kValueBytes * static_cast<std::uint64_t>(cols[k]),
                     false);
      tracker.access(detail::kYBase + kValueBytes * local_r, false);
      tracker.repeat(detail::kYBase + kValueBytes * local_r, true);
      ++tail_cursor;
    }
  }

  FormatTraceResult out;
  out.trace = tracker.finish(block.row_count(), block.nnz);
  out.executed_elements =
      static_cast<double>(width) * static_cast<double>(block.row_count()) +
      static_cast<double>(tail_cursor);
  out.rows_iterated = static_cast<double>(block.row_count());
  return out;
}

}  // namespace scc::sim
