#include "sim/format_traces.hpp"

#include <algorithm>
#include <array>
#include <iterator>

#include "common/error.hpp"
#include "sim/trace_internal.hpp"
#include "sparse/layout.hpp"

namespace scc::sim {

namespace {

constexpr std::array<FormatParams, 5> kFormats{{
    {"CSR", 0, &KernelCostModel::cycles_per_nnz},
    {"ELL", 0, &KernelCostModel::cycles_per_ell_slot},
    {"BCSR b=2", 2, &KernelCostModel::cycles_per_bcsr_element},
    {"BCSR b=4", 4, &KernelCostModel::cycles_per_bcsr_element},
    {"HYB", 0, &KernelCostModel::cycles_per_ell_slot},
}};

/// The ELL inner loops over a local column-major slab of the given width;
/// shared by the pure-ELL trace and the ELL part of HYB.
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

const FormatParams& format_params(StorageFormat format) {
  return kFormats[static_cast<std::size_t>(format)];
}

KernelCounts rank_counts(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block,
                         StorageFormat format) {
  detail::check_block(matrix, block);
  const auto rows = static_cast<double>(block.row_count());
  switch (format) {
    case StorageFormat::kCsr:
      return {static_cast<double>(block.nnz), rows};
    case StorageFormat::kEll:
      return {static_cast<double>(sparse::ell_width(matrix, block.row_begin, block.row_end)) *
                  rows,
              rows};
    case StorageFormat::kHyb: {
      const sparse::HybSplit split = sparse::hyb_split(matrix, block.row_begin, block.row_end);
      return {static_cast<double>(split.width) * rows + static_cast<double>(split.tail), rows};
    }
    case StorageFormat::kBcsr2:
    case StorageFormat::kBcsr4: {
      const index_t b = format_params(format).block_size;
      nnz_t stored_blocks = 0;
      sparse::for_each_block_row(matrix, block.row_begin, block.row_end, b,
                                 [&](const sparse::BlockRow& block_row) {
                                   stored_blocks += std::ssize(block_row.block_cols);
                                 });
      return {static_cast<double>(stored_blocks) * static_cast<double>(b * b),
              static_cast<double>((block.row_count() + b - 1) / b)};
    }
  }
  return {};
}

FormatTraceResult run_ell_trace(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block,
                                cache::Hierarchy& hierarchy, cache::Tlb* tlb) {
  detail::check_block(matrix, block);
  detail::Tracker tracker(hierarchy, tlb);
  ell_slab_trace(matrix, block, sparse::ell_width(matrix, block.row_begin, block.row_end),
                 tracker);
  return {tracker.finish(block.row_count(), block.nnz)};
}

FormatTraceResult run_bcsr_trace(const sparse::CsrMatrix& matrix,
                                 const sparse::RowBlock& block, index_t block_size,
                                 cache::Hierarchy& hierarchy, cache::Tlb* tlb) {
  detail::check_block(matrix, block);
  SCC_REQUIRE(block_size >= 1 && block_size <= 16, "block size out of [1,16]");
  const auto b = static_cast<std::uint64_t>(block_size);
  detail::Tracker tracker(hierarchy, tlb);

  const auto col_count = static_cast<std::uint64_t>(matrix.cols());
  std::uint64_t value_cursor = 0;
  std::uint64_t bcol_cursor = 0;
  sparse::for_each_block_row(
      matrix, block.row_begin, block.row_end, block_size, [&](const sparse::BlockRow& row) {
        // Block-row pointer (one 4-byte read, like the CSR ptr stream).
        tracker.access(detail::kPtrBase + kPtrBytes * static_cast<std::uint64_t>(row.index + 1),
                       false);
        for (const index_t bc : row.block_cols) {
          tracker.access(detail::kIndexBase + kIndexBytes * bcol_cursor++, false);
          // Dense b x b payload streamed, with one x load per block column
          // element (registers carry x across the unrolled row loop) and a
          // read-modify-write of each y element.
          tracker.read_run(detail::kValueBase + kValueBytes * value_cursor, b * b, kValueBytes);
          value_cursor += b * b;
          const auto x_first = static_cast<std::uint64_t>(bc) * b;
          tracker.read_run(detail::kXBase + kValueBytes * x_first,
                           std::min(b, col_count - x_first), kValueBytes);
          for (index_t r = row.row_begin; r < row.row_end; ++r) {
            const auto local_r = static_cast<std::uint64_t>(r - block.row_begin);
            tracker.access(detail::kYBase + kValueBytes * local_r, false);
            tracker.repeat(detail::kYBase + kValueBytes * local_r, true);
          }
        }
      });
  return {tracker.finish(block.row_count(), block.nnz)};
}

FormatTraceResult run_hyb_trace(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block,
                                double spill_fraction, cache::Hierarchy& hierarchy,
                                cache::Tlb* tlb) {
  detail::check_block(matrix, block);
  const index_t width =
      sparse::hyb_split(matrix, block.row_begin, block.row_end, spill_fraction).width;

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
  return {tracker.finish(block.row_count(), block.nnz)};
}

}  // namespace scc::sim
