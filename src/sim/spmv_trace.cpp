#include "sim/spmv_trace.hpp"

#include "sim/trace_internal.hpp"

namespace scc::sim {

TraceResult run_spmv_trace(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block,
                           SpmvVariant variant, cache::Hierarchy& hierarchy,
                           cache::Tlb* tlb) {
  detail::check_block(matrix, block);
  const auto ptr = matrix.ptr();
  const auto col = matrix.col();

  detail::Tracker tracker(hierarchy, tlb);
  const nnz_t k_base = ptr[static_cast<std::size_t>(block.row_begin)];
  for (index_t r = block.row_begin; r < block.row_end; ++r) {
    const auto local_row = static_cast<std::uint64_t>(r - block.row_begin);
    // ptr[r+1]; ptr[r] was read on the previous iteration (register-carried).
    tracker.access(detail::kPtrBase + kPtrBytes * (local_row + 1), /*is_write=*/false);
    const nnz_t k_begin = ptr[static_cast<std::size_t>(r)];
    const nnz_t k_end = ptr[static_cast<std::size_t>(r) + 1];
    for (nnz_t k = k_begin; k < k_end; ++k) {
      const auto local_k = static_cast<std::uint64_t>(k - k_base);
      tracker.access(detail::kIndexBase + kIndexBytes * local_k, false);
      tracker.access(detail::kValueBase + kValueBytes * local_k, false);
      const std::uint64_t x_elem =
          variant == SpmvVariant::kCsrNoXMiss
              ? 0
              : static_cast<std::uint64_t>(col[static_cast<std::size_t>(k)]);
      tracker.access(detail::kXBase + kValueBytes * x_elem, false);
    }
    tracker.access(detail::kYBase + kValueBytes * local_row, /*is_write=*/true);
  }
  return tracker.finish(block.row_count(), block.nnz);
}

}  // namespace scc::sim
