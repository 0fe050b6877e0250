// The storage formats the simulator prices, for the question the paper's
// conclusions point at: would the blocking/padding optimizations of
// Williams et al. [11] and Bell & Garland [9] have paid off on the SCC?
// Per format and UE row block, rank_counts gives the elements and row-loop
// trips the kernel executes (its compute cost; no replay needed), and
// run_*_trace replays its reference stream through the core's TLB + cache
// hierarchy. Both take the layout from sparse/layout.hpp on the fly.
//
// Layouts assumed per UE (all in its private memory, like the CSR trace):
//  * ELL: local slab of width = max row length in the block, column-major
//    slices; the kernel iterates slice-major and re-streams y per slice.
//  * BCSR: square b x b blocks aligned to multiples of b in the *local* row
//    numbering; per stored block the kernel streams b*b values and touches
//    b consecutive x and y elements.
//  * HYB: ELL slab at the Bell-Garland split plus a COO tail with
//    row/col/value streams and read-modify-write y updates.
#pragma once

#include "sim/config.hpp"
#include "sim/spmv_trace.hpp"

namespace scc::sim {

/// Storage formats the engine can replay (the format-study extension: the
/// CSR baseline vs. the optimized layouts of the paper's references [9]/[11]).
enum class StorageFormat { kCsr, kEll, kBcsr2, kBcsr4, kHyb };

/// A format's report name, BCSR block edge (0 when unblocked) and the
/// KernelCostModel field pricing one executed element.
struct FormatParams {
  const char* name;
  index_t block_size;
  double KernelCostModel::*cycles_per_element;
};

const FormatParams& format_params(StorageFormat format);

/// What `format`'s kernel executes over `block`: stored slots (nonzeros,
/// ELL padding, HYB tail entries, whole BCSR blocks) and row (BCSR:
/// block-row) loop trips.
struct KernelCounts {
  double executed_elements = 0.0;
  double rows_iterated = 0.0;
};

KernelCounts rank_counts(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block,
                         StorageFormat format);

/// Cache behaviour of one pass of a format kernel (counts: rank_counts).
struct FormatTraceResult {
  TraceResult trace;
};

FormatTraceResult run_ell_trace(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block,
                                cache::Hierarchy& hierarchy, cache::Tlb* tlb);

FormatTraceResult run_bcsr_trace(const sparse::CsrMatrix& matrix,
                                 const sparse::RowBlock& block, index_t block_size,
                                 cache::Hierarchy& hierarchy, cache::Tlb* tlb);

FormatTraceResult run_hyb_trace(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block,
                                double spill_fraction, cache::Hierarchy& hierarchy,
                                cache::Tlb* tlb);

}  // namespace scc::sim
