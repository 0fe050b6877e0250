// Shared plumbing for the trace generators: the virtual memory layout of a
// core's private arrays, and the Tracker that funnels every reference
// through the TLB and cache hierarchy while accumulating statistics.
// Internal to scc_sim; not part of the public API.
#pragma once

#include <bit>

#include "cache/hierarchy.hpp"
#include "cache/tlb.hpp"
#include "common/error.hpp"
#include "sim/spmv_trace.hpp"

namespace scc::sim::detail {

inline void check_block(const sparse::CsrMatrix& matrix, const sparse::RowBlock& block) {
  SCC_REQUIRE(block.row_begin >= 0 && block.row_end <= matrix.rows() &&
                  block.row_begin <= block.row_end,
              "row block out of range");
}

// Disjoint virtual base addresses for the arrays in a core's private domain.
// Wide separation guarantees regions never overlap for realistic sizes; the
// per-array stagger keeps bases from co-aligning in cache set 0 (a real
// allocator's layout does not exhibit that pathology). Using identical bases
// on every core is fine: each core owns a private hierarchy.
inline constexpr std::uint64_t kStagger = 0x3520ULL;
inline constexpr std::uint64_t kPtrBase = 0x1'0000'0000ULL + 1 * kStagger;
inline constexpr std::uint64_t kIndexBase = 0x2'0000'0000ULL + 2 * kStagger;
inline constexpr std::uint64_t kValueBase = 0x3'0000'0000ULL + 3 * kStagger;
inline constexpr std::uint64_t kXBase = 0x4'0000'0000ULL + 4 * kStagger;
inline constexpr std::uint64_t kYBase = 0x5'0000'0000ULL + 5 * kStagger;
// Extra regions used by format traces (COO row stream of HYB).
inline constexpr std::uint64_t kAuxBase = 0x6'0000'0000ULL + 6 * kStagger;

/// Funnels references through the (optional) TLB and the hierarchy,
/// accumulating the TraceResult counters.
///
/// `access` walks the TLB and the caches. `repeat` is the exact shortcut for
/// a reference to the line of the immediately preceding reference: that
/// reference left the line (and its page) resident and most recently used,
/// so the repeat is an L1 and TLB hit that changes only hit counters and,
/// for a write, the line's dirty bit. Callers pick it where the kernel's
/// reference order guarantees the same line; `access` itself never checks,
/// so the CSR replay pays nothing for the shortcut.
class Tracker {
 public:
  Tracker(cache::Hierarchy& hierarchy, cache::Tlb* tlb)
      : hierarchy_(hierarchy),
        tlb_(tlb),
        line_shift_(std::countr_zero(hierarchy.config().l1.line_bytes)),
        page_holds_line_(tlb == nullptr ||
                         tlb->config().page_bytes >= hierarchy.config().l1.line_bytes) {}

  void access(std::uint64_t address, bool is_write) {
    if (tlb_ != nullptr && !tlb_->access(address)) ++tlb_misses_;
    const cache::MemoryEffect effect = hierarchy_.access(address, is_write);
    switch (effect.level) {
      case cache::ServicedBy::kL1:
        break;
      case cache::ServicedBy::kL2:
        ++l2_hits_;
        break;
      case cache::ServicedBy::kMemory:
        ++memory_;
        break;
    }
    read_bytes_ += effect.memory_read_bytes;
    write_bytes_ += effect.memory_write_bytes;
  }

  /// A reference to the line of the immediately preceding reference. Both
  /// sizes are powers of two, so when a page holds at least a line the page
  /// repeats too; with pages smaller than the line it may not, and the
  /// translation walks the TLB.
  void repeat(std::uint64_t address, bool is_write) {
    if (tlb_ != nullptr) {
      if (page_holds_line_) {
        tlb_->repeat(address);
      } else if (!tlb_->access(address)) {
        ++tlb_misses_;
      }
    }
    hierarchy_.repeat(address, is_write);
  }

  /// Reads `count` consecutive `stride`-byte elements from `first`: the
  /// first element on each line accesses it, the rest repeat it.
  void read_run(std::uint64_t first, std::uint64_t count, std::uint64_t stride) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t address = first + i * stride;
      if (i > 0 && ((address ^ (address - stride)) >> line_shift_) == 0) {
        repeat(address, false);
      } else {
        access(address, false);
      }
    }
  }

  /// Snapshot the accumulated counters into a TraceResult.
  TraceResult finish(nnz_t rows, nnz_t nnz) const {
    TraceResult result;
    result.l1 = hierarchy_.l1().stats();
    result.l2 = hierarchy_.l2().stats();
    result.l2_hit_accesses = l2_hits_;
    result.memory_accesses = memory_;
    result.memory_read_bytes = read_bytes_;
    result.memory_write_bytes = write_bytes_;
    result.tlb_misses = tlb_misses_;
    result.rows = rows;
    result.nnz = nnz;
    return result;
  }

 private:
  cache::Hierarchy& hierarchy_;
  cache::Tlb* tlb_;
  int line_shift_;
  bool page_holds_line_;
  std::uint64_t l2_hits_ = 0;
  std::uint64_t memory_ = 0;
  std::uint64_t tlb_misses_ = 0;
  bytes_t read_bytes_ = 0;
  bytes_t write_bytes_ = 0;
};

}  // namespace scc::sim::detail
