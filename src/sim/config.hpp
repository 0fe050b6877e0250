// Simulation configuration: everything that parameterizes the SCC timing
// model in one place, with the calibrated defaults used by the paper-figure
// benches. DESIGN.md section 4 lists the anchors these were tuned against.
#pragma once

#include "cache/hierarchy.hpp"
#include "scc/frequency.hpp"

namespace scc::sim {

/// Cost model of the P54C executing the CSR SpMV inner loop, expressed in
/// core-domain cycles. The P54C is a two-issue in-order pipeline with
/// unpipelined double-precision multiply; ~13 cycles per nonzero (loads that
/// hit L1, fmul+fadd, index arithmetic, loop) plus per-row overhead for the
/// accumulator spill and loop setup -- the overhead the paper blames for the
/// poor showing of very short rows (matrices #24/#25).
struct KernelCostModel {
  double cycles_per_nnz = 13.0;
  double cycles_per_row = 16.0;
  /// Extra core cycles when an access misses L1 but hits the on-tile L2.
  double l2_hit_cycles = 18.0;
  /// RCCE synchronization cost per product: the parallel SpMV ends in a
  /// barrier, implemented by flag polling over the MPB, whose cost grows
  /// linearly with the UE count (RCCE uses a linear gather/release) and is
  /// dominated by *core-clock* cycles (an MPB access costs ~45 core cycles
  /// plus a few mesh cycles, and the polling loop itself runs on the core).
  /// Calibrated at the default 533 MHz core clock; the engine rescales it
  /// with the core frequency. This is what keeps tiny L2-resident matrices
  /// from scaling linearly to 48 cores in the paper's Fig 6.
  double barrier_ns_per_ue = 6000.0;

  /// Per-element costs of the alternative-format kernels (format study).
  /// ELL slots are cheap per iteration but pay a y read-modify-write per
  /// slice; BCSR amortizes indexing over unrolled dense blocks (Williams et
  /// al. report ~1.3-1.5x kernel-only gains at low fill).
  double cycles_per_ell_slot = 15.0;
  double cycles_per_bcsr_element = 9.0;
};

/// Off-chip memory system model.
struct MemoryModel {
  /// The P54C has blocking loads (one outstanding miss), so a memory-level
  /// miss stalls the core for the full Equation-1 round trip. A factor < 1
  /// models the small overlap the write buffers provide.
  double miss_stall_fraction = 1.0;
  /// Fraction of a DDR3 channel's peak (8 bytes * memory clock) that 32-byte
  /// scattered line fills sustain. Melot et al. measured a few GB/s per MC on
  /// the real chip; 0.19 of peak reproduces that and the paper's saturation
  /// behaviour at 12 cores per controller.
  double mc_peak_fraction = 0.19;
  /// Ablation switch: when false, per-MC bandwidth contention is ignored and
  /// runtime is purely latency-based.
  bool model_contention = true;

  /// P54C data-TLB modelling (64-entry 4-way over 4 KB pages). Scattered x
  /// accesses on matrices wider than ~256 K elements overrun the TLB and pay
  /// hardware page walks -- a second locality penalty, beside cache misses,
  /// that the paper's "no-x-miss" experiment removes.
  bool model_tlb = true;
  /// Memory-system round trips charged per page walk (the two-level walk
  /// often hits cached page tables; 1.0 is the average we calibrate with).
  double tlb_walk_memory_accesses = 1.0;
};

struct EngineConfig {
  chip::FrequencyConfig freq = chip::FrequencyConfig::conf0();
  cache::HierarchyConfig hierarchy{};
  KernelCostModel kernel{};
  MemoryModel memory{};
  /// The paper times repeated products, so matrices whose per-core share
  /// fits in L2 run from warm caches. When true (default) each core's trace
  /// runs one warm-up iteration before the measured one; the warm-up is
  /// skipped -- cold and warm behaviour coincide -- when the core's share of
  /// the working set exceeds `warm_skip_factor` times its L2 capacity.
  bool measure_steady_state = true;
  double warm_skip_factor = 3.0;
};

}  // namespace scc::sim
