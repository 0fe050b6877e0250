// Two-level private cache hierarchy of one SCC core.
//
// L1 (16 KB) backed by L2 (256 KB), both 4-way pseudo-LRU write-back, 32-byte
// lines. The SCC provides no coherence between cores, so each simulated core
// owns a private hierarchy and there is no snoop traffic to model. The L2 can
// be disabled, reproducing the paper's Figure-7 experiment of booting the
// cores with L2 off.
#pragma once

#include "cache/cache.hpp"

namespace scc::cache {

/// Which level serviced an access; `kMemory` means the request left the chip
/// through the mesh to a memory controller.
enum class ServicedBy { kL1, kL2, kMemory };

struct HierarchyConfig {
  CacheConfig l1{.size_bytes = 16 * 1024, .line_bytes = 32, .ways = 4};
  CacheConfig l2{.size_bytes = 256 * 1024, .line_bytes = 32, .ways = 4};
  bool l2_enabled = true;
};

/// Result of one reference as seen by the timing model: where it was
/// serviced and how many bytes moved on the memory side (line fill plus any
/// dirty-victim writeback).
struct MemoryEffect {
  ServicedBy level = ServicedBy::kL1;
  bytes_t memory_read_bytes = 0;
  bytes_t memory_write_bytes = 0;
};

class Hierarchy {
 public:
  explicit Hierarchy(const HierarchyConfig& config);

  /// Simulate one reference. Inclusive fill policy: an L1 miss is looked up
  /// in L2; a line missing everywhere is fetched from memory into both
  /// levels. Dirty L1 victims are written into L2 (no memory traffic); dirty
  /// L2 victims go to memory. Inline below -- this sits on the trace-replay
  /// hot path (every simulated reference funnels through it).
  MemoryEffect access(std::uint64_t address, bool is_write);

  /// A reference to the line of the immediately preceding `access()`: an L1
  /// hit (Cache::repeat), which never reaches L2 or memory.
  void repeat(std::uint64_t address, bool is_write) { l1_.repeat(address, is_write); }

  /// Software cache flush (the SCC's substitute for coherence). Dirty L2
  /// lines produce memory write traffic, returned in bytes.
  bytes_t flush();

  const Cache& l1() const { return l1_; }
  const Cache& l2() const { return l2_; }
  bool l2_enabled() const { return config_.l2_enabled; }
  const HierarchyConfig& config() const { return config_; }

  void reset_stats();

 private:
  HierarchyConfig config_;
  Cache l1_;
  Cache l2_;
};

inline MemoryEffect Hierarchy::access(std::uint64_t address, bool is_write) {
  const bytes_t line = config_.l1.line_bytes;
  MemoryEffect effect;

  const AccessResult l1_result = l1_.access(address, is_write);
  if (l1_result.hit) {
    effect.level = ServicedBy::kL1;
    return effect;
  }

  if (!config_.l2_enabled) {
    // L1 miss with L2 off: fill straight from memory.
    effect.level = ServicedBy::kMemory;
    effect.memory_read_bytes = line;
    if (l1_result.evicted_dirty) effect.memory_write_bytes = line;
    return effect;
  }

  // Dirty L1 victim is written back into L2. If the victim misses L2 (the
  // hierarchy is only weakly inclusive), the write allocates there and may in
  // turn push a dirty L2 victim to memory.
  if (l1_result.evicted_dirty) {
    const AccessResult victim_wb = l2_.access(l1_result.victim_address, true);
    if (!victim_wb.hit && victim_wb.evicted_dirty) {
      effect.memory_write_bytes += line;
    }
  }

  const AccessResult l2_result = l2_.access(address, is_write);
  if (l2_result.hit) {
    effect.level = ServicedBy::kL2;
    return effect;
  }
  effect.level = ServicedBy::kMemory;
  effect.memory_read_bytes = line;
  if (l2_result.evicted_dirty) effect.memory_write_bytes += line;
  return effect;
}

}  // namespace scc::cache
