// Data-TLB model of the P54C core: 64 entries, 4-way set associative over
// 4 KB pages. A TLB miss triggers a hardware page walk -- on the SCC that
// means extra memory-system accesses, a cost the paper's irregular x
// accesses pay constantly on large matrices and the "no-x-miss" variant
// avoids entirely. Internally this is just a set-associative cache over
// page-granular "lines" (pseudo-LRU, never dirty).
#pragma once

#include "cache/cache.hpp"

namespace scc::cache {

struct TlbConfig {
  int entries = 64;
  int ways = 4;
  bytes_t page_bytes = 4096;
};

class Tlb {
 public:
  explicit Tlb(const TlbConfig& config = TlbConfig{});

  /// Translate one access; returns true on a TLB hit. Inline: every
  /// simulated reference translates first, so this is as hot as the caches.
  bool access(std::uint64_t address) {
    return cache_.access(address, /*is_write=*/false).hit;
  }

  /// A translation on the page of the immediately preceding `access()`: a
  /// hit on its set's most recently used entry (Cache::repeat).
  void repeat(std::uint64_t address) { cache_.repeat(address, /*is_write=*/false); }

  std::uint64_t hits() const { return cache_.stats().read_hits; }
  std::uint64_t misses() const { return cache_.stats().read_misses; }

  void flush() { cache_.flush(); }
  const TlbConfig& config() const { return config_; }

 private:
  TlbConfig config_;
  Cache cache_;
};

}  // namespace scc::cache
