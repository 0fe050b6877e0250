// Set-associative cache model with tree pseudo-LRU replacement.
//
// Models the SCC core caches the paper describes (Section II): 16 KB L1 and
// 256 KB L2, both 4-way set associative with pseudo-LRU replacement and
// write-back policy, 32-byte lines (P54C line size). The model is
// trace-driven: `access()` is called per memory reference and updates
// hit/miss/eviction statistics; it tracks tags and dirty bits only (no data),
// which is all the timing model needs.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace scc::cache {

struct CacheConfig {
  /// The tree pseudo-LRU state packs ways-1 node bits per set into 32 bits.
  static constexpr int kMaxWays = 32;

  bytes_t size_bytes = 256 * 1024;
  bytes_t line_bytes = 32;
  int ways = 4;

  int sets() const {
    return static_cast<int>(size_bytes / (line_bytes * static_cast<bytes_t>(ways)));
  }

  /// Throws unless sizes are positive powers of two and consistent, and the
  /// geometry is one the model can represent (at most kMaxWays ways; a line
  /// tag that never equals the empty-way marker).
  void validate() const;
};

struct CacheStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_writebacks = 0;

  std::uint64_t hits() const { return read_hits + write_hits; }
  std::uint64_t misses() const { return read_misses + write_misses; }
  std::uint64_t accesses() const { return hits() + misses(); }
  double miss_rate() const {
    return accesses() == 0 ? 0.0
                           : static_cast<double>(misses()) / static_cast<double>(accesses());
  }

  CacheStats& operator+=(const CacheStats& other);
};

/// Outcome of a single cache access, consumed by the next level / the timing
/// model.
struct AccessResult {
  bool hit = false;
  bool evicted_dirty = false;        ///< a dirty victim line must be written back
  std::uint64_t victim_address = 0;  ///< base address of the victim line (valid
                                     ///< only when evicted_dirty)
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Look up `address`; on miss, fill the line (allocate-on-write policy,
  /// matching the write-back L2 the paper describes) evicting the
  /// pseudo-LRU way. Defined inline below: this is the innermost call of the
  /// trace replay (3-4 invocations per nonzero) and must inline into
  /// detail::Tracker::access.
  AccessResult access(std::uint64_t address, bool is_write);

  /// Invalidate everything (the SCC has no coherence; software flushes).
  /// Dirty lines are counted as writebacks, as a software flush would cause.
  void flush();

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  /// True if the line containing `address` is currently resident (test hook).
  bool contains(std::uint64_t address) const;

 private:
  int victim_way(std::size_t set) const;
  void touch(std::size_t set, int way);
  /// Bit w set iff way w of the set starting at slot `base` holds `tag`.
  std::uint32_t match_mask(std::size_t base, std::uint64_t tag) const;
  /// Miss path: fill `tag` into `set`, evicting the pseudo-LRU way if full.
  AccessResult fill(std::size_t set, std::uint64_t tag, bool is_write);

  CacheConfig config_;
  int sets_;
  int line_shift_;
  // Hoisted per-access invariants: recomputing countr_zero over the set
  // count on every reference costs measurably in the trace-replay hot loop.
  int tag_shift_;  ///< countr_zero(sets_): line -> tag
  std::uint64_t set_mask_;
  // tag per (set, way); kEmpty means invalid. Dirty bits packed separately.
  static constexpr std::uint64_t kEmpty = ~0ULL;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint8_t> dirty_;
  // Tree pseudo-LRU state: (ways-1) bits per set, packed in a word.
  std::vector<std::uint32_t> plru_;
  // Most recently touched way of each set, written by touch().
  std::vector<std::uint8_t> mru_;
  // The node bits on a way's root-to-leaf path, split by the value touch()
  // gives them (pointing away from the way); indexed by way.
  struct PathMask {
    std::uint32_t clear = 0;
    std::uint32_t set = 0;
  };
  std::array<PathMask, CacheConfig::kMaxWays> plru_path_{};
  CacheStats stats_;
};

// ---------------------------------------------------------------------------
// Hot path, kept in the header so the whole Tracker::access chain
// (TLB -> L1 -> L2) inlines into the trace loops.

inline int Cache::victim_way(std::size_t set) const {
  // Walk the pseudo-LRU tree: each internal node bit points toward the side
  // that was least recently used. Nodes are heap-indexed; leaves map to ways.
  const std::uint32_t bits = plru_[set];
  const int ways = config_.ways;
  int node = 0;
  while (node < ways - 1) {
    const int bit = static_cast<int>((bits >> node) & 1U);
    node = 2 * node + 1 + bit;
  }
  return node - (ways - 1);
}

inline void Cache::touch(std::size_t set, int way) {
  const PathMask& path = plru_path_[static_cast<std::size_t>(way)];
  plru_[set] = (plru_[set] & ~path.clear) | path.set;
  mru_[set] = static_cast<std::uint8_t>(way);
}

inline std::uint32_t Cache::match_mask(std::size_t base, std::uint64_t tag) const {
  std::uint32_t mask = 0;
  for (int w = 0; w < config_.ways; ++w) {
    mask |= static_cast<std::uint32_t>(tags_[base + static_cast<std::size_t>(w)] == tag) << w;
  }
  return mask;
}

inline AccessResult Cache::access(std::uint64_t address, bool is_write) {
  const std::uint64_t line = address >> line_shift_;
  const auto set = static_cast<std::size_t>(line & set_mask_);
  const std::uint64_t tag = line >> tag_shift_;
  const std::size_t base = set * static_cast<std::size_t>(config_.ways);

  // A hit on the set's MRU way needs no pLRU update: touch() already pointed
  // every node on its path away from it, and doing so again changes nothing.
  std::size_t slot = base + mru_[set];
  if (tags_[slot] != tag) {
    const std::uint32_t hits = match_mask(base, tag);
    if (hits == 0) return fill(set, tag, is_write);
    const int way = std::countr_zero(hits);
    touch(set, way);
    slot = base + static_cast<std::size_t>(way);
  }
  if (is_write) {
    dirty_[slot] = 1;
    ++stats_.write_hits;
  } else {
    ++stats_.read_hits;
  }
  return AccessResult{.hit = true, .evicted_dirty = false};
}

inline AccessResult Cache::fill(std::size_t set, std::uint64_t tag, bool is_write) {
  // Miss: prefer the first invalid way, else evict the pseudo-LRU victim.
  const std::size_t base = set * static_cast<std::size_t>(config_.ways);
  const std::uint32_t empty = match_mask(base, kEmpty);
  AccessResult result;
  int way = 0;
  if (empty != 0) {
    way = std::countr_zero(empty);
  } else {
    way = victim_way(set);
    ++stats_.evictions;
    const std::size_t victim = base + static_cast<std::size_t>(way);
    if (dirty_[victim] != 0) {
      result.evicted_dirty = true;
      ++stats_.dirty_writebacks;
      const std::uint64_t victim_line = (tags_[victim] << tag_shift_) | set;
      result.victim_address = victim_line << line_shift_;
    }
  }
  const std::size_t slot = base + static_cast<std::size_t>(way);
  tags_[slot] = tag;
  dirty_[slot] = is_write ? 1 : 0;
  touch(set, way);
  if (is_write) {
    ++stats_.write_misses;
  } else {
    ++stats_.read_misses;
  }
  return result;
}

}  // namespace scc::cache
