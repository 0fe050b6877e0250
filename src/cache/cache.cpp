#include "cache/cache.hpp"

#include <bit>

namespace scc::cache {

void CacheConfig::validate() const {
  SCC_REQUIRE(line_bytes > 0 && std::has_single_bit(line_bytes),
              "cache line size must be a power of two, got " << line_bytes);
  SCC_REQUIRE(ways > 0 && std::has_single_bit(static_cast<unsigned>(ways)),
              "associativity must be a power of two, got " << ways);
  SCC_REQUIRE(ways <= kMaxWays,
              "associativity " << ways << " exceeds the " << kMaxWays
                               << "-way limit of the tree pseudo-LRU state; use at most "
                               << kMaxWays << " ways");
  SCC_REQUIRE(size_bytes > 0 && size_bytes % (line_bytes * static_cast<bytes_t>(ways)) == 0,
              "cache size " << size_bytes << " not divisible by ways*line");
  SCC_REQUIRE(std::has_single_bit(static_cast<bytes_t>(sets())),
              "number of sets must be a power of two, got " << sets());
  // With one set and 1-byte lines the tag is the whole address, so address
  // ~0 would collide with the empty-way marker.
  SCC_REQUIRE(sets() > 1 || line_bytes > 1,
              "a single-set cache with 1-byte lines cannot be modeled (its tags span the "
              "whole address); use lines of at least 2 bytes or at least 2 sets");
}

CacheStats& CacheStats::operator+=(const CacheStats& other) {
  read_hits += other.read_hits;
  read_misses += other.read_misses;
  write_hits += other.write_hits;
  write_misses += other.write_misses;
  evictions += other.evictions;
  dirty_writebacks += other.dirty_writebacks;
  return *this;
}

Cache::Cache(const CacheConfig& config) : config_(config) {
  config_.validate();
  sets_ = config_.sets();
  line_shift_ = std::countr_zero(config_.line_bytes);
  tag_shift_ = std::countr_zero(static_cast<std::uint64_t>(sets_));
  set_mask_ = static_cast<std::uint64_t>(sets_) - 1;
  const std::size_t slots = static_cast<std::size_t>(sets_) * static_cast<std::size_t>(config_.ways);
  tags_.assign(slots, kEmpty);
  dirty_.assign(slots, 0);
  plru_.assign(static_cast<std::size_t>(sets_), 0);
  mru_.assign(static_cast<std::size_t>(sets_), 0);
  // Touching a way flips every node on its root-to-leaf path to point away
  // from it: a left branch sets the node bit (victim pointer goes right), a
  // right branch clears it.
  const int levels = std::countr_zero(static_cast<unsigned>(config_.ways));
  for (int way = 0; way < config_.ways; ++way) {
    PathMask& path = plru_path_[static_cast<std::size_t>(way)];
    int node = 0;
    for (int level = levels - 1; level >= 0; --level) {
      const int branch = (way >> level) & 1;
      (branch == 0 ? path.set : path.clear) |= 1U << node;
      node = 2 * node + 1 + branch;
    }
  }
}

void Cache::flush() {
  for (std::size_t slot = 0; slot < tags_.size(); ++slot) {
    if (tags_[slot] != kEmpty && dirty_[slot] != 0) {
      ++stats_.dirty_writebacks;
    }
    tags_[slot] = kEmpty;
    dirty_[slot] = 0;
  }
  // mru_ may keep naming a now-empty way: no tag equals kEmpty, so the hint
  // cannot match until a fill touches the set again.
  std::fill(plru_.begin(), plru_.end(), 0U);
}

bool Cache::contains(std::uint64_t address) const {
  const std::uint64_t line = address >> line_shift_;
  const auto set = static_cast<std::size_t>(line & set_mask_);
  return match_mask(set * static_cast<std::size_t>(config_.ways), line >> tag_shift_) != 0;
}

}  // namespace scc::cache
