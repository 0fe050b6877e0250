// Differential test of the cache models against a naive reference.
//
// cache::Cache takes shortcuts on its hot path: it checks the set's most
// recently used way first, matches tags through a branchless mask, and
// updates the pseudo-LRU tree with precomputed path masks. The reference
// below takes none of them. It searches the ways linearly, keeps valid bits
// apart from the tags, and walks the pseudo-LRU tree node by node on every
// access. Seeded address streams drive both models address for address.
// Every AccessResult, the statistics and residency must agree, for Cache
// itself and for the Hierarchy and Tlb built on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "cache/tlb.hpp"
#include "common/rng.hpp"

namespace scc::cache {
namespace {

class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config)
      : line_(config.line_bytes),
        sets_(static_cast<std::uint64_t>(config.sets())),
        ways_(config.ways),
        lines_(sets_ * static_cast<std::uint64_t>(ways_)),
        nodes_(sets_ * static_cast<std::uint64_t>(ways_ - 1), false) {}

  AccessResult access(std::uint64_t address, bool is_write) {
    const std::uint64_t set = (address / line_) % sets_;
    const std::uint64_t tag = (address / line_) / sets_;
    for (int way = 0; way < ways_; ++way) {
      Line& line = at(set, way);
      if (line.valid && line.tag == tag) {
        touch(set, way);
        if (is_write) {
          line.dirty = true;
          ++stats_.write_hits;
        } else {
          ++stats_.read_hits;
        }
        return AccessResult{.hit = true};
      }
    }
    AccessResult result;
    int way = 0;
    while (way < ways_ && at(set, way).valid) ++way;
    if (way == ways_) {
      way = victim(set);
      ++stats_.evictions;
      const Line& old = at(set, way);
      if (old.dirty) {
        ++stats_.dirty_writebacks;
        result.evicted_dirty = true;
        result.victim_address = (old.tag * sets_ + set) * line_;
      }
    }
    at(set, way) = Line{.valid = true, .dirty = is_write, .tag = tag};
    touch(set, way);
    if (is_write) {
      ++stats_.write_misses;
    } else {
      ++stats_.read_misses;
    }
    return result;
  }

  void flush() {
    for (Line& line : lines_) {
      if (line.valid && line.dirty) ++stats_.dirty_writebacks;
      line = Line{};
    }
    nodes_.assign(nodes_.size(), false);
  }

  bool contains(std::uint64_t address) const {
    const std::uint64_t set = (address / line_) % sets_;
    const std::uint64_t tag = (address / line_) / sets_;
    for (int way = 0; way < ways_; ++way) {
      if (at(set, way).valid && at(set, way).tag == tag) return true;
    }
    return false;
  }

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    std::uint64_t tag = 0;
  };

  Line& at(std::uint64_t set, int way) {
    return lines_[set * static_cast<std::uint64_t>(ways_) + static_cast<std::uint64_t>(way)];
  }
  const Line& at(std::uint64_t set, int way) const {
    return lines_[set * static_cast<std::uint64_t>(ways_) + static_cast<std::uint64_t>(way)];
  }

  // Tree pseudo-LRU: one flag per internal node of a heap-ordered binary
  // tree whose leaves are the ways, left to right. A node's flag names the
  // half holding the victim: false = left (lower ways), true = right.
  std::vector<bool>::reference node(std::uint64_t set, std::uint64_t index) {
    return nodes_[set * static_cast<std::uint64_t>(ways_ - 1) + index];
  }

  void touch(std::uint64_t set, int way) {
    std::uint64_t index = 0;
    int lo = 0;
    int hi = ways_;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      const bool went_left = way < mid;
      node(set, index) = went_left;  // the victim lies in the other half
      index = 2 * index + (went_left ? 1 : 2);
      if (went_left) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
  }

  int victim(std::uint64_t set) {
    std::uint64_t index = 0;
    int lo = 0;
    int hi = ways_;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      const bool go_right = node(set, index);
      index = 2 * index + (go_right ? 2 : 1);
      if (go_right) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  std::uint64_t line_;
  std::uint64_t sets_;
  int ways_;
  std::vector<Line> lines_;
  std::vector<bool> nodes_;
  CacheStats stats_;
};

/// The Hierarchy composition rules, restated over two reference caches.
class ReferenceHierarchy {
 public:
  explicit ReferenceHierarchy(const HierarchyConfig& config)
      : config_(config), l1_(config.l1), l2_(config.l2) {}

  MemoryEffect access(std::uint64_t address, bool is_write) {
    const bytes_t line = config_.l1.line_bytes;
    const AccessResult l1 = l1_.access(address, is_write);
    if (l1.hit) return MemoryEffect{.level = ServicedBy::kL1};
    MemoryEffect effect{.level = ServicedBy::kMemory};
    if (!config_.l2_enabled) {
      effect.memory_read_bytes = line;
      effect.memory_write_bytes = l1.evicted_dirty ? line : 0;
      return effect;
    }
    // The dirty L1 victim is written into L2 and may push a dirty L2 victim
    // out to memory.
    if (l1.evicted_dirty && l2_.access(l1.victim_address, true).evicted_dirty) {
      effect.memory_write_bytes += line;
    }
    const AccessResult l2 = l2_.access(address, is_write);
    if (l2.hit) {
      effect.level = ServicedBy::kL2;
    } else {
      effect.memory_read_bytes = line;
      if (l2.evicted_dirty) effect.memory_write_bytes += line;
    }
    return effect;
  }

  bytes_t flush() {
    const std::uint64_t before = l2_.stats().dirty_writebacks;
    l1_.flush();
    l2_.flush();
    return (l2_.stats().dirty_writebacks - before) * config_.l1.line_bytes;
  }

  void reset_stats() {
    l1_.reset_stats();
    l2_.reset_stats();
  }

  const ReferenceCache& l1() const { return l1_; }
  const ReferenceCache& l2() const { return l2_; }

 private:
  HierarchyConfig config_;
  ReferenceCache l1_;
  ReferenceCache l2_;
};

struct Op {
  enum class Kind { kAccess, kFlush, kResetStats };
  Kind kind = Kind::kAccess;
  std::uint64_t address = 0;
  bool is_write = false;
};

struct StreamShape {
  std::uint64_t line = 32;
  std::uint64_t conflict_stride = 128;  ///< line * sets: same set, next tag
  int ways = 4;
  double write_fraction = 0.25;
};

/// A seeded stream mixing unit-stride runs (several references per line, as
/// the trace generators make), same-set conflicts (more tags than ways),
/// repeats of recent addresses, random addresses near the working set and
/// anywhere in the 64-bit space, with flush() and reset_stats() interleaved.
std::vector<Op> make_stream(std::uint64_t seed, const StreamShape& shape, std::size_t length) {
  Rng rng(seed);
  const std::uint64_t region = shape.conflict_stride * static_cast<std::uint64_t>(shape.ways) * 4;
  std::vector<Op> ops;
  const auto push = [&](std::uint64_t address) {
    ops.push_back(Op{.address = address, .is_write = rng.bernoulli(shape.write_fraction)});
  };
  while (ops.size() < length) {
    switch (rng.uniform(10)) {
      case 0:
      case 1:
      case 2: {
        std::uint64_t address = rng.uniform(region);
        for (std::uint64_t n = 4 + rng.uniform(60); n > 0; --n, address += 4) push(address);
        break;
      }
      case 3:
      case 4: {
        const std::uint64_t base = rng.uniform(region);
        const auto tags = static_cast<std::uint64_t>(shape.ways) + 2;
        for (std::uint64_t n = 4 + rng.uniform(28); n > 0; --n) {
          push(base + rng.uniform(tags) * shape.conflict_stride);
        }
        break;
      }
      case 5:
        if (!ops.empty()) {
          const Op recent = ops[ops.size() - 1 - rng.uniform(std::min<std::size_t>(ops.size(), 8))];
          for (std::uint64_t n = 1 + rng.uniform(8); n > 0; --n) push(recent.address);
        }
        break;
      case 6:
        for (std::uint64_t n = 1 + rng.uniform(16); n > 0; --n) push(rng.uniform(region));
        break;
      case 7:
        push(rng.next());
        push(~0ULL - rng.uniform(shape.line * 2));
        break;
      case 8:
        if (rng.bernoulli(0.15)) ops.push_back(Op{.kind = Op::Kind::kFlush});
        break;
      default:
        if (rng.bernoulli(0.15)) ops.push_back(Op{.kind = Op::Kind::kResetStats});
        break;
    }
  }
  return ops;
}

void expect_same_stats(const CacheStats& got, const CacheStats& want) {
  EXPECT_EQ(got.read_hits, want.read_hits);
  EXPECT_EQ(got.read_misses, want.read_misses);
  EXPECT_EQ(got.write_hits, want.write_hits);
  EXPECT_EQ(got.write_misses, want.write_misses);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.dirty_writebacks, want.dirty_writebacks);
}

std::string describe(const CacheConfig& config) {
  std::ostringstream out;
  out << config.size_bytes << " B, " << config.line_bytes << " B lines, " << config.ways
      << " ways, " << config.sets() << " sets";
  return out.str();
}

void replay_against_reference(const CacheConfig& config, const std::vector<Op>& ops) {
  Cache cache(config);
  ReferenceCache reference(config);
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (op.kind == Op::Kind::kFlush) {
      cache.flush();
      reference.flush();
      ASSERT_EQ(cache.stats().dirty_writebacks, reference.stats().dirty_writebacks) << "op " << i;
      continue;
    }
    if (op.kind == Op::Kind::kResetStats) {
      cache.reset_stats();
      reference.reset_stats();
      continue;
    }
    const AccessResult got = cache.access(op.address, op.is_write);
    const AccessResult want = reference.access(op.address, op.is_write);
    ASSERT_EQ(got.hit, want.hit) << "op " << i << " address " << op.address;
    ASSERT_EQ(got.evicted_dirty, want.evicted_dirty) << "op " << i;
    ASSERT_EQ(got.victim_address, want.victim_address) << "op " << i;
    ASSERT_EQ(cache.contains(previous), reference.contains(previous)) << "op " << i;
    previous = op.address;
  }
  expect_same_stats(cache.stats(), reference.stats());
  for (const Op& op : ops) {
    ASSERT_EQ(cache.contains(op.address), reference.contains(op.address)) << op.address;
  }
}

class CacheReferenceWays : public ::testing::TestWithParam<int> {};

TEST_P(CacheReferenceWays, MatchesNaiveModelAccessForAccess) {
  const int ways = GetParam();
  std::uint64_t seed = std::uint64_t{0xcace0000} + static_cast<std::uint64_t>(ways);
  for (const bytes_t line : std::initializer_list<bytes_t>{4, 16, 32, 256, 4096}) {
    for (const bytes_t sets : std::initializer_list<bytes_t>{1, 2, 16, 128}) {
      const CacheConfig config{.size_bytes = line * sets * static_cast<bytes_t>(ways),
                               .line_bytes = line,
                               .ways = ways};
      for (const double write_fraction : {0.0, 0.1, 0.25, 0.5}) {
        SCOPED_TRACE(describe(config) + ", write fraction " + std::to_string(write_fraction));
        const StreamShape shape{.line = line,
                                .conflict_stride = line * sets,
                                .ways = ways,
                                .write_fraction = write_fraction};
        ASSERT_NO_FATAL_FAILURE(replay_against_reference(config, make_stream(++seed, shape, 4000)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheReferenceWays, ::testing::Values(1, 2, 4, 8, 16, 32));

TEST(CacheReference, SccGeometriesOverLongStreams) {
  for (const CacheConfig& config :
       {CacheConfig{.size_bytes = 16 * 1024, .line_bytes = 32, .ways = 4},
        CacheConfig{.size_bytes = 256 * 1024, .line_bytes = 32, .ways = 4}}) {
    SCOPED_TRACE(describe(config));
    const StreamShape shape{.line = 32,
                            .conflict_stride = 32 * static_cast<bytes_t>(config.sets()),
                            .ways = 4,
                            .write_fraction = 0.3};
    ASSERT_NO_FATAL_FAILURE(replay_against_reference(config, make_stream(77, shape, 60000)));
  }
}

struct HierarchyCase {
  HierarchyConfig config;
  double write_fraction;
};

TEST(HierarchyReference, MatchesNaiveModelAccessForAccess) {
  const auto level = [](bytes_t size, bytes_t line, int ways) {
    return CacheConfig{.size_bytes = size, .line_bytes = line, .ways = ways};
  };
  std::vector<HierarchyCase> cases;
  for (const bool l2_enabled : {true, false}) {
    // SCC default, a tiny write-heavy pair whose dirty L1 victims keep
    // missing L2 (victim writebacks that evict dirty L2 lines), and
    // direct-mapped / highly associative extremes.
    cases.push_back({{level(16 * 1024, 32, 4), level(256 * 1024, 32, 4), l2_enabled}, 0.3});
    cases.push_back({{level(256, 32, 2), level(512, 32, 4), l2_enabled}, 0.5});
    cases.push_back({{level(256, 64, 1), level(2048, 64, 8), l2_enabled}, 0.25});
    cases.push_back({{level(1024, 16, 32), level(4096, 16, 32), l2_enabled}, 0.4});
    cases.push_back({{level(512, 4, 2), level(512, 4, 16), l2_enabled}, 0.5});
  }
  std::uint64_t seed = 0x41e7;
  std::uint64_t chained_writebacks = 0;
  for (const HierarchyCase& c : cases) {
    SCOPED_TRACE("L1 " + describe(c.config.l1) + "; L2 " + describe(c.config.l2) +
                 (c.config.l2_enabled ? "" : " (off)"));
    Hierarchy hierarchy(c.config);
    ReferenceHierarchy reference(c.config);
    const StreamShape shape{
        .line = c.config.l2.line_bytes,
        .conflict_stride = c.config.l2.line_bytes * static_cast<bytes_t>(c.config.l2.sets()),
        .ways = c.config.l2.ways,
        .write_fraction = c.write_fraction};
    const std::vector<Op> ops = make_stream(++seed, shape, 20000);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      if (op.kind == Op::Kind::kFlush) {
        ASSERT_EQ(hierarchy.flush(), reference.flush()) << "op " << i;
        continue;
      }
      if (op.kind == Op::Kind::kResetStats) {
        hierarchy.reset_stats();
        reference.reset_stats();
        continue;
      }
      const MemoryEffect got = hierarchy.access(op.address, op.is_write);
      const MemoryEffect want = reference.access(op.address, op.is_write);
      ASSERT_EQ(got.level, want.level) << "op " << i;
      ASSERT_EQ(got.memory_read_bytes, want.memory_read_bytes) << "op " << i;
      ASSERT_EQ(got.memory_write_bytes, want.memory_write_bytes) << "op " << i;
      if (c.config.l2_enabled && got.level == ServicedBy::kL2 && got.memory_write_bytes > 0) {
        ++chained_writebacks;
      }
    }
    expect_same_stats(hierarchy.l1().stats(), reference.l1().stats());
    expect_same_stats(hierarchy.l2().stats(), reference.l2().stats());
    for (const Op& op : ops) {
      ASSERT_EQ(hierarchy.l1().contains(op.address), reference.l1().contains(op.address));
      ASSERT_EQ(hierarchy.l2().contains(op.address), reference.l2().contains(op.address));
    }
  }
  // The streams reached the L1 victim -> dirty L2 victim -> memory chain.
  EXPECT_GT(chained_writebacks, 0u);
}

TEST(TlbReference, MatchesNaiveModelAccessForAccess) {
  std::uint64_t seed = 0x7b;
  for (const TlbConfig& config : {TlbConfig{}, TlbConfig{.entries = 16, .ways = 1},
                                  TlbConfig{.entries = 32, .ways = 32},
                                  TlbConfig{.entries = 256, .ways = 8, .page_bytes = 64},
                                  TlbConfig{.entries = 8, .ways = 2, .page_bytes = bytes_t{2} << 20}}) {
    SCOPED_TRACE(std::to_string(config.entries) + " entries, " + std::to_string(config.ways) +
                 " ways, " + std::to_string(config.page_bytes) + " B pages");
    Tlb tlb(config);
    ReferenceCache reference(CacheConfig{
        .size_bytes = static_cast<bytes_t>(config.entries) * config.page_bytes,
        .line_bytes = config.page_bytes,
        .ways = config.ways});
    const StreamShape shape{
        .line = config.page_bytes,
        .conflict_stride =
            config.page_bytes * static_cast<bytes_t>(config.entries / config.ways),
        .ways = config.ways,
        .write_fraction = 0.0};
    const std::vector<Op> ops = make_stream(++seed, shape, 20000);
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      if (op.kind == Op::Kind::kFlush) {
        tlb.flush();
        reference.flush();
      } else if (op.kind == Op::Kind::kAccess) {
        const bool hit = tlb.access(op.address);
        ASSERT_EQ(hit, reference.access(op.address, false).hit) << "op " << i;
        ++(hit ? hits : misses);
      }
    }
    EXPECT_EQ(tlb.hits(), reference.stats().read_hits);
    EXPECT_EQ(tlb.misses(), reference.stats().read_misses);
    EXPECT_EQ(tlb.hits(), hits);
    EXPECT_EQ(tlb.misses(), misses);
  }
}

}  // namespace
}  // namespace scc::cache
