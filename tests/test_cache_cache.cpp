#include "cache/cache.hpp"

#include <gtest/gtest.h>

#include <string>

namespace scc::cache {
namespace {

CacheConfig tiny() {
  // 4 sets x 4 ways x 32B lines = 512 B: easy to reason about evictions.
  return CacheConfig{.size_bytes = 512, .line_bytes = 32, .ways = 4};
}

/// The message `config.validate()` throws, or "" if it accepts the config.
std::string rejection(const CacheConfig& config) {
  try {
    config.validate();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(CacheConfig, SccDefaultsValidate) {
  CacheConfig l1{.size_bytes = 16 * 1024, .line_bytes = 32, .ways = 4};
  CacheConfig l2{.size_bytes = 256 * 1024, .line_bytes = 32, .ways = 4};
  EXPECT_NO_THROW(l1.validate());
  EXPECT_NO_THROW(l2.validate());
  EXPECT_EQ(l1.sets(), 128);
  EXPECT_EQ(l2.sets(), 2048);
}

TEST(CacheConfig, RejectsNonPowerOfTwo) {
  EXPECT_THROW((CacheConfig{.size_bytes = 500, .line_bytes = 32, .ways = 4}).validate(),
               std::invalid_argument);
  EXPECT_THROW((CacheConfig{.size_bytes = 512, .line_bytes = 24, .ways = 4}).validate(),
               std::invalid_argument);
  EXPECT_THROW((CacheConfig{.size_bytes = 512, .line_bytes = 32, .ways = 3}).validate(),
               std::invalid_argument);
}

TEST(CacheConfig, RejectsMoreWaysThanThePseudoLruStateHolds) {
  // 64 ways would need 63 tree bits; the per-set state is 32 bits wide.
  const std::string message =
      rejection(CacheConfig{.size_bytes = 64 * 32, .line_bytes = 32, .ways = 64});
  EXPECT_NE(message.find("32-way limit"), std::string::npos) << message;
  EXPECT_EQ(rejection(CacheConfig{.size_bytes = 32 * 32, .line_bytes = 32, .ways = 32}), "");
}

TEST(CacheConfig, RejectsSingleSetWithByteLines) {
  // One set of 1-byte lines: the tag is the whole address, so address ~0
  // would read as the empty-way marker and hit cold.
  const std::string message =
      rejection(CacheConfig{.size_bytes = 4, .line_bytes = 1, .ways = 4});
  EXPECT_NE(message.find("single-set"), std::string::npos) << message;
  // Either a second set or 2-byte lines makes the geometry representable.
  EXPECT_EQ(rejection(CacheConfig{.size_bytes = 8, .line_bytes = 1, .ways = 4}), "");
  Cache c(CacheConfig{.size_bytes = 8, .line_bytes = 2, .ways = 4});
  EXPECT_FALSE(c.contains(~0ULL));
  EXPECT_FALSE(c.access(~0ULL, false).hit);
  EXPECT_TRUE(c.access(~0ULL, false).hit);
}

TEST(Cache, ColdMissThenHit) {
  Cache c(tiny());
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000, false).hit);
  EXPECT_EQ(c.stats().read_misses, 1u);
  EXPECT_EQ(c.stats().read_hits, 1u);
}

TEST(Cache, SameLineDifferentOffsetHits) {
  Cache c(tiny());
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x101f, false).hit);   // last byte of the same 32B line
  EXPECT_FALSE(c.access(0x1020, false).hit);  // next line
}

TEST(Cache, AssociativityHoldsFourWays) {
  Cache c(tiny());
  // Four addresses mapping to set 0 (stride = sets*line = 128).
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(c.access(i * 128, false).hit);
  }
  // All four still resident.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(c.access(i * 128, false).hit) << i;
  }
}

TEST(Cache, FifthWayEvicts) {
  Cache c(tiny());
  for (std::uint64_t i = 0; i < 5; ++i) c.access(i * 128, false);
  EXPECT_EQ(c.stats().evictions, 1u);
  // The newest line is resident; at least one old line was evicted.
  EXPECT_TRUE(c.contains(4 * 128));
}

TEST(Cache, PseudoLruVictimIsNotMostRecent) {
  Cache c(tiny());
  for (std::uint64_t i = 0; i < 4; ++i) c.access(i * 128, false);
  // Touch line 3 so it is MRU, then force an eviction.
  c.access(3 * 128, false);
  c.access(4 * 128, false);
  EXPECT_TRUE(c.contains(3 * 128));  // MRU must survive tree-PLRU
}

TEST(Cache, PseudoLruApproximatesLruOnSequentialFill) {
  Cache c(tiny());
  // Fill ways in order 0..3; with tree-PLRU the victim is then way 0's line.
  for (std::uint64_t i = 0; i < 4; ++i) c.access(i * 128, false);
  c.access(4 * 128, false);
  EXPECT_FALSE(c.contains(0 * 128));
}

TEST(Cache, WriteMissAllocates) {
  Cache c(tiny());
  EXPECT_FALSE(c.access(0x40, true).hit);
  EXPECT_TRUE(c.access(0x40, false).hit);
  EXPECT_EQ(c.stats().write_misses, 1u);
}

TEST(Cache, DirtyEvictionReportsVictim) {
  Cache c(tiny());
  c.access(0, true);  // dirty line in set 0
  for (std::uint64_t i = 1; i < 4; ++i) c.access(i * 128, false);
  // Evict through set 0; the dirty line is the PLRU victim.
  const AccessResult r = c.access(4 * 128, false);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.evicted_dirty);
  EXPECT_EQ(r.victim_address, 0u);
  EXPECT_EQ(c.stats().dirty_writebacks, 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback) {
  Cache c(tiny());
  for (std::uint64_t i = 0; i < 5; ++i) c.access(i * 128, false);
  EXPECT_EQ(c.stats().dirty_writebacks, 0u);
}

TEST(Cache, VictimAddressReconstruction) {
  Cache c(tiny());
  const std::uint64_t addr = 3 * 128 + 64;  // set 2, some tag
  c.access(addr, true);
  // Fill set 2 (addresses with same set index): stride 128 from base 64.
  for (std::uint64_t i = 1; i < 4; ++i) c.access(64 + (3 + i) * 128, false);
  const AccessResult r = c.access(64 + 8 * 128, false);
  ASSERT_TRUE(r.evicted_dirty);
  // Victim line base = original address rounded down to the line.
  EXPECT_EQ(r.victim_address, (addr / 32) * 32);
}

TEST(Cache, FlushInvalidatesEverything) {
  Cache c(tiny());
  c.access(0x100, false);
  c.access(0x200, true);
  c.flush();
  EXPECT_FALSE(c.contains(0x100));
  EXPECT_FALSE(c.contains(0x200));
  EXPECT_EQ(c.stats().dirty_writebacks, 1u);  // the dirty line
}

TEST(Cache, MissRateComputation) {
  Cache c(tiny());
  c.access(0, false);
  c.access(0, false);
  c.access(0, false);
  c.access(0, false);
  EXPECT_DOUBLE_EQ(c.stats().miss_rate(), 0.25);
}

TEST(Cache, ResetStatsKeepsContents) {
  Cache c(tiny());
  c.access(0x1000, false);
  c.reset_stats();
  EXPECT_EQ(c.stats().accesses(), 0u);
  EXPECT_TRUE(c.contains(0x1000));
}

TEST(Cache, StreamingMissRateMatchesLineSize) {
  // Sequential byte stream: one miss per 32-byte line.
  Cache c(CacheConfig{.size_bytes = 16 * 1024, .line_bytes = 32, .ways = 4});
  const int bytes = 8192;
  for (int i = 0; i < bytes; i += 8) c.access(static_cast<std::uint64_t>(i), false);
  EXPECT_EQ(c.stats().misses(), static_cast<std::uint64_t>(bytes / 32));
}

TEST(Cache, WorkingSetLargerThanCacheThrashes) {
  Cache c(tiny());  // 512 B
  // Two passes over 4 KB: pass 2 hits nothing (capacity misses).
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t a = 0; a < 4096; a += 32) c.access(a, false);
  }
  EXPECT_EQ(c.stats().hits(), 0u);
}

TEST(Cache, WorkingSetSmallerThanCacheHitsOnSecondPass) {
  Cache c(CacheConfig{.size_bytes = 4096, .line_bytes = 32, .ways = 4});
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t a = 0; a < 2048; a += 32) c.access(a, false);
  }
  EXPECT_EQ(c.stats().hits(), 64u);
  EXPECT_EQ(c.stats().misses(), 64u);
}

TEST(CacheMruHit, RepeatedHitsLeaveVictimUnchanged) {
  // Fill set 0's four ways, make line 2 the MRU, then re-hit it: once in
  // one cache, a hundred times in the other. The next miss in the set must
  // evict the same line (way 0, the pseudo-LRU victim) in both.
  Cache once(tiny());
  Cache many(tiny());
  for (Cache* c : {&once, &many}) {
    for (std::uint64_t i = 0; i < 4; ++i) c->access(i * 128, false);
  }
  once.access(2 * 128, false);
  for (int n = 0; n < 100; ++n) EXPECT_TRUE(many.access(2 * 128, false).hit);
  once.access(4 * 128, false);
  many.access(4 * 128, false);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(once.contains(i * 128), many.contains(i * 128)) << "line " << i;
  }
  EXPECT_FALSE(many.contains(0));
  EXPECT_EQ(many.stats().read_hits, 100u);
}

TEST(CacheMruHit, FlushedMruLineMisses) {
  Cache c(tiny());
  c.access(0x100, false);
  EXPECT_TRUE(c.access(0x100, false).hit);  // an MRU hit
  c.flush();
  EXPECT_FALSE(c.contains(0x100));
  EXPECT_FALSE(c.access(0x100, false).hit);
}

TEST(CacheMruHit, WriteHitOnMruWayMarksItDirty) {
  Cache c(tiny());
  c.access(0, false);                  // clean fill; line 0 is its set's MRU
  EXPECT_TRUE(c.access(8, true).hit);  // write hit on the MRU way
  for (std::uint64_t i = 1; i < 4; ++i) c.access(i * 128, false);
  const AccessResult r = c.access(4 * 128, false);  // evicts line 0
  EXPECT_TRUE(r.evicted_dirty);
  EXPECT_EQ(r.victim_address, 0u);
  EXPECT_EQ(c.stats().write_hits, 1u);
  EXPECT_EQ(c.stats().dirty_writebacks, 1u);
}

TEST(CacheStats, Accumulation) {
  CacheStats a{.read_hits = 1, .read_misses = 2, .write_hits = 3, .write_misses = 4,
               .evictions = 5, .dirty_writebacks = 6};
  CacheStats b = a;
  b += a;
  EXPECT_EQ(b.read_hits, 2u);
  EXPECT_EQ(b.misses(), 12u);
  EXPECT_EQ(b.dirty_writebacks, 12u);
}

/// Associativity sweep: a 2^k-line working set fits exactly for every
/// power-of-two associativity.
class CacheWaysSweep : public ::testing::TestWithParam<int> {};

TEST_P(CacheWaysSweep, FullOccupancyNoEvictions) {
  const int ways = GetParam();
  Cache c(CacheConfig{.size_bytes = 2048, .line_bytes = 32, .ways = ways});
  const int lines = 2048 / 32;
  for (int i = 0; i < lines; ++i) c.access(static_cast<std::uint64_t>(i) * 32, false);
  EXPECT_EQ(c.stats().evictions, 0u);
  for (int i = 0; i < lines; ++i) {
    EXPECT_TRUE(c.contains(static_cast<std::uint64_t>(i) * 32)) << "line " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheWaysSweep, ::testing::Values(1, 2, 4, 8, 16, 32));

}  // namespace
}  // namespace scc::cache
