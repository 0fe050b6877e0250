#include "cache/tlb.hpp"

#include <gtest/gtest.h>

namespace scc::cache {
namespace {

TEST(Tlb, DefaultIsP54cDtlb) {
  Tlb tlb;
  EXPECT_EQ(tlb.config().entries, 64);
  EXPECT_EQ(tlb.config().ways, 4);
  EXPECT_EQ(tlb.config().page_bytes, 4096u);
}

TEST(Tlb, ColdMissThenHit) {
  Tlb tlb;
  EXPECT_FALSE(tlb.access(0x1000));
  EXPECT_TRUE(tlb.access(0x1000));
  EXPECT_TRUE(tlb.access(0x1fff));  // same page
  EXPECT_FALSE(tlb.access(0x2000)); // next page
  EXPECT_EQ(tlb.misses(), 2u);
  EXPECT_EQ(tlb.hits(), 2u);
}

TEST(Tlb, SixtyFourPagesFit) {
  Tlb tlb;
  for (std::uint64_t p = 0; p < 64; ++p) tlb.access(p * 4096);
  for (std::uint64_t p = 0; p < 64; ++p) {
    EXPECT_TRUE(tlb.access(p * 4096)) << "page " << p;
  }
}

TEST(Tlb, WorkingSetBeyondCapacityThrashes) {
  Tlb tlb;
  // Two sweeps over 256 pages (4x capacity): second sweep still misses.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (std::uint64_t p = 0; p < 256; ++p) tlb.access(p * 4096);
  }
  EXPECT_GT(tlb.misses(), 400u);
}

TEST(Tlb, FlushDropsTranslations) {
  Tlb tlb;
  tlb.access(0x5000);
  tlb.flush();
  EXPECT_FALSE(tlb.access(0x5000));
}

TEST(Tlb, ConfigValidated) {
  TlbConfig bad;
  bad.entries = 62;  // not divisible by ways
  EXPECT_THROW(Tlb{bad}, std::invalid_argument);
  bad = TlbConfig{};
  bad.page_bytes = 3000;  // not a power of two
  EXPECT_THROW(Tlb{bad}, std::invalid_argument);
}

TEST(Tlb, RejectsGeometriesTheCacheModelCannotRepresent) {
  // The TLB is a cache over pages, so it inherits CacheConfig's checks.
  TlbConfig bad{.entries = 64, .ways = 64};  // over the 32-way pseudo-LRU limit
  EXPECT_THROW(Tlb{bad}, std::invalid_argument);
  bad = TlbConfig{.entries = 4, .ways = 4, .page_bytes = 1};  // one set of 1-byte pages
  EXPECT_THROW(Tlb{bad}, std::invalid_argument);
  EXPECT_NO_THROW(Tlb(TlbConfig{.entries = 32, .ways = 32}));
  EXPECT_NO_THROW(Tlb(TlbConfig{.entries = 4, .ways = 4, .page_bytes = 2}));
}

TEST(Tlb, SetConflictsEvict) {
  // 4-way over 16 sets: five pages mapping to the same set evict one.
  Tlb tlb;
  for (std::uint64_t i = 0; i < 5; ++i) tlb.access(i * 16 * 4096);
  int resident = 0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    if (tlb.access(i * 16 * 4096)) ++resident;
  }
  EXPECT_LT(resident, 5);
}

}  // namespace
}  // namespace scc::cache
