#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

namespace scc {
namespace {

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next()) << "draw " << i;
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformBoundRespected) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformBoundOneAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Rng, UniformZeroBoundThrows) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(0), std::invalid_argument);
}

TEST(Rng, UniformCoversAllResidues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInInclusiveRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, UniformInDegenerate) {
  Rng rng(9);
  EXPECT_EQ(rng.uniform_in(5, 5), 5);
}

TEST(Rng, UniformInRejectsInvertedRange) {
  Rng rng(9);
  EXPECT_THROW(rng.uniform_in(2, 1), std::invalid_argument);
}

TEST(Rng, UniformRealRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform_real(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.01);
}

TEST(Rng, ForkIndependentOfParentConsumption) {
  Rng parent_a(42);
  Rng parent_b(42);
  // Fork from identical parents must agree regardless of later parent use.
  Rng child_a = parent_a.fork(7);
  Rng child_b = parent_b.fork(7);
  EXPECT_EQ(child_a.next(), child_b.next());
}

TEST(Rng, ForkDifferentTagsDecorrelated) {
  Rng parent(42);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1.next() == c2.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~0ULL);
  Rng rng(1);
  EXPECT_NE(rng(), rng());
}

TEST(ParseSeed, DecimalAndHexForms) {
  EXPECT_EQ(parse_seed("0"), 0u);
  EXPECT_EQ(parse_seed("12345"), 12345u);
  EXPECT_EQ(parse_seed("0x5cc"), 0x5ccu);
  EXPECT_EQ(parse_seed("0XDEADBEEF"), 0xdeadbeefULL);
  EXPECT_EQ(parse_seed("18446744073709551615"), ~0ULL);
}

TEST(ParseSeed, RejectsGarbage) {
  EXPECT_THROW(parse_seed(""), std::invalid_argument);
  EXPECT_THROW(parse_seed("abc"), std::invalid_argument);
  EXPECT_THROW(parse_seed("12x"), std::invalid_argument);
  EXPECT_THROW(parse_seed("-1"), std::invalid_argument);
  EXPECT_THROW(parse_seed("18446744073709551616"), std::invalid_argument);  // 2^64
}

/// Chi-square-ish sanity on byte distribution, parameterized by seed.
// The fault, SDC and cluster-fault schedules draw from site_draw; these
// pinned values keep every recorded schedule byte-identical.
TEST(SiteDraw, PinnedValues) {
  EXPECT_EQ(site_draw(0, 0, 0, 0), 0x82b63280d7717e41ULL);
  EXPECT_EQ(site_draw(0x5cc, 3, 7, 60), 0x33fde657c0140907ULL);
  EXPECT_EQ(site_draw(0xdeadbeef, 1ULL << 40, 12345, 61), 0x87d9c5f80b860116ULL);
  EXPECT_EQ(site_draw(~0ULL, ~0ULL - 1, 2, 9), 0x4b10da7d221c4f41ULL);
  static_assert(site_draw(0, 0, 0, 0) == 0x82b63280d7717e41ULL);
}

class RngDistribution : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngDistribution, LowBytesRoughlyUniform) {
  Rng rng(GetParam());
  std::vector<int> buckets(256, 0);
  const int draws = 256 * 200;
  for (int i = 0; i < draws; ++i) {
    ++buckets[static_cast<std::size_t>(rng.next() & 0xff)];
  }
  for (int b = 0; b < 256; ++b) {
    EXPECT_GT(buckets[static_cast<std::size_t>(b)], 100) << "bucket " << b;
    EXPECT_LT(buckets[static_cast<std::size_t>(b)], 320) << "bucket " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngDistribution,
                         ::testing::Values(1ULL, 99ULL, 0xdeadbeefULL, 0x5cc5eedULL));

}  // namespace
}  // namespace scc
