#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace scc {
namespace {

TEST(Stats, MeanOfSingleValue) {
  const std::vector<double> v{42.0};
  EXPECT_DOUBLE_EQ(mean(v), 42.0);
}

TEST(Stats, MeanOfSeveralValues) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
}

TEST(Stats, MeanOfEmptyThrows) {
  const std::vector<double> v;
  EXPECT_THROW(mean(v), std::invalid_argument);
}

TEST(Stats, GeomeanOfEqualValuesIsThatValue) {
  const std::vector<double> v{3.0, 3.0, 3.0};
  EXPECT_NEAR(geomean(v), 3.0, 1e-12);
}

TEST(Stats, GeomeanOfTwoValues) {
  const std::vector<double> v{1.0, 4.0};
  EXPECT_NEAR(geomean(v), 2.0, 1e-12);
}

TEST(Stats, GeomeanRejectsNonPositive) {
  const std::vector<double> v{1.0, 0.0};
  EXPECT_THROW(geomean(v), std::invalid_argument);
}

TEST(Stats, GeomeanIsBelowMeanForSpreadData) {
  const std::vector<double> v{1.0, 100.0};
  EXPECT_LT(geomean(v), mean(v));
}

TEST(Stats, StddevOfConstantIsZero) {
  const std::vector<double> v{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(stddev(v), 0.0);
}

TEST(Stats, StddevSampleFormula) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Known example: population stddev 2, sample stddev 2.138...
  EXPECT_NEAR(stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, StddevOfSingleSampleIsZero) {
  const std::vector<double> v{1.0};
  EXPECT_DOUBLE_EQ(stddev(v), 0.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> v{3.0, -1.0, 7.0, 2.0};
  EXPECT_DOUBLE_EQ(min_value(v), -1.0);
  EXPECT_DOUBLE_EQ(max_value(v), 7.0);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);
}

TEST(Stats, PercentileMedianInterpolates) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 25.0);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::vector<double> v{40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 25.0);
}

TEST(Stats, PercentileRejectsOutOfRangeQ) {
  const std::vector<double> v{1.0};
  EXPECT_THROW(percentile(v, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile(v, 101.0), std::invalid_argument);
}

TEST(Stats, PercentileSortedIsBitIdenticalToPercentile) {
  Rng rng(0x5ca1e);
  for (const std::size_t n : {1u, 2u, 3u, 17u, 1000u, 20001u}) {
    std::vector<double> values(n);
    for (double& v : values) v = rng.uniform_real(-1e3, 1e6) * rng.uniform01();
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.0, 1.0, 25.0, 50.0, 95.0, 99.0, 99.9, 100.0,
                           rng.uniform_real(0.0, 100.0)}) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(percentile_sorted(sorted, q)),
                std::bit_cast<std::uint64_t>(percentile(values, q)))
          << "n=" << n << " q=" << q;
    }
  }
  const std::vector<double> empty;
  EXPECT_THROW(percentile_sorted(empty, 50.0), std::invalid_argument);
  const std::vector<double> one{1.0};
  EXPECT_THROW(percentile_sorted(one, 100.5), std::invalid_argument);
}

TEST(Stats, FractionAboveCountsStrictly) {
  const std::vector<double> v{1.0, 1.1, 1.2, 1.0};
  EXPECT_DOUBLE_EQ(fraction_above(v, 1.0), 0.5);
}

TEST(Stats, FractionAboveAllOrNone) {
  const std::vector<double> v{2.0, 3.0};
  EXPECT_DOUBLE_EQ(fraction_above(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(fraction_above(v, 10.0), 0.0);
}

TEST(Stats, SummarizeConsistency) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_GT(s.geomean, 0.0);
  EXPECT_LE(s.p25, s.median);
  EXPECT_LE(s.median, s.p75);
}

TEST(Stats, SummarizeWithNonPositiveSkipsGeomean) {
  const std::vector<double> v{-1.0, 1.0};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.geomean, 0.0);
}

/// Property sweep: percentile is monotone in q for random data.
class PercentileMonotone : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotone, MonotoneInQ) {
  std::vector<double> v;
  // Deterministic pseudo-data from the seed parameter.
  unsigned state = static_cast<unsigned>(GetParam());
  for (int i = 0; i < 50; ++i) {
    state = state * 1664525u + 1013904223u;
    v.push_back(static_cast<double>(state % 1000));
  }
  double prev = percentile(v, 0.0);
  for (int q = 5; q <= 100; q += 5) {
    const double cur = percentile(v, q);
    EXPECT_GE(cur, prev) << "q=" << q;
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotone, ::testing::Values(1, 2, 3, 7, 13));

}  // namespace
}  // namespace scc
