#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace scc {

double mean(std::span<const double> values) {
  SCC_REQUIRE(!values.empty(), "mean of empty range");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double geomean(std::span<const double> values) {
  SCC_REQUIRE(!values.empty(), "geomean of empty range");
  double log_sum = 0.0;
  for (double v : values) {
    SCC_REQUIRE(v > 0.0, "geomean requires positive values, got " << v);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double stddev(std::span<const double> values) {
  SCC_REQUIRE(!values.empty(), "stddev of empty range");
  if (values.size() == 1) return 0.0;
  const double m = mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values.size() - 1));
}

double min_value(std::span<const double> values) {
  SCC_REQUIRE(!values.empty(), "min of empty range");
  return *std::min_element(values.begin(), values.end());
}

double max_value(std::span<const double> values) {
  SCC_REQUIRE(!values.empty(), "max of empty range");
  return *std::max_element(values.begin(), values.end());
}

double percentile(std::span<const double> values, double q) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, q);
}

double percentile_sorted(std::span<const double> sorted, double q) {
  SCC_REQUIRE(!sorted.empty(), "percentile of empty range");
  SCC_REQUIRE(q >= 0.0 && q <= 100.0, "percentile q must be in [0,100], got " << q);
  if (sorted.size() == 1) return sorted.front();
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double fraction_above(std::span<const double> values, double threshold) {
  SCC_REQUIRE(!values.empty(), "fraction_above of empty range");
  std::size_t count = 0;
  for (double v : values) {
    if (v > threshold) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(values.size());
}

Summary summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  s.mean = mean(values);
  s.stddev = stddev(values);
  s.min = min_value(values);
  s.max = max_value(values);
  s.p25 = percentile(values, 25.0);
  s.median = percentile(values, 50.0);
  s.p75 = percentile(values, 75.0);
  bool all_positive = true;
  for (double v : values) all_positive = all_positive && v > 0.0;
  s.geomean = all_positive ? geomean(values) : 0.0;
  return s;
}

}  // namespace scc
