// Small descriptive-statistics helpers used by the benchmark harness to
// aggregate per-matrix results the way the paper reports them (suite
// averages, speedup distributions, percentiles).
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace scc {

/// Arithmetic mean; requires a non-empty input.
double mean(std::span<const double> values);

/// Geometric mean; requires non-empty, strictly positive inputs.
double geomean(std::span<const double> values);

/// Sample standard deviation (n-1 denominator); zero for a single sample.
double stddev(std::span<const double> values);

double min_value(std::span<const double> values);
double max_value(std::span<const double> values);

/// Linear-interpolation percentile, q in [0, 100].
double percentile(std::span<const double> values, double q);

/// `percentile` of an input already sorted ascending, without the copy and
/// sort: sort once, then read several quantiles.
double percentile_sorted(std::span<const double> sorted, double q);

/// Fraction of values strictly greater than `threshold` (used for claims like
/// "speedup > 1.10 in more than 50% of the matrices").
double fraction_above(std::span<const double> values, double threshold);

/// Five-number-ish summary for table output.
struct Summary {
  double mean = 0.0;
  double geomean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

Summary summarize(std::span<const double> values);

}  // namespace scc
