#include "tune/features.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "sim/format_traces.hpp"
#include "sparse/properties.hpp"

namespace scc::tune {

namespace {

/// Nonzeros per value a BCSR plan of `format` stores (its fill's inverse).
double block_fill(const sparse::CsrMatrix& matrix, sim::StorageFormat format) {
  const sparse::RowBlock whole{0, matrix.rows(), matrix.nnz()};
  const double stored = sim::rank_counts(matrix, whole, format).executed_elements;
  return stored == 0.0 ? 0.0 : static_cast<double>(matrix.nnz()) / stored;
}

/// Coarse bucket of log2(x); one bucket per factor of two.
std::int64_t log2_bucket(double x) {
  if (x <= 0.0) return -1;
  return static_cast<std::int64_t>(std::floor(std::log2(x)));
}

std::int64_t linear_bucket(double x, double buckets_per_unit) {
  return static_cast<std::int64_t>(std::floor(x * buckets_per_unit));
}

}  // namespace

FeatureVector extract_features(const sparse::CsrMatrix& matrix) {
  SCC_REQUIRE(matrix.rows() > 0 && matrix.cols() > 0, "features need a non-empty matrix");
  FeatureVector f;
  f.rows = matrix.rows();
  f.cols = matrix.cols();
  f.nnz = matrix.nnz();

  const sparse::RowStats stats = sparse::row_stats(matrix);
  f.nnz_per_row = stats.mean_length;
  f.row_cv = stats.mean_length > 0.0 ? stats.stddev_length / stats.mean_length : 0.0;
  f.empty_fraction = stats.empty_fraction;
  f.bandwidth_ratio = matrix.rows() > 1
                          ? static_cast<double>(sparse::bandwidth(matrix)) /
                                static_cast<double>(matrix.rows() - 1)
                          : 0.0;
  f.density = static_cast<double>(matrix.nnz()) /
              (static_cast<double>(matrix.rows()) * static_cast<double>(matrix.cols()));
  f.x_line_reuse = sparse::x_line_reuse_fraction(matrix);
  f.block_fill_2 = block_fill(matrix, sim::StorageFormat::kBcsr2);
  f.block_fill_4 = block_fill(matrix, sim::StorageFormat::kBcsr4);
  f.working_set_mb = static_cast<double>(sparse::working_set_bytes(matrix)) / (1024.0 * 1024.0);
  return f;
}

std::uint64_t class_key(const FeatureVector& f) {
  common::Fnv1a hash;
  // One bucket per factor of two in size: a family rescaled by the testbed
  // scale knob drifts classes slowly, while genuinely different shapes
  // (circuit vs. banded vs. power-law) separate on the ratio features below.
  hash.i64(log2_bucket(static_cast<double>(f.rows)));
  hash.i64(log2_bucket(std::max(f.nnz_per_row, 1.0)));
  hash.i64(linear_bucket(std::min(f.row_cv, 4.0), 4.0));
  hash.i64(linear_bucket(f.empty_fraction, 8.0));
  hash.i64(linear_bucket(std::min(f.bandwidth_ratio, 1.0), 8.0));
  hash.i64(linear_bucket(f.x_line_reuse, 8.0));
  hash.i64(linear_bucket(std::min(f.block_fill_4, 1.0), 8.0));
  return hash.value();
}

obs::Json features_json(const FeatureVector& f) {
  obs::Json json = obs::Json::object();
  json.set("rows", static_cast<long long>(f.rows));
  json.set("cols", static_cast<long long>(f.cols));
  json.set("nnz", static_cast<long long>(f.nnz));
  json.set("nnz_per_row", f.nnz_per_row);
  json.set("row_cv", f.row_cv);
  json.set("empty_fraction", f.empty_fraction);
  json.set("bandwidth_ratio", f.bandwidth_ratio);
  json.set("density", f.density);
  json.set("x_line_reuse", f.x_line_reuse);
  json.set("block_fill_2", f.block_fill_2);
  json.set("block_fill_4", f.block_fill_4);
  json.set("working_set_mb", f.working_set_mb);
  return json;
}

}  // namespace scc::tune
