// Shared plumbing for the figure-reproduction benches: suite loading with
// the env-controlled scale, mean-over-suite simulation sweeps, uniform
// headers, and the Reporter that turns every binary's tables + claims into
// a BENCH_<name>.json artifact (schema v1, kind "bench").
//
// Environment knobs: SCC_TESTBED_SCALE (suite size), SCC_QUIET=1 (suppress
// the stderr suite-building / artifact logs), SCC_BENCH_CSV_DIR and
// SCC_BENCH_JSON_DIR (artifact destinations; JSON defaults to the cwd).
#pragma once

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "obs/report.hpp"
#include "sim/engine.hpp"
#include "testbed/cache.hpp"
#include "testbed/suite.hpp"

namespace scc::benchutil {

/// True when SCC_QUIET=1 asks the benches to keep stderr clean (CI logs).
inline bool quiet() {
  const char* value = std::getenv("SCC_QUIET");
  return value != nullptr && std::string(value) == "1";
}

/// Load (or generate) the Table-I suite, reporting what was done. Honour
/// SCC_TESTBED_SCALE for quick smoke runs and SCC_QUIET=1 for silence.
inline std::vector<testbed::SuiteEntry> load_suite() {
  const double scale = testbed::suite_scale_from_env();
  if (!quiet()) {
    std::cerr << "[suite] building Table-I testbed at scale " << scale
              << " (cache: " << testbed::cache_directory() << ") ..." << std::flush;
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto suite = testbed::build_suite(scale);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  nnz_t total = 0;
  for (const auto& e : suite) total += e.matrix.nnz();
  if (!quiet()) {
    std::cerr << " done in " << Table::num(secs, 1) << "s (" << total << " nonzeros total)\n";
  }
  return suite;
}

/// Mean whole-run GFLOPS over the suite for one configuration.
inline double suite_mean_gflops(const sim::Engine& engine,
                                const std::vector<testbed::SuiteEntry>& suite, int ue_count,
                                chip::MappingPolicy policy,
                                sim::SpmvVariant variant = sim::SpmvVariant::kCsr) {
  const sim::RunSpec spec{.ue_count = ue_count, .policy = policy, .variant = variant};
  std::vector<double> gflops;
  gflops.reserve(suite.size());
  for (const auto& e : suite) {
    gflops.push_back(engine.run(e.matrix, spec).gflops);
  }
  return mean(gflops);
}

/// Mean single-core GFLOPS at a forced hop distance (Fig 3).
inline double suite_mean_gflops_at_hops(const sim::Engine& engine,
                                        const std::vector<testbed::SuiteEntry>& suite,
                                        int hops) {
  const sim::RunSpec spec{.cores = {0}, .forced_hops = hops};
  std::vector<double> gflops;
  gflops.reserve(suite.size());
  for (const auto& e : suite) {
    gflops.push_back(engine.run(e.matrix, spec).gflops);
  }
  return mean(gflops);
}

/// Note on stdout that a working-set bucket holds no matrix at this testbed
/// scale, instead of aborting on the empty mean.
inline void report_empty_bucket(const std::string& bucket, const std::vector<double>& values) {
  if (!values.empty()) return;
  std::cout << "\nEmpty bucket: no matrix at testbed scale " << testbed::suite_scale_from_env()
            << " falls in '" << bucket << "'; the claims that need it fail.\n";
}

/// `num / den`, or 0 when an empty bucket left `den` at 0.
inline double ratio_or_zero(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Print a table and, when $SCC_BENCH_CSV_DIR is set, also write it as
/// <dir>/<stem>.csv -- machine-readable artifacts for plotting pipelines.
inline void emit(const Table& table, const std::string& stem) {
  table.print(std::cout);
  if (const char* dir = std::getenv("SCC_BENCH_CSV_DIR"); dir != nullptr && *dir != '\0') {
    std::filesystem::create_directories(dir);
    const std::filesystem::path path = std::filesystem::path(dir) / (stem + ".csv");
    std::ofstream out(path);
    if (out.is_open()) {
      table.print_csv(out);
      if (!quiet()) std::cerr << "[csv] wrote " << path.string() << '\n';
    }
  }
}

/// Banner every figure binary prints first.
inline void banner(const std::string& figure, const std::string& what) {
  std::cout << "==========================================================\n"
            << figure << " -- " << what << "\n"
            << "(simulated SCC; see DESIGN.md for the substitution notes)\n"
            << "==========================================================\n";
}

/// Per-binary report builder: wraps banner/emit/check_claims so the human
/// output stays exactly as before while every table and claim also lands in
/// BENCH_<name>.json (schema v1, kind "bench") on finish(). Destination:
/// $SCC_BENCH_JSON_DIR when set, else the working directory.
class Reporter {
 public:
  explicit Reporter(std::string name) : name_(std::move(name)) {}

  void banner(const std::string& figure, const std::string& what) {
    benchutil::banner(figure, what);
    figure_ = figure;
    what_ = what;
  }

  void emit(const Table& table, const std::string& stem) {
    benchutil::emit(table, stem);
    tables_.push_back(obs::table_json(table, stem));
  }

  /// Evaluate + pretty-print the reproduction claims (same output as the
  /// free check_claims) and keep the filled-in results for the artifact.
  bool check_claims(std::vector<ClaimCheck> claims) {
    const bool ok = evaluate_claims(claims);
    scc::check_claims(std::cout, claims);
    for (const ClaimCheck& claim : claims) claims_.push_back(obs::claim_json(claim));
    return ok;
  }

  /// Write BENCH_<name>.json and map `ok` to the process exit code.
  int finish(bool ok) {
    obs::Json report = obs::report_skeleton(obs::kKindBench);
    report.set("name", name_);
    report.set("figure", figure_);
    report.set("description", what_);
    report.set("testbed_scale", testbed::suite_scale_from_env());
    report.set("tables", std::move(tables_));
    report.set("claims", std::move(claims_));
    report.set("ok", ok);

    std::filesystem::path dir = ".";
    if (const char* env = std::getenv("SCC_BENCH_JSON_DIR"); env != nullptr && *env != '\0') {
      dir = env;
      std::filesystem::create_directories(dir);
    }
    const std::filesystem::path path = dir / ("BENCH_" + name_ + ".json");
    std::ofstream out(path);
    if (out.is_open()) {
      out << report.dump(2) << '\n';
      if (!quiet()) std::cerr << "[json] wrote " << path.string() << '\n';
    }
    return ok ? 0 : 1;
  }

 private:
  std::string name_;
  std::string figure_;
  std::string what_;
  obs::Json tables_ = obs::Json::array();
  obs::Json claims_ = obs::Json::array();
};

/// The core counts the paper's per-core-count figures sweep.
inline const std::vector<int>& core_count_sweep() {
  static const std::vector<int> counts = {1, 2, 4, 8, 16, 24, 32, 48};
  return counts;
}

}  // namespace scc::benchutil
