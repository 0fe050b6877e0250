// The online format/mapping autotuner.
//
// On first sight of a matrix fingerprint the tuner explores the fixed grid
// (kGrid: format x reorder x core count) through sim::Engine::run -- sharing the
// serving pool's RunCache, so exploration is priced once and replayed free
// -- scores each candidate by modeled steady-state time (with a mild
// space-efficiency bias: at saturation, a plan that frees cores lets more
// jobs co-run), and pins the winner in the shared TuningCache. A
// Kimball-style fast path classifies familiar structure (tune::class_key)
// and evaluates only the class's known winner instead of the whole grid;
// decisions carry a predicted/explored split surfaced in tune.* metrics and
// the report's "tuning" section.
//
// Determinism: the grid order is fixed, the engine is byte-identical at any
// SCC_SIM_THREADS, and run-cache hits are bit-exact -- so the same matrix
// under the same config yields the same winner (and the same decision-log
// bytes) at any thread count, with or without a run cache, fresh or
// persisted. bench/autotune_sweep asserts exactly that.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/run_cache.hpp"
#include "tune/cache.hpp"
#include "tune/features.hpp"

namespace scc::tune {

/// The fixed exploration grid: every format, without and (square matrices
/// only; the product stays bit-identical, see Reordering::kRcmRows) with the
/// RCM row schedule, at each core count under one mapping. Score = seconds *
/// (1 + core_time_weight * (cores-1)/47): the mild preference for smaller
/// footprints that makes tuned plans co-run at saturation.
struct Grid {
  std::array<sim::StorageFormat, 5> formats;
  std::array<int, 4> core_counts;
  chip::MappingPolicy mapping;
  double core_time_weight;
};

inline constexpr Grid kGrid{
    .formats = {sim::StorageFormat::kCsr, sim::StorageFormat::kEll, sim::StorageFormat::kBcsr2,
                sim::StorageFormat::kBcsr4, sim::StorageFormat::kHyb},
    .core_counts = {4, 12, 24, 48},
    .mapping = chip::MappingPolicy::kDistanceReduction,
    .core_time_weight = 0.25};

struct AutotuneConfig {
  /// Classify familiar structure and evaluate only the class winner.
  bool feature_fastpath = true;
  TuningCacheConfig cache;
};

/// One logged decide() outcome (cache hits are counted, not re-logged).
struct DecisionRecord {
  std::uint64_t fingerprint = 0;
  int matrix_id = -1;  ///< testbed id when known, -1 otherwise
  TuningDecision decision;
};

class Autotuner {
 public:
  /// Counter snapshot; serving layers report per-run deltas.
  struct Counters {
    std::uint64_t cache_hits = 0;     ///< decisions served from the TuningCache
    std::uint64_t predicted = 0;      ///< fast-path (classified) decisions
    std::uint64_t explored = 0;       ///< full-grid decisions
    std::uint64_t explore_runs = 0;   ///< engine evaluations spent deciding
    double explore_seconds = 0.0;     ///< summed modeled seconds of those runs
  };

  /// `cache` may be shared across tuners/simulators (it is thread-safe);
  /// `run_cache` (optional) is attached to the exploration engine so the
  /// grid is priced once per content key.
  Autotuner(const sim::EngineConfig& engine_config, AutotuneConfig config,
            std::shared_ptr<TuningCache> cache,
            std::shared_ptr<sim::RunCache> run_cache = nullptr);

  /// Deterministic tuning decision for `matrix`: TuningCache hit, class
  /// fast path, or full grid exploration (in that order). `matrix_id` is
  /// only recorded in the decision log.
  TuningDecision decide(const sparse::CsrMatrix& matrix, int matrix_id = -1);

  Counters counters() const { return counters_; }

  /// Ordered log of non-cache-hit decisions since construction.
  const std::vector<DecisionRecord>& log() const { return log_; }
  /// Canonical text rendering of the log (fixed 9-decimal scientific
  /// notation), byte-comparable across thread counts and cache modes.
  std::string decision_log_text() const;

 private:
  double evaluate(const sparse::CsrMatrix& matrix, const Candidate& candidate);

  AutotuneConfig config_;
  sim::Engine engine_;
  std::shared_ptr<TuningCache> cache_;
  std::uint64_t context_hash_ = 0;
  Counters counters_;
  std::vector<DecisionRecord> log_;
};

/// Canonical-order product of `matrix` under a candidate's storage plan:
/// every row accumulates its stored entries (plus the format's explicit
/// zero-padding slots) left to right in ascending column order -- the exact
/// association of the paper's CSR kernel. With finite inputs whose padding
/// terms are +0.0 (always true for the testbed's positive values), the
/// result is bit-identical to spmv_csr for EVERY candidate the tuner can
/// emit; the format-equivalence tests assert this on the full testbed mix.
std::vector<real_t> plan_product(const sparse::CsrMatrix& matrix, const Candidate& candidate,
                                 std::span<const real_t> x);

}  // namespace scc::tune
