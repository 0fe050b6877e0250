// The shared job-timing oracle of the serving layers.
//
// Both the single-chip simulator (serve/simulator.hpp) and the multi-chip
// cluster simulator (cluster/simulator.hpp) price a job the same way: one
// sim::Engine run on the job's core set for the product phase, plus a CSR
// distribute/load phase that streams the matrix through the partition's
// memory controllers. Factoring the computation (and its memoization cache)
// out of the simulator keeps the two layers bit-identical by construction:
// a zero-fault single-chip cluster replays the exact doubles the serve
// simulator produced.
#pragma once

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "integrity/integrity.hpp"
#include "sim/engine.hpp"
#include "sim/run_cache.hpp"
#include "testbed/suite.hpp"
#include "tune/cache.hpp"

namespace scc::serve {

/// Lazily materialized Table-I stand-ins shared across simulator instances
/// (one pool per bench process; the policy sweep reuses the same matrices).
/// The pool also creates the shared engine-level sim::RunCache -- sharded
/// per sim::RunCacheConfig, optionally persisted to disk -- and hands every
/// ServiceModel a co-owning handle: sweeps build a fresh Simulator per
/// configuration but share the pool, so memoized runs carry across
/// instances (and, with a persist_path, across processes). Disable with
/// `MatrixPool::without_run_cache` or by setting SCC_RUN_CACHE=0 in the
/// environment.
class MatrixPool {
 public:
  /// Pool whose shared RunCache is built from `cache_config` (capacity,
  /// shard count, snapshot path). SCC_RUN_CACHE=0 still wins and disables
  /// memoization outright.
  explicit MatrixPool(double scale, const sim::RunCacheConfig& cache_config = {});

  /// Pool with engine-run memoization disabled.
  static MatrixPool without_run_cache(double scale);

  double scale() const { return scale_; }
  /// Build (or return the memoized) suite entry for a Table-I id.
  const testbed::SuiteEntry& entry(int id);

  /// Engine-run memoization cache shared by every ServiceModel on this
  /// pool; empty when disabled. Callers receive co-ownership, so the cache
  /// (and its exit snapshot, when persisted) may outlive the pool.
  const std::shared_ptr<sim::RunCache>& run_cache() const { return run_cache_; }

  /// Shared tuning cache, created lazily on first request: every simulator
  /// (serve and cluster alike) tuning against this pool pins and reuses the
  /// same per-matrix winners, so one exploration serves the whole stack.
  /// The first caller's `config` wins (capacity, snapshot path); later
  /// callers get the same cache regardless of their config.
  const std::shared_ptr<tune::TuningCache>& tuning_cache(
      const tune::TuningCacheConfig& config = {});

 private:
  struct NoCacheTag {};
  MatrixPool(double scale, NoCacheTag);

  double scale_;
  std::map<int, testbed::SuiteEntry> entries_;
  std::shared_ptr<sim::RunCache> run_cache_;  ///< nullptr when disabled
  std::shared_ptr<tune::TuningCache> tuning_cache_;  ///< lazily created
};

/// CSR bytes a matrix occupies on the wire (rowptr + column indices +
/// values) -- the unit of both the per-job load phase and the cluster
/// layer's inter-chip re-ship pricing.
double csr_stream_bytes(const sparse::CsrMatrix& matrix);

/// Isolated (contention-free) timing of one job on one core partition.
struct JobTiming {
  double load_seconds = 0.0;     ///< CSR distribute/load, paid once per job
  double product_seconds = 0.0;  ///< one product == Engine::run seconds
  double beta = 0.0;             ///< memory-bound fraction of the product
  /// Tile-kill repartition overhead (detection window + re-shipped CSR
  /// blocks); zero for healthy timings. Charged once, not per product.
  double recovery_seconds = 0.0;
};

/// Storage plan of a dispatched job: the autotuner's tuned (format,
/// reorder) choice, defaulting to the untuned CSR path. Core count and
/// mapping tune through the partitioner, not here.
struct JobPlan {
  sim::StorageFormat format = sim::StorageFormat::kCsr;
  sim::Reordering reorder = sim::Reordering::kNone;
  friend bool operator==(const JobPlan&, const JobPlan&) = default;
};

class ServiceModel {
 public:
  /// `verify` is the ABFT mode every priced job runs under: the engine adds
  /// the checksum dot-products' streamed bytes to each product, so verify-on
  /// serving pays its overhead inside product_seconds (docs/INTEGRITY.md).
  ServiceModel(const sim::EngineConfig& config, MatrixPool& pool,
               integrity::VerifyMode verify = integrity::VerifyMode::kOff);

  const sim::Engine& engine() const { return engine_; }
  MatrixPool& pool() { return pool_; }
  integrity::VerifyMode verify() const { return verify_; }

  /// Healthy timing of `matrix_id` on `cores` (memoized), optionally under
  /// a tuned storage plan.
  const JobTiming& timing(int matrix_id, const std::vector<int>& cores);
  const JobTiming& timing(int matrix_id, const std::vector<int>& cores, const JobPlan& plan);

  /// Cold-cache timing of the same job: the product is priced by a twin
  /// engine configured with measure_steady_state = false, so the run pays
  /// compulsory misses instead of the steady-state warm figure. This is the
  /// warm-up transient a re-admitted chip serves until its working set is
  /// re-established. Memoized like timing(); the cold engine shares the
  /// pool's RunCache (sim::RunKey keys measure_steady_state, so cold and
  /// warm entries never collide).
  const JobTiming& cold_timing(int matrix_id, const std::vector<int>& cores);
  const JobTiming& cold_timing(int matrix_id, const std::vector<int>& cores,
                               const JobPlan& plan);

  /// CSR bytes of `matrix_id` as shipped between chips.
  double reship_bytes(int matrix_id);

  /// Time to re-ship `matrix_id`'s CSR blocks to a chip that does not hold
  /// them, through an inter-chip link modeled as `link_bandwidth_fraction`
  /// of one memory controller's sustainable bandwidth (the same bandwidth
  /// model the contention tracker prices against).
  double reship_seconds(int matrix_id, double link_bandwidth_fraction);

  /// Timing after `killed_core` (a member of `cores`, which must have at
  /// least two) dies mid-job: the survivors redo the whole product under
  /// sim::Engine's degraded protocol and the job is charged the
  /// detection + re-ship recovery cost once. Memoized like timing().
  const JobTiming& degraded_timing(int matrix_id, const std::vector<int>& cores,
                                   int killed_core);

  /// The one place a serving-layer dispatch becomes an engine RunSpec.
  /// `killed_core < 0` is a healthy job; otherwise the degraded protocol's
  /// rank-0 ownership rule is applied (the dead tile is swapped to the back
  /// when it sits at rank 0 -- the survivor set, hence the timing, is
  /// unchanged). Both timing() and degraded_timing() go through here, and
  /// the cluster layer prices through them. A tuned plan composes with
  /// healthy jobs only: the degraded protocol re-ships CSR blocks, so a
  /// killed-core spec always prices as CSR (tuning never changes recovery).
  /// `verify` prices the per-product ABFT check; the spec carries no SDC
  /// plan, so memoized timings stay corruption-free (the serving layers
  /// classify corrupted jobs outside the RunCache, by seeded oracle).
  static sim::RunSpec job_spec(const std::vector<int>& cores, int killed_core = -1,
                               const JobPlan& plan = {},
                               integrity::VerifyMode verify = integrity::VerifyMode::kOff);

 private:
  sim::Engine engine_;
  sim::Engine cold_engine_;  ///< same config, measure_steady_state = false
  MatrixPool& pool_;
  integrity::VerifyMode verify_;
  /// Key: (matrix, core set, killed core or -1 for healthy, cold caches,
  /// plan format, plan reorder). The verify mode is fixed per ServiceModel,
  /// so it needs no key column.
  std::map<std::tuple<int, std::vector<int>, int, bool, int, int>, JobTiming> cache_;
};

}  // namespace scc::serve
