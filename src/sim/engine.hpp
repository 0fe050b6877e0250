// The SCC SpMV simulation engine.
//
// Combines the pieces into the timing model that regenerates the paper's
// figures:
//   1. partition the matrix row-wise balancing nonzeros (Section III),
//   2. map UEs to cores under the chosen policy (Section IV-A),
//   3. drive each core's reference trace through its private L1/L2
//      (Sections IV-B/IV-C),
//   4. charge compute cycles in the core clock domain, L2-hit penalties, and
//      full Equation-1 round trips for every memory-level miss (the P54C has
//      blocking loads),
//   5. apply per-memory-controller bandwidth contention, and take the
//      slowest core as the parallel runtime (SpMV ends with a barrier).
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "integrity/integrity.hpp"
#include "noc/mesh.hpp"
#include "scc/latency.hpp"
#include "scc/mapping.hpp"
#include "sim/config.hpp"
#include "sim/format_traces.hpp"
#include "sim/spmv_trace.hpp"

namespace scc::obs {
class Recorder;
}

namespace scc::sim {

/// Row-schedule reorderings the engine can apply before partitioning.
/// kRcmRows permutes only the row order (reverse Cuthill-McKee schedule;
/// columns untouched), so every row's dot product keeps its exact CSR
/// floating-point association -- the product is bit-identical to the
/// unreordered run, only the partition/locality (and thus timing) changes.
enum class Reordering { kNone, kRcmRows };

std::string to_string(StorageFormat format);
std::string to_string(Reordering reorder);
std::string to_string(SpmvVariant variant);

/// Everything that parameterizes one simulated run, bundled so the engine
/// has a single entry point. Every member has a default, so a call names
/// only what it changes:
///   engine.run(m, {.ue_count = 24, .policy = chip::MappingPolicy::kDistanceReduction});
/// Core selection: `cores` (explicit rank->core table) when non-empty,
/// otherwise `policy` applied to `ue_count`. `forced_hops >= 0` overrides
/// every core's hop distance to memory (the Figure-3 experiment; mesh-link
/// accounting is skipped because a forced hop count has no physical route).
/// Non-empty `dead_ranks` switches to the degraded protocol: those UEs fail
/// permanently, their nnz-balanced row blocks are repartitioned over the
/// survivors, and the recovery pays one detection window per dead rank plus
/// the re-shipping of the dead blocks' CSR data through the MCs. It composes
/// with either core selection (rank k dies on `cores[k]` when an explicit
/// table is given), needs at least one survivor, and rank 0 (the matrix
/// owner) must not be dead. `recorder`, when set, receives per-phase spans
/// and metrics (see docs/OBSERVABILITY.md); it never affects the simulated
/// numbers.
struct RunSpec {
  int ue_count = 1;
  chip::MappingPolicy policy = chip::MappingPolicy::kStandard;
  std::vector<int> cores{};
  StorageFormat format = StorageFormat::kCsr;
  Reordering reorder = Reordering::kNone;
  SpmvVariant variant = SpmvVariant::kCsr;
  int forced_hops = -1;
  std::vector<int> dead_ranks{};
  double detection_seconds = 0.001;  ///< watchdog window per dead rank

  /// ABFT verification of the product (docs/INTEGRITY.md). kDetect checks
  /// every product against the matrix's cached checksum row; kCorrect also
  /// recomputes once on a failed check. The checksum dot products are priced
  /// as extra streamed bytes, so turning verification on costs simulated
  /// time even when nothing is corrupted.
  integrity::VerifyMode verify = integrity::VerifyMode::kOff;
  /// Seeded SDC fault model: when non-empty, this product draws a possible
  /// bit flip at `sdc_site` (corruption is deterministic per (plan, site)).
  integrity::SdcPlan sdc{};
  /// Identifies this product within the SDC plan's stream -- serving layers
  /// pass (chip, job) coordinates so schedules replay per chip and job.
  std::uint64_t sdc_site = 0;

  obs::Recorder* recorder = nullptr;
};

/// Per-core outcome of a simulated run.
struct CoreResult {
  int core = 0;
  int hops = 0;
  TraceResult trace;
  double compute_seconds = 0.0;   ///< kernel cycles in the core clock domain
  double l2_hit_seconds = 0.0;    ///< L1-miss/L2-hit penalties
  double stall_seconds = 0.0;     ///< memory round trips (Equation 1)
  double tlb_seconds = 0.0;       ///< page-walk stalls on TLB misses
  double isolated_seconds = 0.0;  ///< sum of the above: runtime absent contention
};

/// Mesh-link traffic accumulated over the run (XY routes between each core
/// and its memory controller: read fills flow MC->core, writebacks
/// core->MC). `max_link` exposes the congestion hot spot the mapping
/// policies fight over.
struct MeshTraffic {
  bytes_t total_link_bytes = 0;
  bytes_t max_link_bytes = 0;
  /// Busiest links (up to 4), descending -- the report's congestion view.
  std::vector<noc::Mesh::LinkLoad> hot_links;
};

/// Whole-run outcome. For a degraded run (RunSpec::dead_ranks non-empty)
/// `seconds`/`gflops` include the recovery overhead and the trailing
/// degraded fields are populated; for a healthy run they stay zero.
struct RunResult {
  std::vector<CoreResult> cores;
  double seconds = 0.0;  ///< parallel runtime (slowest core, after contention)
  double gflops = 0.0;   ///< 2*nnz / seconds / 1e9, the paper's metric
  std::array<bytes_t, chip::kMemoryControllerCount> mc_bytes{};
  std::array<double, chip::kMemoryControllerCount> mc_seconds{};
  bool bandwidth_bound = false;  ///< true when an MC's bandwidth term set the runtime
  MeshTraffic mesh;

  // Degraded-run accounting (zero on healthy runs).
  int dead_count = 0;
  bytes_t reshipped_bytes = 0;
  double recovery_seconds = 0.0;

  // ABFT verification accounting (defaults when RunSpec::verify is kOff and
  // the SDC plan is empty). `seconds`/`gflops` include the verification and
  // recompute overheads.
  integrity::VerifyMode verify = integrity::VerifyMode::kOff;
  integrity::Outcome outcome = integrity::Outcome::kClean;
  bool sdc_injected = false;     ///< ground truth: a bit flip was applied
  bool sdc_significant = false;  ///< ground truth: the delivered y changed
  int verify_attempts = 1;       ///< products computed (2 after a recompute)
  double verify_seconds = 0.0;   ///< checksum dot-product streaming time
  double recompute_seconds = 0.0;  ///< re-run cost of corrected products
  double verify_residual = 0.0;    ///< final attempt's |c^T y - s.x|
  double verify_tolerance = 0.0;

  double mflops() const { return gflops * 1000.0; }
};

class RunCache;

class Engine {
 public:
  explicit Engine(EngineConfig config = EngineConfig{});

  const EngineConfig& config() const { return config_; }

  /// The entry point: simulate y = A*x under `spec`.
  ///
  /// Performance (MODEL.md section 7): the per-rank trace replay fans out
  /// over a host thread pool sized by SCC_SIM_THREADS
  /// (common::sim_thread_count); results are collected by rank index, so
  /// the output is byte-identical for any thread count. Traced runs fan out
  /// too: each rank records its spans into a rank-indexed buffer and the
  /// buffers are merged serially in rank order after the join, so the span
  /// sequence matches the serial loop exactly. When a RunCache is attached,
  /// runs are memoized by content (matrix fingerprint + effective spec +
  /// config); hits return deep copies bit-exact versus a cold simulation,
  /// and a miss replays only the ranks whose replay (row block, trace kind,
  /// cache geometry; see ReplayKey) the cache does not already hold.
  RunResult run(const sparse::CsrMatrix& matrix, const RunSpec& spec) const;

  /// Attach a memoization cache (empty handle detaches). The engine co-owns
  /// the cache, so its lifetime is explicit -- it may outlive the pool or
  /// scope that built it -- and one cache may be shared across engines: the
  /// run key includes the engine configuration.
  void attach_run_cache(std::shared_ptr<RunCache> cache) { run_cache_ = std::move(cache); }

  RunCache* run_cache() const { return run_cache_.get(); }

  /// Sustainable bandwidth of one memory controller under this config.
  double mc_bandwidth_bytes_per_second() const;

 private:
  RunResult run_uncached(const sparse::CsrMatrix& matrix, const RunSpec& spec,
                         const std::vector<int>& cores) const;
  /// The timing-only run (no verification); run_uncached layers the ABFT
  /// check and its pricing on top.
  RunResult run_unverified(const sparse::CsrMatrix& matrix, const RunSpec& spec,
                           const std::vector<int>& cores) const;
  RunResult run_degraded_impl(const sparse::CsrMatrix& matrix, const RunSpec& spec,
                              const std::vector<int>& cores) const;
  /// Replays and prices `matrix` under `spec`'s reorder, format, variant,
  /// forced hops and recorder on `cores`; the dead-rank and verification
  /// knobs are the callers' business.
  RunResult run_generic(const sparse::CsrMatrix& matrix, const RunSpec& spec,
                        const std::vector<int>& cores) const;

  EngineConfig config_;
  std::shared_ptr<RunCache> run_cache_;
};

}  // namespace scc::sim
