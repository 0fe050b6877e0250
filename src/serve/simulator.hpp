// The multi-tenant serving simulator: requests -> admission -> queue ->
// chip partition -> contended execution -> latency accounting.
//
// Time is virtual throughout. Each dispatched job's isolated service demand
// is computed once from the timing engine (sim::Engine::run on the job's
// core set) plus a distribute/load phase for shipping the CSR blocks
// through the job's memory controllers; batching K same-matrix requests
// into one job pays that load once and K products. Concurrent jobs then
// progress under the fluid MC-sharing model of serve/contention.hpp. With
// one job in flight the model degenerates to the engine's own numbers
// exactly, so the serving path is a strict superset of the single-tenant
// one (tested in tests/test_serve.cpp).
//
// The simulator is the one-chip, fault-free cluster: run() drives the
// serving loop shared with cluster::ClusterSimulator
// (cluster/serving_loop.hpp) and maps its outcome onto ServeResult. Its
// definition therefore lives in scc_cluster; link scc::cluster to use it.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "integrity/integrity.hpp"
#include "obs/metrics.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/service_model.hpp"
#include "sim/engine.hpp"
#include "testbed/suite.hpp"
#include "tune/autotuner.hpp"

namespace scc::obs {
class Recorder;
}

namespace scc::serve {

/// Everything that parameterizes one serving run besides the workload.
struct ServeConfig {
  SchedulingPolicy policy = SchedulingPolicy::kMatrixAware;
  AdmissionConfig admission;
  PartitionModel partition;
  bool batching = true;
  int batch_max = 8;  ///< requests per job, head included
  sim::EngineConfig engine;
  /// Consult the pool's shared tune::TuningCache at dispatch: each job runs
  /// under its matrix's tuned (format, reorder) plan and, with the
  /// matrix-aware policy, the tuned core count. First sight of a matrix
  /// explores the grid (priced through the shared RunCache); afterwards the
  /// pinned winner is free.
  bool autotune = false;
  tune::AutotuneConfig tuning;  ///< grid + scoring knobs when autotune is on
  /// ABFT verification mode every job's products run under: the engine
  /// prices the checksum dot-products into each product, and a job whose
  /// verification fails is retried once on the same chip (a lone chip has
  /// no replica to reroute to; docs/INTEGRITY.md).
  integrity::VerifyMode verify = integrity::VerifyMode::kOff;
  /// SDC injection for single-chip serving (seeded per job id). The cluster
  /// simulator requires it empty: its corruption model lives in the fault
  /// plan (cluster::FaultPlan::sdc_rate / bad_dram).
  integrity::SdcPlan sdc;
};

/// One chip job: a batch of same-matrix requests on one core partition.
struct JobRecord {
  int id = 0;
  int matrix_id = 0;
  int request_count = 0;        ///< batch size K
  std::vector<int> cores;
  double dispatch_seconds = 0.0;
  double completion_seconds = 0.0;
  double load_seconds = 0.0;     ///< isolated CSR distribute/load time (paid once)
  double product_seconds = 0.0;  ///< isolated per-product time == Engine::run seconds
  double service_seconds = 0.0;  ///< load + K * product (+ SDC recompute)
  double beta = 0.0;             ///< memory-bound fraction fed to the contention model
  /// ABFT classification of this job's products (kClean when no corruption
  /// was injected). With verification on, a corrupted job is recomputed
  /// once on the same chip: service_seconds carries the extra product.
  integrity::Outcome sdc_outcome = integrity::Outcome::kClean;
  int verify_attempts = 1;  ///< products computed (2 when retried)
};

struct LatencySummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Count, mean and p50/p95/p99 of `latencies` (all zero when empty). Sorts
/// `latencies` in place, once, after taking the mean in arrival order.
LatencySummary summarize_latencies(std::vector<double>& latencies);

/// Per-run autotuning accounting (counter deltas over this run only, plus
/// the decisions the run itself triggered -- cache hits from earlier runs
/// against the same pool count as hits, not decisions).
struct TuningSummary {
  bool enabled = false;
  std::uint64_t cache_hits = 0;
  std::uint64_t predicted = 0;
  std::uint64_t explored = 0;
  std::uint64_t explore_runs = 0;
  double explore_seconds = 0.0;
  std::vector<tune::DecisionRecord> decisions;  ///< made during this run
};

struct ServeResult {
  std::vector<RequestRecord> records;  ///< indexed by request id
  std::vector<JobRecord> jobs;
  double makespan_seconds = 0.0;  ///< virtual time of the last event
  double throughput_rps = 0.0;    ///< completed / makespan
  int completed = 0;
  int rejected = 0;
  /// Requests shed at pop time because their SLO deadline passed while they
  /// sat in the queue -- dispatching them would burn chip time on a
  /// guaranteed miss. Counted separately from admission rejections.
  int deadline_expired = 0;
  int slo_violations = 0;  ///< completed requests that missed their class SLO
  int max_queue_depth = 0;
  /// Wall (virtual) seconds each MC had at least one job's partition on it;
  /// sharing jobs both count, so utilization may exceed 1 under overlap.
  std::array<double, chip::kMemoryControllerCount> mc_busy_seconds{};
  LatencySummary latency_total;
  LatencySummary latency_interactive;
  LatencySummary latency_batch;
  TuningSummary tuning;  ///< zero/disabled unless ServeConfig::autotune
  // Result-integrity accounting (ServeConfig::verify / ServeConfig::sdc).
  int sdc_corrupted = 0;      ///< jobs whose product took an injected flip
  int sdc_retries = 0;        ///< failed verifications retried on this chip
  int sdc_corrected = 0;      ///< retries whose recompute verified clean
  int sdc_unrecoverable = 0;  ///< retries corrupted again (delivered flagged)
  int sdc_escapes = 0;        ///< significant corruptions delivered undetected
};

class Simulator {
 public:
  Simulator(ServeConfig config, MatrixPool& pool);

  const ServeConfig& config() const { return config_; }

  /// Simulate serving `requests` (must be sorted by arrival time, dense ids
  /// 0..n-1 as generate_workload produces). `recorder`, when set, receives
  /// one virtual-time span per job plus queue/dispatch events; the metrics
  /// below are populated either way. Deterministic: equal inputs give
  /// bit-equal results.
  ServeResult run(const std::vector<Request>& requests, obs::Recorder* recorder = nullptr);

  /// Metrics of the most recent run() (serve.* counters, latency
  /// histograms). Valid until the next run() call.
  const obs::Registry& metrics() const { return *metrics_; }

  /// The dispatch-time autotuner (nullptr unless config.autotune). Its
  /// TuningCache is the pool's shared one, so decisions persist across
  /// Simulator instances on the same pool.
  const tune::Autotuner* tuner() const { return tuner_.get(); }

 private:
  ServeConfig config_;
  MatrixPool& pool_;
  ServiceModel model_;
  std::unique_ptr<tune::Autotuner> tuner_;
  std::unique_ptr<obs::Registry> metrics_ = std::make_unique<obs::Registry>();
};

}  // namespace scc::serve
