// The multi-chip cluster serving simulator: a deterministic discrete-event
// balancer over N simulated SCCs that keeps serving through injected
// failures.
//
// Each chip is a full serve-layer instance (admission queue, partitioner,
// fluid contention tracker) priced by one shared ServiceModel. The event
// loop (cluster/serving_loop.hpp) is the only serving loop in the tree:
// serve::Simulator runs it as a one-chip, fault-free cluster. On top of the
// per-chip pipeline sit the robustness mechanisms the fault plan exercises:
//
//   * whole-chip crashes -- the chip freezes silently; a heartbeat failure
//     detector declares it suspect then dead (cluster/health.hpp), at which
//     point its queued and in-flight requests are failed over or
//     dead-lettered;
//   * mid-job tile kills -- the running job is restated to the degraded
//     timing of sim::Engine's dead-rank protocol (survivors redo the
//     product, the repartition cost is charged to the job) and the core is
//     retired from the chip's pool;
//   * chip re-admission -- a crashed chip powers back up after its seeded
//     downtime (fault_plan restart policy), rejoins through the rejoining
//     probation state, and serves its first jobs per matrix at cold-cache
//     timing (ServiceModel::cold_timing) until the working set is
//     re-established; tile kills stay retired across restarts (hardware);
//   * priced data movement -- matrix placement is explicit per-chip state:
//     a chip dispatching a matrix it does not hold first pays the re-ship
//     of the CSR blocks over the inter-chip link (a configurable fraction
//     of one MC's bandwidth), and the router weighs that cost against
//     queue depth when choosing between warm and cold chips;
//   * correlated fault domains -- power-domain outages and rack-level
//     brownouts hit every chip of a domain at once, and flapping chips
//     cycle through crash/rejoin repeatedly (fault_plan expansion);
//   * memory-controller brownouts -- a bandwidth derate window on the
//     chip's contention tracker;
//   * transient job failures -- a seeded per-(chip, job) Bernoulli; failed
//     jobs feed the chip's circuit breaker and their requests retry with
//     exponential backoff + deterministic jitter, bounded by the request's
//     own SLO deadline;
//   * hedged dispatch -- an interactive request still pending after
//     `hedge.delay_seconds` gets a second copy on another chip; first
//     completion wins, the loser is cancelled if still queued;
//   * silent data corruption -- seeded bit flips (fleet-wide rate plus
//     per-chip "bad DRAM" stickiness) classified by src/integrity's ABFT
//     check: detect mode reroutes the batch to another replica, correct
//     mode recomputes once on the same chip, an unrecoverable recompute
//     dead-letters with reason "sdc_unrecoverable", and a chip crossing
//     `quarantine_threshold` detections is withdrawn permanently
//     (HealthState::kQuarantined -- bad DRAM does not heal on restart). A
//     one-chip cluster has no replica: it recomputes in place whenever
//     verify is on and delivers an unrecoverable product flagged.
//
// Every fault, detector transition, failover, retry, hedge and breaker
// event lands in an ordered log; identical seeds replay it byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/fault_plan.hpp"
#include "cluster/health.hpp"
#include "cluster/router.hpp"
#include "obs/metrics.hpp"
#include "serve/request.hpp"
#include "serve/simulator.hpp"

namespace scc::obs {
class Recorder;
}

namespace scc::cluster {

struct RetryConfig {
  int max_attempts = 3;                ///< total dispatch attempts per request
  double base_backoff_seconds = 0.002; ///< first retry delay
  double backoff_multiplier = 2.0;     ///< exponential growth per attempt
  double jitter_fraction = 0.5;        ///< +[0, fraction) * backoff, seeded
};

struct HedgeConfig {
  bool enabled = true;
  double delay_seconds = 0.02;  ///< pending-time before the second copy
};

/// Explicit matrix placement and the price of moving data between chips.
struct PlacementConfig {
  /// Chips initially holding each matrix (deterministic: matrix id modulo
  /// chip count, then the next replicas-1 chips). <= 0 places every matrix
  /// on every chip: data movement is free, the pre-recovery model.
  int replicas = 1;
  /// Inter-chip link bandwidth as a fraction of one memory controller's
  /// sustainable bandwidth; re-shipping a matrix's CSR blocks to a chip
  /// that does not hold them costs bytes / (mc_bandwidth * fraction).
  double reship_bandwidth_fraction = 0.5;
  /// Jobs per matrix a chip serves at cold-cache timing after the matrix is
  /// (re-)shipped to it -- the warm-up transient of re-admitted chips.
  int warmup_runs = 1;
};

struct ClusterConfig {
  int chip_count = 3;
  /// Per-chip policy/admission/batching/engine. chip.verify is the
  /// cluster's ABFT mode (every chip prices and classifies under it);
  /// chip.sdc must be empty (the constructor checks) -- cluster corruption
  /// comes from the fault plan (FaultPlan::sdc_rate / bad_dram), seeded
  /// per chip.
  serve::ServeConfig chip;
  FaultPlan faults;
  /// Detected corruptions (detected, corrected or unrecoverable) on one
  /// chip before it is quarantined: permanently withdrawn from routing
  /// (HealthState::kQuarantined), queue evacuated to other replicas. 0
  /// disables quarantine. Bad DRAM does not heal on restart, so unlike the
  /// breaker there is no cooldown -- the state is terminal.
  int quarantine_threshold = 3;
  /// Master robustness switch: with failover off, requests stay on their
  /// first chip -- crashes lose them, failures dead-letter them, no
  /// retries, no hedging (the baseline the failover bench compares against).
  bool failover = true;
  RetryConfig retry;
  HedgeConfig hedge;
  DetectorConfig detector;
  BreakerConfig breaker;
  RouterConfig router;
  PlacementConfig placement;
};

enum class Outcome { kPending, kCompleted, kRejected, kDeadLettered };

std::string to_string(Outcome outcome);

/// Final cluster-level outcome of one request.
struct ClusterRequestRecord {
  serve::Request request;
  Outcome outcome = Outcome::kPending;
  int chip = -1;       ///< chip that completed it (or last one tried)
  int attempts = 0;    ///< dispatch attempts (1 = served first try)
  int failovers = 0;   ///< attempts that landed on a different chip
  bool hedged = false;
  bool hedge_won = false;  ///< the hedge copy finished first
  bool reshipped = false;  ///< a serving chip had to re-ship the matrix first
  bool cold = false;       ///< served in a chip's post-ship cold-cache window
  std::string dead_letter_reason;  ///< terminal reason when dead-lettered
  double dispatch_seconds = 0.0;
  double completion_seconds = 0.0;

  double latency_seconds() const { return completion_seconds - request.arrival_seconds; }
  bool slo_met() const {
    return outcome == Outcome::kCompleted && latency_seconds() <= request.slo_seconds;
  }
};

struct ChipSummary {
  int chip = 0;
  HealthState state = HealthState::kHealthy;
  bool crashed = false;  ///< dead at end of run (restarted chips are alive)
  int jobs_completed = 0;
  int jobs_failed = 0;
  int retired_cores = 0;
  int requests_completed = 0;
  int breaker_trips = 0;
  int restarts = 0;   ///< times this chip powered back up
  int reships = 0;    ///< matrices shipped to this chip during the run
  int cold_runs = 0;  ///< jobs served at cold-cache timing
  double reship_bytes = 0.0;
  std::vector<int> placement;  ///< matrix ids resident at end of run, sorted
  // Per-chip SDC ledger (the quarantine policy's evidence).
  int sdc_detected = 0;       ///< detected corruption events on this chip
  int sdc_corrected = 0;      ///< recomputes that verified clean
  int sdc_unrecoverable = 0;  ///< recomputes corrupted again (dead-lettered)
  int sdc_escapes = 0;        ///< significant corruptions delivered undetected
  bool quarantined = false;   ///< crossed the quarantine threshold (terminal)
};

/// One entry of the ordered fault/recovery log.
struct LogEvent {
  double seconds = 0.0;
  std::string kind;  ///< chip_crash, chip_suspect, chip_dead, tile_kill, ...
  int chip = -1;
  std::string detail;
};

/// Canonical one-line rendering (fixed 9-decimal time) -- the replay tests
/// compare these strings byte for byte.
std::string describe(const LogEvent& event);

struct ClusterResult {
  std::vector<ClusterRequestRecord> records;  ///< indexed by request id
  std::vector<ChipSummary> chips;
  std::vector<LogEvent> log;
  double makespan_seconds = 0.0;
  double throughput_rps = 0.0;
  double availability = 0.0;  ///< completed / injected
  int completed = 0;
  int rejected = 0;        ///< no chip admitted it on arrival
  int dead_lettered = 0;   ///< terminal failures (includes deadline expiry)
  int deadline_expired = 0;
  int retries = 0;
  int failovers = 0;
  int hedges = 0;
  int hedge_wins = 0;
  int chip_crashes = 0;
  int tile_kills = 0;
  int brownouts = 0;
  int breaker_trips = 0;
  int restarts = 0;        ///< chip power-ups (crash -> rejoining)
  int rejoins = 0;         ///< completed probations (rejoining -> healthy)
  int reships = 0;         ///< matrix movements between chips
  int cold_runs = 0;       ///< jobs priced at cold-cache timing
  int domain_outages = 0;  ///< correlated power-domain events fired
  // Cluster-wide SDC accounting (sums of the per-chip ledgers plus the
  // silent corruptions that never touched a counter-bearing chip event).
  int sdc_corrupted = 0;      ///< completed-or-classified jobs that took a flip
  int sdc_detected = 0;       ///< detected corruption events
  int sdc_corrected = 0;      ///< same-chip recomputes that verified clean
  int sdc_unrecoverable = 0;  ///< recomputes corrupted again (dead-lettered)
  int sdc_escapes = 0;        ///< significant corruptions delivered undetected
  int quarantines = 0;        ///< chips quarantined during the run
  double reship_bytes = 0.0;
  serve::LatencySummary latency_total;
  serve::LatencySummary latency_interactive;
  serve::LatencySummary latency_batch;
  /// Cluster-wide autotuning deltas for this run (config.chip.autotune);
  /// all chips share one tuner, so a matrix explored for chip 0 is a cache
  /// hit for every other chip.
  serve::TuningSummary tuning;
};

class ClusterSimulator {
 public:
  ClusterSimulator(ClusterConfig config, serve::MatrixPool& pool);

  const ClusterConfig& config() const { return config_; }

  /// Simulate serving `requests` (sorted by arrival, dense ids 0..n-1).
  /// Deterministic: equal inputs (config, fault seed, workload) give
  /// bit-equal results, including the fault/failover log.
  ClusterResult run(const std::vector<serve::Request>& requests,
                    obs::Recorder* recorder = nullptr);

  /// Metrics of the most recent run() (cluster.* counters and histograms).
  const obs::Registry& metrics() const { return *metrics_; }

  /// The cluster-wide autotuner (nullptr unless config.chip.autotune); its
  /// TuningCache is the pool's shared one.
  const tune::Autotuner* tuner() const { return tuner_.get(); }

 private:
  ClusterConfig config_;
  serve::MatrixPool& pool_;
  serve::ServiceModel model_;
  FaultOracle oracle_;
  std::unique_ptr<tune::Autotuner> tuner_;
  std::unique_ptr<obs::Registry> metrics_ = std::make_unique<obs::Registry>();
};

}  // namespace scc::cluster
