// The one serving event loop, shared by both serving front ends.
//
// ClusterSimulator runs it over N chips under a fault plan; serve::Simulator
// runs it as a one-chip, fault-free cluster and maps the outcome onto its
// own records through a LoopObserver. Per chip the pipeline is expire ->
// allocate -> batch -> price -> classify SDC -> track -> complete, and the
// fault machinery (timers, retries, hedges, breaker, quarantine, placement)
// is layered on top. A fault-free chip draws no timers, so one chip replays
// exactly the single-tenant serving event sequence.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/fault_plan.hpp"
#include "cluster/health.hpp"
#include "cluster/simulator.hpp"
#include "integrity/integrity.hpp"
#include "obs/metrics.hpp"
#include "serve/contention.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/service_model.hpp"
#include "serve/simulator.hpp"

namespace scc::obs {
class Recorder;
}

namespace scc::cluster {

/// What serve::Simulator reads from a run besides its ClusterResult, in
/// event order: rejections, deadline expiries, each job at dispatch and at
/// delivery. The cluster front end attaches none.
class LoopObserver {
 public:
  virtual void rejected(const serve::Request& request) = 0;
  virtual void expired(const serve::Request& request) = 0;
  /// `job` started on its cores; `request_ids` is its batch, head first.
  virtual void dispatched(const serve::JobRecord& job, const std::vector<int>& request_ids) = 0;
  /// `job` delivered its products at job.completion_seconds.
  virtual void delivered(const serve::JobRecord& job, const std::vector<int>& request_ids) = 0;

 protected:
  ~LoopObserver() = default;
};

/// One job in flight on a chip.
struct ActiveJob {
  serve::JobRecord record;  ///< id, cores, dispatch time, pricing, SDC verdict
  std::vector<int> request_ids;
  bool will_fail = false;  ///< oracle-decided transient failure
  bool cold = false;       ///< priced at cold-cache timing
  serve::JobPlan plan;     ///< tuned storage plan (CSR when untuned)
  bool sdc_significant = false;  ///< ground truth: final product wrong
};

/// Per-chip serving state: one serve-layer instance (queue, partitioner,
/// contention tracker, jobs in flight) plus the health, placement and SDC
/// ledger the cluster keeps for it.
struct ChipRuntime {
  ChipRuntime(int chip_id, const ClusterConfig& config, integrity::SdcPlan sdc_plan);

  /// Power back up as a fresh incarnation: empty queue and tracker, a new
  /// breaker, no resident matrices; retired tiles stay retired (hardware).
  void restart(const ClusterConfig& config);

  /// Router-visible state: quarantine, then crash health, then the
  /// breaker's draining, then rejoining probation.
  HealthState view_state() const;

  int id = 0;
  serve::AdmissionQueue queue;
  serve::ChipPartitioner partitioner;
  serve::ContentionTracker tracker;
  CircuitBreaker breaker;
  bool crashed = false;
  HealthState health = HealthState::kHealthy;
  std::map<int, ActiveJob> active;
  std::set<int> placed;          ///< matrix ids resident on this chip
  std::map<int, int> cold_left;  ///< per matrix: cold-cache jobs still owed
  std::set<int> retired_cores;   ///< dead tiles (permanent across restarts)
  int incarnation = 0;           ///< bumped on every restart (stale-timer guard)
  int outstanding = 0;           ///< queued + in-flight request copies
  std::uint64_t job_ordinal = 0; ///< chip-local dispatch count: fault and SDC site
  /// This chip's seeded corruption model; sites are chip-local job
  /// ordinals, so the schedule is deterministic per (seed, chip, job)
  /// whatever the dispatch interleaving.
  integrity::SdcPlan sdc;
  /// The counters the run reports for this chip, SDC ledger and terminal
  /// quarantine included. breaker_trips holds the trips of breakers retired
  /// by restarts; the live breaker's are added at run end.
  ChipSummary ledger;
};

/// Mirror a run's tuning deltas into `metrics` as the tune.* instruments.
void record_tuning_metrics(const serve::TuningSummary& tuning, obs::Registry& metrics);

/// One run of the serving loop. Construct, call run() once, then read the
/// chips' end state.
class ServingLoop {
 public:
  /// `chip_sdc` holds each chip's corruption model (config.chip_count
  /// entries). The cluster.* and integrity.* instruments land in `metrics`
  /// (none when null). Throws on an invalid per-chip ServeConfig or
  /// placement.
  ServingLoop(const ClusterConfig& config, serve::MatrixPool& pool, serve::ServiceModel& model,
              const FaultOracle& oracle, tune::Autotuner* tuner,
              std::vector<integrity::SdcPlan> chip_sdc, obs::Registry* metrics);

  /// Serve `requests` (sorted by arrival, dense ids 0..n-1) to the last
  /// outcome. The result holds everything but the per-request records,
  /// which cluster_records() or take_records() hand out after the run.
  /// Without an observer the fault log is kept and mirrored to `recorder`
  /// as cluster.* events; with one (serve's adapter) no log is kept. Either
  /// way `recorder` receives the run-cache stats.
  ClusterResult run(const std::vector<serve::Request>& requests, obs::Recorder* recorder,
                    LoopObserver* observer);

  /// Per-request outcomes in the cluster's shape, built on demand.
  std::vector<ClusterRequestRecord> cluster_records() const;
  /// Per-request outcomes in serve's shape (job_id is the completing
  /// job), moved out of the loop.
  std::vector<serve::RequestRecord> take_records() { return std::move(records_); }

  const ChipRuntime& chip(int id) const { return chips_[static_cast<std::size_t>(id)]; }

 private:
  enum class TimerKind {
    kCrash,
    kSuspect,
    kDead,
    kRestart,
    kRejoined,
    kDomainOutage,
    kTileKill,
    kBrownoutStart,
    kBrownoutEnd,
    kRetry,
    kHedge,
  };

  struct Timer {
    double seconds = 0.0;
    TimerKind kind = TimerKind::kCrash;
    int chip = -1;
    /// core (tile kill), mc (brownout), request id (retry/hedge), chip
    /// incarnation (suspect/dead/rejoined; -1 = any), domain (domain outage).
    int aux = -1;
    double value = 0.0;  ///< brownout derate
  };

  /// By time only: a multiset inserts each timer after those equal to it,
  /// so insertion order breaks time ties deterministically.
  struct TimerOrder {
    bool operator()(const Timer& a, const Timer& b) const { return a.seconds < b.seconds; }
  };

  /// Per-request control state and the outcome fields serve's record does
  /// not carry (ClusterRequestRecord documents each).
  struct RequestState {
    Outcome outcome = Outcome::kPending;
    int chip = -1;
    int attempts = 0;
    int failovers = 0;
    int copies = 0;  ///< live copies (queued or in a running job)
    int last_chip = -1;
    int hedge_chip = -1;
    bool hedged = false;
    bool hedge_won = false;
    bool reshipped = false;
    bool cold = false;
    const char* dead_letter_reason = nullptr;
  };

  /// Which attribution a dying copy gets (see drop_copy).
  enum class Attribution { kIfPending, kAlways };

  char& tried(int request_id, int chip) {
    return tried_[static_cast<std::size_t>(request_id) * chips_.size() +
                  static_cast<std::size_t>(chip)];
  }
  void schedule(double seconds, TimerKind kind, int chip, int aux, double value);
  void log(const char* kind, int chip, const std::string& detail);
  int route_for(const serve::Request& request, bool exclude_tried);
  bool offer_to(ChipRuntime& chip, const serve::Request& request);
  void dead_letter(int request_id, const char* reason);
  void consider_recovery(int request_id, const char* reason);
  void drop_copy(ChipRuntime& chip, int request_id, const char* reason,
                 Attribution attribution = Attribution::kIfPending);
  void fail_job(ChipRuntime& chip, const char* kind, const std::string& detail);
  void maybe_quarantine(ChipRuntime& chip);
  void dispatch(ChipRuntime& chip);
  void complete_request(ChipRuntime& chip, int request_id, const serve::JobRecord& job);
  void finish(ChipRuntime& chip, int job_id);
  void evacuate(ChipRuntime& chip);
  void kill_tile(ChipRuntime& chip, int core);
  void fire(const Timer& timer);
  void arrive(const serve::Request& request);
  void advance_to(double seconds);
  void assemble(std::size_t request_count);

  const ClusterConfig& config_;
  serve::MatrixPool& pool_;
  serve::ServiceModel& model_;
  const FaultOracle& oracle_;
  tune::Autotuner* tuner_;
  obs::Registry* metrics_;
  obs::Histogram* latency_ = nullptr;  ///< cluster.latency_seconds, completion order
  /// Mode corrupted products are classified under. A lone chip has no
  /// replica to reroute to, so it recomputes in place whenever verify is on.
  integrity::VerifyMode sdc_mode_;
  bool hedging_ = false;
  std::vector<ChipRuntime> chips_;

  ClusterResult result_;
  std::vector<serve::RequestRecord> records_;  ///< by request id
  std::vector<RequestState> states_;           ///< by request id
  /// Chips each request was offered to, request-major (see tried()).
  std::vector<char> tried_;
  std::vector<ChipView> views_;  ///< router snapshot, reused across calls
  std::vector<int> excluded_;    ///< router exclusion list, reused
  std::multiset<Timer, TimerOrder> timers_;
  double now_ = 0.0;
  int next_job_id_ = 0;
  int pending_retries_ = 0;  ///< scheduled kRetry timers not yet fired
  // Running mean of dispatched job service times: the yardstick that
  // converts a matrix's re-ship time into "outstanding requests" for the
  // router's warm-vs-cold weighing. Virtual-time state, so deterministic.
  double service_seconds_sum_ = 0.0;
  long jobs_dispatched_ = 0;
  obs::Recorder* recorder_ = nullptr;
  LoopObserver* observer_ = nullptr;
  bool keep_log_ = true;
};

}  // namespace scc::cluster
