#include "cluster/simulator.hpp"

#include <algorithm>
#include <cstddef>
#include <iomanip>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "scc/mapping.hpp"
#include "serve/contention.hpp"
#include "serve/queue.hpp"
#include "serve/scheduler.hpp"

namespace scc::cluster {

namespace {

/// Completions within a nanosecond count as done (mirrors the contention
/// tracker's own epsilon): a tile kill landing exactly on a completion must
/// not restate a finished job.
constexpr double kEpsilonSeconds = 1e-12;

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
  long seq = 0;  ///< insertion order breaks time ties deterministically
  TimerKind kind = TimerKind::kCrash;
  int chip = -1;
  /// core (tile kill), mc (brownout), request id (retry/hedge), chip
  /// incarnation (suspect/dead/rejoined; -1 = any), domain (domain outage).
  int aux = -1;
  double value = 0.0;  ///< brownout derate
};

struct TimerOrder {
  bool operator()(const Timer& a, const Timer& b) const {
    if (a.seconds != b.seconds) return a.seconds < b.seconds;
    return a.seq < b.seq;
  }
};

}  // namespace

std::string to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kPending:
      return "pending";
    case Outcome::kCompleted:
      return "completed";
    case Outcome::kRejected:
      return "rejected";
    case Outcome::kDeadLettered:
      return "dead-lettered";
  }
  return "unknown";
}

std::string describe(const LogEvent& event) {
  std::ostringstream oss;
  oss << "[t=" << std::fixed << std::setprecision(9) << event.seconds << "] chip "
      << event.chip << " " << event.kind;
  if (!event.detail.empty()) oss << ": " << event.detail;
  return oss.str();
}

ClusterSimulator::ClusterSimulator(ClusterConfig config, serve::MatrixPool& pool)
    : config_(std::move(config)),
      pool_(pool),
      model_(config_.chip.engine, pool, config_.chip.verify),
      oracle_(config_.faults) {
  SCC_REQUIRE(config_.chip_count >= 1, "chip_count must be >= 1");
  SCC_REQUIRE(config_.quarantine_threshold >= 0, "quarantine_threshold must be >= 0");
  SCC_REQUIRE(config_.retry.max_attempts >= 1, "retry.max_attempts must be >= 1");
  SCC_REQUIRE(config_.retry.base_backoff_seconds > 0.0 &&
                  config_.retry.backoff_multiplier >= 1.0 &&
                  config_.retry.jitter_fraction >= 0.0,
              "retry backoff parameters out of range");
  SCC_REQUIRE(config_.hedge.delay_seconds > 0.0, "hedge.delay_seconds must be positive");
  if (config_.chip.autotune) {
    tuner_ = std::make_unique<tune::Autotuner>(config_.chip.engine, config_.chip.tuning,
                                               pool.tuning_cache(config_.chip.tuning.cache),
                                               pool.run_cache());
  }
}

ClusterResult ClusterSimulator::run(const std::vector<serve::Request>& requests,
                                    obs::Recorder* recorder) {
  metrics_ = std::make_unique<obs::Registry>();
  SCC_REQUIRE(config_.placement.reship_bandwidth_fraction > 0.0,
              "placement.reship_bandwidth_fraction must be positive");
  SCC_REQUIRE(config_.placement.warmup_runs >= 0, "placement.warmup_runs must be >= 0");
  obs::Counter& requests_total = metrics_->counter("cluster.requests_total");
  obs::Counter& completed_total = metrics_->counter("cluster.completed_total");
  obs::Counter& rejected_total = metrics_->counter("cluster.rejected_total");
  obs::Counter& dead_lettered_total = metrics_->counter("cluster.dead_lettered_total");
  obs::Counter& deadline_expired_total = metrics_->counter("cluster.deadline_expired");
  obs::Counter& retries_total = metrics_->counter("cluster.retries_total");
  obs::Counter& failovers_total = metrics_->counter("cluster.failovers_total");
  obs::Counter& hedges_total = metrics_->counter("cluster.hedges_total");
  obs::Counter& hedge_wins_total = metrics_->counter("cluster.hedge_wins_total");
  obs::Counter& crashes_total = metrics_->counter("cluster.chip_crashes_total");
  obs::Counter& tile_kills_total = metrics_->counter("cluster.tile_kills_total");
  obs::Counter& breaker_trips_total = metrics_->counter("cluster.breaker_trips_total");
  obs::Counter& restarts_total = metrics_->counter("cluster.rejoin_restarts_total");
  obs::Counter& rejoins_total = metrics_->counter("cluster.rejoin_completed_total");
  obs::Counter& cold_runs_total = metrics_->counter("cluster.rejoin_cold_runs_total");
  obs::Counter& reships_total = metrics_->counter("cluster.reship_jobs_total");
  obs::Counter& reship_bytes_total = metrics_->counter("cluster.reship_bytes_total");
  obs::Counter& domain_outages_total = metrics_->counter("cluster.domain_outages_total");
  obs::Counter& sdc_corrupted_total = metrics_->counter("integrity.sdc_corrupted_total");
  obs::Counter& sdc_detected_total = metrics_->counter("integrity.sdc_detected_total");
  obs::Counter& sdc_corrected_total = metrics_->counter("integrity.sdc_corrected_total");
  obs::Counter& sdc_unrecoverable_total =
      metrics_->counter("integrity.sdc_unrecoverable_total");
  obs::Counter& sdc_escapes_total = metrics_->counter("integrity.sdc_escapes_total");
  obs::Counter& quarantines_total = metrics_->counter("cluster.quarantines_total");
  obs::Histogram& latency_hist =
      metrics_->histogram("cluster.latency_seconds", obs::Histogram::seconds_buckets());

  ClusterResult result;
  result.records.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    SCC_REQUIRE(requests[i].id == static_cast<int>(i), "request ids must be dense 0..n-1");
    SCC_REQUIRE(i == 0 || requests[i - 1].arrival_seconds <= requests[i].arrival_seconds,
                "requests must be sorted by arrival time");
    result.records[i].request = requests[i];
  }

  // Snapshot tuner counters so the result carries this run's deltas only.
  const tune::Autotuner::Counters tuning_before =
      tuner_ != nullptr ? tuner_->counters() : tune::Autotuner::Counters{};
  const std::size_t tuning_log_before = tuner_ != nullptr ? tuner_->log().size() : 0;

  struct ActiveJob {
    int matrix_id = 0;
    std::vector<int> request_ids;
    std::vector<int> cores;
    double dispatch_seconds = 0.0;
    bool will_fail = false;  ///< oracle-decided transient failure
    bool cold = false;       ///< priced at cold-cache timing
    serve::JobPlan plan;     ///< tuned storage plan (CSR when untuned)
    /// ABFT classification, decided at dispatch from the chip's seeded SDC
    /// stream (kClean when no flip was injected). Acted on at completion.
    integrity::Outcome sdc_outcome = integrity::Outcome::kClean;
    bool sdc_significant = false;  ///< ground truth: final product wrong
  };

  struct Chip {
    int id = 0;
    serve::AdmissionQueue queue;
    serve::ChipPartitioner partitioner;
    serve::ContentionTracker tracker;
    CircuitBreaker breaker;
    bool crashed = false;
    HealthState health = HealthState::kHealthy;
    std::map<int, ActiveJob> active;
    std::set<int> placed;         ///< matrix ids resident on this chip
    std::map<int, int> cold_left; ///< per matrix: cold-cache jobs still owed
    std::set<int> retired_cores;  ///< dead tiles (permanent across restarts)
    int incarnation = 0;          ///< bumped on every restart (stale-timer guard)
    int outstanding = 0;          ///< queued + in-flight request copies
    std::uint64_t job_ordinal = 0;
    int jobs_completed = 0;
    int jobs_failed = 0;
    int requests_completed = 0;
    int restarts = 0;
    int reships = 0;
    int cold_runs = 0;
    int breaker_trips_prior = 0;  ///< trips of breakers retired by restarts
    double reship_bytes = 0.0;
    /// Seeded corruption model of this chip's DRAM (fleet rate + bad_dram);
    /// sites are chip-local job ordinals, so the schedule is deterministic
    /// per (fault seed, chip, job) whatever the dispatch interleaving.
    integrity::SdcPlan sdc;
    int sdc_detected = 0;
    int sdc_corrected = 0;
    int sdc_unrecoverable = 0;
    int sdc_escapes = 0;
    /// Terminal: survives restarts (bad DRAM is hardware, like tile kills).
    bool quarantined = false;

    Chip(int chip_id, const serve::ServeConfig& config)
        : id(chip_id),
          queue(config.admission),
          partitioner(config.policy, config.partition),
          breaker(BreakerConfig{}) {}
  };

  std::vector<Chip> chips;
  chips.reserve(static_cast<std::size_t>(config_.chip_count));
  for (int c = 0; c < config_.chip_count; ++c) {
    chips.emplace_back(c, config_.chip);
    chips.back().breaker = CircuitBreaker(config_.breaker);
    chips.back().sdc = oracle_.chip_sdc(c);
  }

  // Initial placement: each matrix of the workload lands on `replicas`
  // chips starting at (matrix id mod chip count). Initially resident
  // matrices are warm (the steady-state assumption); anything else must be
  // re-shipped -- and arrives cold -- before a chip may serve it. With
  // replicas <= 0 (or a single chip) every chip holds everything, which is
  // the free-movement model and keeps the single-chip cluster bit-identical
  // to the serve simulator.
  const int replicas = config_.placement.replicas <= 0
                           ? config_.chip_count
                           : std::min(config_.placement.replicas, config_.chip_count);
  for (const serve::Request& request : requests) {
    const int home = request.matrix_id % config_.chip_count;
    for (int r = 0; r < replicas; ++r) {
      chips[static_cast<std::size_t>((home + r) % config_.chip_count)].placed.insert(
          request.matrix_id);
    }
  }

  struct RequestState {
    int copies = 0;          ///< live copies (queued or in a running job)
    std::set<int> tried;     ///< chips this request was ever offered to
    int last_chip = -1;
    int hedge_chip = -1;
  };
  std::vector<RequestState> states(requests.size());

  std::multiset<Timer, TimerOrder> timers;
  long next_seq = 0;
  const auto schedule = [&](double seconds, TimerKind kind, int chip, int aux, double value) {
    timers.insert(Timer{seconds, next_seq++, kind, chip, aux, value});
  };

  // Build the timer wheel from the fault plan. Domain-outage markers are
  // inserted before the crash list so the correlated event logs ahead of
  // the per-chip crashes it expands to (same instant, lower seq).
  for (const DomainOutage& outage : config_.faults.domain_outages) {
    if (domain_chips(config_.faults, outage.domain, config_.chip_count).empty()) continue;
    schedule(outage.seconds, TimerKind::kDomainOutage, -1, outage.domain, 0.0);
  }
  for (const ChipCrash& crash : oracle_.crashes(config_.chip_count)) {
    schedule(crash.seconds, TimerKind::kCrash, crash.chip, -1, 0.0);
  }
  for (const ChipRestart& restart : oracle_.restarts(config_.chip_count)) {
    schedule(restart.seconds, TimerKind::kRestart, restart.chip, -1, 0.0);
  }
  for (const TileKill& kill : config_.faults.tile_kills) {
    if (kill.chip < 0 || kill.chip >= config_.chip_count) continue;
    SCC_REQUIRE(kill.core >= 0 && kill.core < chip::kCoreCount,
                "tile kill core out of range");
    schedule(kill.seconds, TimerKind::kTileKill, kill.chip, kill.core, 0.0);
  }
  for (const Brownout& brownout : oracle_.brownout_windows(config_.chip_count)) {
    SCC_REQUIRE(brownout.mc >= 0 && brownout.mc < chip::kMemoryControllerCount,
                "brownout mc out of range");
    schedule(brownout.start_seconds, TimerKind::kBrownoutStart, brownout.chip, brownout.mc,
             brownout.derate);
    schedule(brownout.start_seconds + brownout.duration_seconds, TimerKind::kBrownoutEnd,
             brownout.chip, brownout.mc, 1.0);
  }

  std::size_t next_arrival = 0;
  double now = 0.0;
  int next_job_id = 0;
  int pending_retries = 0;  ///< scheduled kRetry timers not yet fired
  // Running mean of dispatched job service times: the yardstick that
  // converts a matrix's re-ship time into "outstanding requests" for the
  // router's warm-vs-cold weighing. Virtual-time state, so deterministic.
  double service_seconds_sum = 0.0;
  long jobs_dispatched = 0;
  constexpr double kInfinity = std::numeric_limits<double>::infinity();

  const auto log_event = [&](double seconds, const std::string& kind, int chip,
                             const std::string& detail) {
    result.log.push_back(LogEvent{seconds, kind, chip, detail});
    if (recorder != nullptr) {
      recorder->event("cluster." + kind,
                      {{"chip", std::to_string(chip)}, {"detail", detail}});
    }
  };

  const bool hedging_enabled =
      config_.failover && config_.hedge.enabled && config_.chip_count > 1;

  /// Router snapshot. `matrix_id` feeds the placement column; the breaker
  /// is consulted FIRST for every non-crashed chip -- allows() is what
  /// half-opens an expired open breaker, so the health column below sees
  /// the post-transition state and a cooled-down chip gets its probe
  /// instead of draining until run end.
  const auto route_for = [&](int matrix_id, const std::set<int>& excluded) {
    // Price the movement of this matrix in queued-request units once the
    // run has a service-time yardstick; before that the router falls back
    // to its flat affinity slack.
    double penalty = -1.0;
    if (jobs_dispatched > 0) {
      const double mean_service = service_seconds_sum / static_cast<double>(jobs_dispatched);
      if (mean_service > 0.0) {
        penalty = model_.reship_seconds(matrix_id, config_.placement.reship_bandwidth_fraction) /
                  mean_service;
      }
    }
    std::vector<ChipView> views;
    views.reserve(chips.size());
    for (Chip& chip : chips) {
      ChipView view;
      view.chip = chip.id;
      const bool allowed =
          !chip.crashed && !chip.quarantined && chip.breaker.allows(now);
      view.health = chip.quarantined ? HealthState::kQuarantined
                    : chip.crashed
                        ? chip.health
                        : (chip.breaker.state() == CircuitBreaker::State::kOpen
                               ? HealthState::kDraining
                               : (chip.health == HealthState::kRejoining
                                      ? HealthState::kRejoining
                                      : HealthState::kHealthy));
      view.dispatchable =
          allowed && chip.health != HealthState::kDead && !chip.quarantined;
      view.outstanding = chip.outstanding;
      view.has_matrix = chip.placed.contains(matrix_id);
      view.reship_penalty = penalty;
      views.push_back(view);
    }
    const std::vector<int> excluded_list(excluded.begin(), excluded.end());
    return route(views, excluded_list, config_.router);
  };

  const auto offer_to = [&](Chip& chip, const serve::Request& request) {
    if (!chip.queue.offer(request)) return false;
    ++chip.outstanding;
    ++states[static_cast<std::size_t>(request.id)].copies;
    states[static_cast<std::size_t>(request.id)].tried.insert(chip.id);
    states[static_cast<std::size_t>(request.id)].last_chip = chip.id;
    return true;
  };

  const auto dead_letter = [&](int request_id, const std::string& reason) {
    ClusterRequestRecord& record = result.records[static_cast<std::size_t>(request_id)];
    record.outcome = Outcome::kDeadLettered;
    record.dead_letter_reason = reason;
    ++result.dead_lettered;
    dead_lettered_total.add();
    if (reason == "deadline_expired") {
      ++result.deadline_expired;
      deadline_expired_total.add();
    }
    log_event(now, "dead_letter", record.chip,
              "request " + std::to_string(request_id) + " " + reason);
  };

  /// A request copy just died (job failure, chip crash, expiry). When it was
  /// the last live copy, decide: retry with backoff, or dead-letter.
  const auto consider_recovery = [&](int request_id, const std::string& reason) {
    ClusterRequestRecord& record = result.records[static_cast<std::size_t>(request_id)];
    RequestState& state = states[static_cast<std::size_t>(request_id)];
    if (record.outcome != Outcome::kPending) return;
    if (state.copies > 0) return;  // a hedge twin is still in flight
    if (!config_.failover) {
      dead_letter(request_id, reason);
      return;
    }
    if (record.attempts >= config_.retry.max_attempts) {
      dead_letter(request_id, "retries_exhausted");
      return;
    }
    const int attempt = record.attempts;  // 1-based: attempts made so far
    double backoff = config_.retry.base_backoff_seconds;
    for (int i = 1; i < attempt; ++i) backoff *= config_.retry.backoff_multiplier;
    backoff *= 1.0 + config_.retry.jitter_fraction * oracle_.jitter(request_id, attempt);
    // Deadline propagation: a retry that cannot start before the SLO
    // deadline is pointless -- dead-letter now instead of wasting chip time.
    if (now + backoff > record.request.deadline_seconds()) {
      dead_letter(request_id, "deadline_exceeded");
      return;
    }
    schedule(now + backoff, TimerKind::kRetry, -1, request_id, 0.0);
    ++pending_retries;
    log_event(now, "retry", record.chip,
              "request " + std::to_string(request_id) + " attempt " +
                  std::to_string(attempt + 1) + " backoff " + std::to_string(backoff));
  };

  /// SDC quarantine: once a chip accumulates `quarantine_threshold` detected
  /// corruptions it is withdrawn from routing for good and its queue is
  /// evacuated to other replicas. In-flight jobs run to completion (their
  /// outcomes are already decided); the chip just takes nothing new. The
  /// state is terminal -- unlike the breaker there is no cooldown and a
  /// restart does not clear it, because bad DRAM is hardware.
  const auto maybe_quarantine = [&](Chip& chip) {
    if (config_.quarantine_threshold <= 0 || chip.quarantined) return;
    if (chip.sdc_detected < config_.quarantine_threshold) return;
    chip.quarantined = true;
    ++result.quarantines;
    quarantines_total.add();
    log_event(now, "chip_quarantine", chip.id,
              std::to_string(chip.sdc_detected) + " detected corruptions, evacuating " +
                  std::to_string(chip.queue.depth()) + " queued requests");
    while (!chip.queue.empty()) {
      const serve::Request request = chip.queue.pop();
      --chip.outstanding;
      --states[static_cast<std::size_t>(request.id)].copies;
      ClusterRequestRecord& record = result.records[static_cast<std::size_t>(request.id)];
      if (record.outcome == Outcome::kPending) record.chip = chip.id;
      consider_recovery(request.id, "chip_quarantined");
    }
  };

  /// Per-chip dispatch, mirroring serve::Simulator::dispatch exactly on the
  /// healthy path (expire -> allocate -> batch -> price -> track).
  const auto dispatch_chip = [&](Chip& chip) {
    if (chip.crashed) return;
    for (const serve::Request& expired : chip.queue.take_expired(now)) {
      --chip.outstanding;
      RequestState& state = states[static_cast<std::size_t>(expired.id)];
      --state.copies;
      ClusterRequestRecord& record = result.records[static_cast<std::size_t>(expired.id)];
      if (record.outcome == Outcome::kPending && state.copies == 0) {
        record.chip = chip.id;
        dead_letter(expired.id, "deadline_expired");
      }
    }
    while (!chip.queue.empty()) {
      const serve::Request& head = chip.queue.front();
      const testbed::SuiteEntry& entry = pool_.entry(head.matrix_id);
      const serve::JobShape shape{entry.matrix.rows(), entry.matrix.nnz(),
                                  entry.working_set};
      serve::JobPlan plan;
      int preferred_cores = 0;
      if (tuner_ != nullptr) {
        const tune::TuningDecision decision = tuner_->decide(entry.matrix, head.matrix_id);
        plan.format = decision.choice.format;
        plan.reorder = decision.choice.reorder;
        preferred_cores = decision.choice.ue_count;
      }
      std::vector<int> cores = chip.partitioner.try_allocate(shape, preferred_cores);
      if (cores.empty()) {
        if (!chip.tracker.empty()) return;  // a completion will free cores
        // Nothing is running and the job still does not fit: tile kills
        // shrank the chip below this job's footprint. It can never run
        // here; fail the copy over (or dead-letter it) instead of
        // deadlocking the queue.
        const serve::Request stuck = chip.queue.pop();
        --chip.outstanding;
        --states[static_cast<std::size_t>(stuck.id)].copies;
        result.records[static_cast<std::size_t>(stuck.id)].chip = chip.id;
        consider_recovery(stuck.id, "no_cores");
        continue;
      }

      std::vector<serve::Request> batch;
      batch.push_back(chip.queue.pop());
      if (config_.chip.batching) {
        for (serve::Request& extra : chip.queue.take_matching(
                 batch.front().matrix_id, config_.chip.batch_max - 1)) {
          batch.push_back(std::move(extra));
        }
      }

      const int matrix_id = batch.front().matrix_id;

      // Data movement: a chip may not run a matrix it does not hold until
      // the CSR blocks are re-shipped over the inter-chip link. The ship is
      // charged to this job as pure-bandwidth work, the matrix becomes
      // resident, and the chip owes `warmup_runs` cold-cache jobs on it
      // (the freshly shipped working set has never touched the caches).
      bool reshipped = false;
      double reship_seconds = 0.0;
      if (!chip.placed.contains(matrix_id)) {
        reshipped = true;
        reship_seconds =
            model_.reship_seconds(matrix_id, config_.placement.reship_bandwidth_fraction);
        const double bytes = model_.reship_bytes(matrix_id);
        chip.placed.insert(matrix_id);
        chip.cold_left[matrix_id] = config_.placement.warmup_runs;
        ++chip.reships;
        ++result.reships;
        chip.reship_bytes += bytes;
        result.reship_bytes += bytes;
        reships_total.add();
        reship_bytes_total.add(static_cast<std::uint64_t>(bytes));
        log_event(now, "reship", chip.id,
                  "matrix " + std::to_string(matrix_id) + " bytes " +
                      std::to_string(static_cast<long long>(bytes)));
      }

      // Warm-up transient: jobs inside the post-ship cold window are priced
      // by the cold-cache twin engine instead of the steady-state figure.
      bool cold = false;
      if (const auto cold_it = chip.cold_left.find(matrix_id);
          cold_it != chip.cold_left.end() && cold_it->second > 0) {
        cold = true;
        --cold_it->second;
        ++chip.cold_runs;
        ++result.cold_runs;
        cold_runs_total.add();
      }

      const serve::JobTiming& cached = cold ? model_.cold_timing(matrix_id, cores, plan)
                                            : model_.timing(matrix_id, cores, plan);

      // Transient failure and silent-data-corruption draws share the
      // chip-local job ordinal as their site, so both schedules replay
      // deterministically per (seed, chip, job). Corrupted jobs are
      // classified here -- numerically, against the real matrix, but
      // outside the RunCache, so memoized timings stay corruption-free and
      // outcomes are identical across cache modes and thread counts.
      const std::uint64_t sdc_site = chip.job_ordinal;
      const bool will_fail = oracle_.job_fails(chip.id, chip.job_ordinal++);
      integrity::VerifyReport sdc_report;
      if (!will_fail && !chip.sdc.empty()) {
        const integrity::SdcOracle sdc_oracle(chip.sdc);
        if (sdc_oracle.corrupts(sdc_site, 0)) {
          sdc_report = integrity::run_verification(entry.matrix, config_.chip.verify,
                                                   &sdc_oracle, sdc_site);
        }
      }
      // A correct-mode recompute re-runs one product on the same chip.
      const double recompute =
          static_cast<double>(sdc_report.attempts - 1) * cached.product_seconds;

      const auto k = static_cast<double>(batch.size());
      const double service =
          reship_seconds + cached.load_seconds + k * cached.product_seconds + recompute;
      // The re-ship and load phases are pure bandwidth (beta = 1).
      const double beta = (reship_seconds + cached.load_seconds +
                           (k * cached.product_seconds + recompute) * cached.beta) /
                          service;
      service_seconds_sum += service;
      ++jobs_dispatched;

      std::array<bool, chip::kMemoryControllerCount> uses_mc{};
      const auto by_mc = chip::cores_by_mc(cores);
      for (int mc = 0; mc < chip::kMemoryControllerCount; ++mc) {
        uses_mc[static_cast<std::size_t>(mc)] = !by_mc[static_cast<std::size_t>(mc)].empty();
      }

      ActiveJob job;
      job.matrix_id = matrix_id;
      job.cores = cores;
      job.dispatch_seconds = now;
      job.will_fail = will_fail;
      job.cold = cold;
      job.plan = plan;
      job.sdc_outcome = sdc_report.outcome;
      job.sdc_significant = sdc_report.significant;
      chip.breaker.note_dispatch();  // a half-open breaker's probe job
      for (const serve::Request& request : batch) {
        job.request_ids.push_back(request.id);
        ClusterRequestRecord& record = result.records[static_cast<std::size_t>(request.id)];
        record.dispatch_seconds = now;
        record.reshipped = record.reshipped || reshipped;
        record.cold = record.cold || cold;
      }
      const int job_id = next_job_id++;
      chip.tracker.add(job_id, uses_mc, beta, service);
      chip.active.emplace(job_id, std::move(job));
    }
  };

  const auto dispatch_all = [&] {
    for (Chip& chip : chips) dispatch_chip(chip);
  };

  /// Winning completion of request `request_id` on `chip` at `now`.
  const auto complete_request = [&](Chip& chip, int request_id, double dispatch_seconds) {
    ClusterRequestRecord& record = result.records[static_cast<std::size_t>(request_id)];
    RequestState& state = states[static_cast<std::size_t>(request_id)];
    record.outcome = Outcome::kCompleted;
    record.chip = chip.id;
    record.dispatch_seconds = dispatch_seconds;
    record.completion_seconds = now;
    record.hedge_won = record.hedged && chip.id == state.hedge_chip;
    ++chip.requests_completed;
    ++result.completed;
    completed_total.add();
    latency_hist.observe(record.latency_seconds());
    if (record.hedge_won) {
      ++result.hedge_wins;
      hedge_wins_total.add();
      log_event(now, "hedge_win", chip.id, "request " + std::to_string(request_id));
    }
    // Cancel the losing twin while it still sits in a queue (a running
    // loser is wasted work we cannot take back).
    if (state.copies > 0) {
      for (Chip& other : chips) {
        if (other.id == chip.id || other.crashed) continue;
        if (other.queue.erase(request_id)) {
          --other.outstanding;
          --state.copies;
        }
      }
    }
    // Drop any still-pending hedge timer for this request so an idle tail
    // of the run never waits on it.
    for (auto it = timers.begin(); it != timers.end();) {
      if (it->kind == TimerKind::kHedge && it->aux == request_id) {
        it = timers.erase(it);
      } else {
        ++it;
      }
    }
  };

  /// A whole job on `chip` ended at `now`: deliver or fail its requests.
  const auto finish_job = [&](Chip& chip, int job_id) {
    ActiveJob job = std::move(chip.active.at(job_id));
    chip.active.erase(job_id);
    chip.partitioner.release(job.cores);
    if (job.will_fail) {
      ++chip.jobs_failed;
      const int trips_before = chip.breaker.trip_count();
      chip.breaker.on_failure(now);
      log_event(now, "job_failure", chip.id,
                "job " + std::to_string(job_id) + " requests " +
                    std::to_string(job.request_ids.size()));
      if (chip.breaker.trip_count() > trips_before) {
        breaker_trips_total.add();
        log_event(now, "breaker_open", chip.id,
                  "trip " + std::to_string(chip.breaker.trip_count()));
      }
      for (const int request_id : job.request_ids) {
        --chip.outstanding;
        --states[static_cast<std::size_t>(request_id)].copies;
        ClusterRequestRecord& record = result.records[static_cast<std::size_t>(request_id)];
        // A stale copy failing after the request completed elsewhere must
        // not re-attribute the record to this chip.
        if (record.outcome == Outcome::kPending) record.chip = chip.id;
        consider_recovery(request_id, "job_failed");
      }
      return;
    }

    // Result integrity: act on the ABFT classification decided at dispatch.
    // A corrupted result is a failed job from the chip's perspective, so
    // the non-delivering outcomes feed the circuit breaker like any other
    // failure (a half-open probe must always resolve) -- and, separately,
    // every *detected* corruption feeds the chip's quarantine ledger.
    if (job.sdc_outcome != integrity::Outcome::kClean) {
      ++result.sdc_corrupted;
      sdc_corrupted_total.add();
    }
    switch (job.sdc_outcome) {
      case integrity::Outcome::kClean:
        break;
      case integrity::Outcome::kSilent:
        // Undetected: the corrupted product is delivered as if clean.
        if (job.sdc_significant) {
          ++chip.sdc_escapes;
          ++result.sdc_escapes;
          sdc_escapes_total.add();
          log_event(now, "sdc_escape", chip.id,
                    "job " + std::to_string(job_id) + " corrupted result delivered");
        }
        break;
      case integrity::Outcome::kCorrected: {
        // Detect fired, the same-chip recompute verified clean; the extra
        // product was priced into the job at dispatch. Deliver.
        ++chip.sdc_detected;
        ++chip.sdc_corrected;
        ++result.sdc_detected;
        ++result.sdc_corrected;
        sdc_detected_total.add();
        sdc_corrected_total.add();
        log_event(now, "sdc_corrected", chip.id,
                  "job " + std::to_string(job_id) + " recompute verified clean");
        maybe_quarantine(chip);
        break;
      }
      case integrity::Outcome::kDetected: {
        // Detect-only mode: the batch is not delivered; its requests
        // reroute to another replica through the retry path.
        ++chip.sdc_detected;
        ++result.sdc_detected;
        sdc_detected_total.add();
        ++chip.jobs_failed;
        const int trips_before = chip.breaker.trip_count();
        chip.breaker.on_failure(now);
        log_event(now, "sdc_detected", chip.id,
                  "job " + std::to_string(job_id) + " requests " +
                      std::to_string(job.request_ids.size()) + " rerouting");
        if (chip.breaker.trip_count() > trips_before) {
          breaker_trips_total.add();
          log_event(now, "breaker_open", chip.id,
                    "trip " + std::to_string(chip.breaker.trip_count()));
        }
        maybe_quarantine(chip);
        for (const int request_id : job.request_ids) {
          --chip.outstanding;
          --states[static_cast<std::size_t>(request_id)].copies;
          ClusterRequestRecord& record = result.records[static_cast<std::size_t>(request_id)];
          if (record.outcome == Outcome::kPending) record.chip = chip.id;
          consider_recovery(request_id, "sdc_detected");
        }
        return;
      }
      case integrity::Outcome::kUnrecoverable: {
        // Correct mode, and the same-chip recompute was corrupted again
        // (sticky bad DRAM): terminal. The batch dead-letters under the
        // conservation law unless a hedge twin is still in flight.
        ++chip.sdc_detected;
        ++chip.sdc_unrecoverable;
        ++result.sdc_detected;
        ++result.sdc_unrecoverable;
        sdc_detected_total.add();
        sdc_unrecoverable_total.add();
        ++chip.jobs_failed;
        const int trips_before = chip.breaker.trip_count();
        chip.breaker.on_failure(now);
        log_event(now, "sdc_unrecoverable", chip.id,
                  "job " + std::to_string(job_id) + " recompute corrupted again");
        if (chip.breaker.trip_count() > trips_before) {
          breaker_trips_total.add();
          log_event(now, "breaker_open", chip.id,
                    "trip " + std::to_string(chip.breaker.trip_count()));
        }
        maybe_quarantine(chip);
        for (const int request_id : job.request_ids) {
          --chip.outstanding;
          RequestState& state = states[static_cast<std::size_t>(request_id)];
          --state.copies;
          ClusterRequestRecord& record =
              result.records[static_cast<std::size_t>(request_id)];
          if (record.outcome == Outcome::kPending) {
            record.chip = chip.id;
            if (state.copies == 0) dead_letter(request_id, "sdc_unrecoverable");
          }
        }
        return;
      }
    }

    ++chip.jobs_completed;
    const bool was_half_open = chip.breaker.state() == CircuitBreaker::State::kHalfOpen;
    chip.breaker.on_success();
    if (was_half_open) log_event(now, "breaker_close", chip.id, "probe succeeded");
    for (const int request_id : job.request_ids) {
      --chip.outstanding;
      --states[static_cast<std::size_t>(request_id)].copies;
      if (result.records[static_cast<std::size_t>(request_id)].outcome == Outcome::kPending) {
        complete_request(chip, request_id, job.dispatch_seconds);
      }
    }
  };

  /// The failure detector declared `chip` dead: evacuate everything.
  const auto evacuate_chip = [&](Chip& chip) {
    while (!chip.queue.empty()) {
      const serve::Request request = chip.queue.pop();
      --chip.outstanding;
      --states[static_cast<std::size_t>(request.id)].copies;
      ClusterRequestRecord& record = result.records[static_cast<std::size_t>(request.id)];
      if (record.outcome == Outcome::kPending) record.chip = chip.id;
      consider_recovery(request.id, "chip_crashed");
    }
    for (auto& [job_id, job] : chip.active) {
      for (const int request_id : job.request_ids) {
        --chip.outstanding;
        --states[static_cast<std::size_t>(request_id)].copies;
        result.records[static_cast<std::size_t>(request_id)].chip = chip.id;
        consider_recovery(request_id, "chip_crashed");
      }
    }
    chip.active.clear();
    chip.tracker.clear();
  };

  const auto kill_tile = [&](Chip& chip, int core) {
    ++result.tile_kills;
    tile_kills_total.add();
    chip.partitioner.retire(core);
    chip.retired_cores.insert(core);  // hardware: survives chip restarts
    // Restate the job running on the killed core (if any) to its degraded
    // timing: survivors redo the product, the repartition cost is charged
    // to the job (sim::Engine's dead-rank protocol via the service model).
    int hit_job = -1;
    for (const auto& [job_id, job] : chip.active) {
      if (std::find(job.cores.begin(), job.cores.end(), core) != job.cores.end()) {
        hit_job = job_id;
        break;
      }
    }
    if (hit_job < 0) {
      log_event(now, "tile_kill", chip.id, "core " + std::to_string(core) + " idle");
      return;
    }
    ActiveJob& job = chip.active.at(hit_job);
    if (job.cores.size() == 1) {
      // No survivor: the job is lost, its requests retry elsewhere.
      log_event(now, "tile_kill", chip.id,
                "core " + std::to_string(core) + " job " + std::to_string(hit_job) +
                    " lost (sole core)");
      chip.tracker.drop(hit_job);
      chip.partitioner.release(job.cores);
      ++chip.jobs_failed;
      const int trips_before = chip.breaker.trip_count();
      chip.breaker.on_failure(now);
      if (chip.breaker.trip_count() > trips_before) {
        breaker_trips_total.add();
        log_event(now, "breaker_open", chip.id,
                  "trip " + std::to_string(chip.breaker.trip_count()));
      }
      const std::vector<int> request_ids = job.request_ids;
      chip.active.erase(hit_job);
      for (const int request_id : request_ids) {
        --chip.outstanding;
        --states[static_cast<std::size_t>(request_id)].copies;
        result.records[static_cast<std::size_t>(request_id)].chip = chip.id;
        consider_recovery(request_id, "tile_killed");
      }
      return;
    }
    double remaining = 0.0;
    for (const serve::ContendingJob& tracked : chip.tracker.jobs()) {
      if (tracked.id == hit_job) remaining = tracked.remaining_seconds;
    }
    if (remaining <= kEpsilonSeconds) {
      // The job is completing this very instant; let it finish healthy.
      log_event(now, "tile_kill", chip.id,
                "core " + std::to_string(core) + " job " + std::to_string(hit_job) +
                    " already done");
      return;
    }
    // Base the restatement ratio on the timing the job was actually priced
    // with (a cold job degrades from its cold figure, a tuned job from its
    // tuned plan; the degraded timing itself stays the warm CSR protocol --
    // the survivors' redo re-ships CSR blocks whatever the plan was, so the
    // steady-state CSR figure is the better model).
    const serve::JobTiming& healthy =
        job.cold ? model_.cold_timing(job.matrix_id, job.cores, job.plan)
                 : model_.timing(job.matrix_id, job.cores, job.plan);
    const serve::JobTiming& degraded = model_.degraded_timing(job.matrix_id, job.cores, core);
    const double ratio = healthy.product_seconds > 0.0
                             ? degraded.product_seconds / healthy.product_seconds
                             : 1.0;
    const double restated = remaining * ratio + degraded.recovery_seconds;
    chip.tracker.restate(hit_job, degraded.beta, restated);
    log_event(now, "tile_kill", chip.id,
              "core " + std::to_string(core) + " job " + std::to_string(hit_job) +
                  " degraded x" + std::to_string(ratio));
  };

  // ---- main event loop ------------------------------------------------
  while (true) {
    const bool copies_outstanding =
        std::any_of(chips.begin(), chips.end(),
                    [](const Chip& chip) { return chip.outstanding > 0; });
    if (next_arrival >= requests.size() && !copies_outstanding && pending_retries == 0) {
      break;  // every request resolved; leftover fault timers are moot
    }

    const double arrival_time =
        next_arrival < requests.size() ? requests[next_arrival].arrival_seconds : kInfinity;
    const double timer_time = timers.empty() ? kInfinity : timers.begin()->seconds;

    double completion_time = kInfinity;
    int completion_chip = -1;
    serve::ContentionTracker::Completion completion{0.0, -1};
    for (Chip& chip : chips) {
      if (chip.crashed || chip.tracker.empty()) continue;
      const auto next = chip.tracker.next_completion();
      const double t = now + next.delay_seconds;
      if (t < completion_time) {
        completion_time = t;
        completion_chip = chip.id;
        completion = next;
      }
    }

    SCC_REQUIRE(arrival_time < kInfinity || timer_time < kInfinity ||
                    completion_time < kInfinity,
                "cluster simulation stalled with unresolved requests");

    // Tie order: timers (faults/detector/retries) strictly before
    // completions, completions before arrivals -- the serve simulator's
    // completions-first rule, with the fault machinery layered on top. A
    // zero-fault run has no timers, so the serve order is preserved
    // exactly.
    const auto advance_to = [&](double t) {
      const double dt = t - now;
      for (Chip& chip : chips) {
        if (!chip.crashed) chip.tracker.advance(dt);
      }
      now = t;
    };

    if (timer_time <= completion_time && timer_time <= arrival_time) {
      const Timer timer = *timers.begin();
      timers.erase(timers.begin());
      advance_to(timer.seconds);
      switch (timer.kind) {
        case TimerKind::kCrash: {
          Chip& chip = chips[static_cast<std::size_t>(timer.chip)];
          if (chip.crashed) break;  // a crash on a dead chip changes nothing
          chip.crashed = true;
          ++result.chip_crashes;
          crashes_total.add();
          log_event(now, "chip_crash", chip.id,
                    "jobs in flight " + std::to_string(chip.active.size()));
          // Detector timers are stamped with the chip's incarnation so a
          // restart-before-dead race cannot evacuate the chip's next life.
          const FailureDeadlines deadlines = detection_deadlines(config_.detector, now);
          schedule(deadlines.suspect_seconds, TimerKind::kSuspect, chip.id, chip.incarnation,
                   0.0);
          schedule(deadlines.dead_seconds, TimerKind::kDead, chip.id, chip.incarnation, 0.0);
          const double downtime = oracle_.restart_downtime(chip.id, chip.incarnation);
          if (downtime > 0.0) {
            schedule(now + downtime, TimerKind::kRestart, chip.id, -1, 0.0);
          }
          break;
        }
        case TimerKind::kSuspect: {
          Chip& chip = chips[static_cast<std::size_t>(timer.chip)];
          if (!chip.crashed || timer.aux != chip.incarnation) break;  // stale
          if (chip.health == HealthState::kDead) break;
          chip.health = HealthState::kSuspect;
          log_event(now, "chip_suspect", chip.id, "missed heartbeats");
          break;
        }
        case TimerKind::kDead: {
          Chip& chip = chips[static_cast<std::size_t>(timer.chip)];
          if (!chip.crashed || timer.aux != chip.incarnation) break;  // stale
          chip.health = HealthState::kDead;
          log_event(now, "chip_dead", chip.id,
                    "evacuating " + std::to_string(chip.outstanding) + " requests");
          evacuate_chip(chip);
          break;
        }
        case TimerKind::kRestart: {
          Chip& chip = chips[static_cast<std::size_t>(timer.chip)];
          if (!chip.crashed) break;  // restarting an alive chip is moot
          // Whatever the power cycle took with it is lost now even if the
          // detector had not yet declared the chip dead.
          if (chip.health != HealthState::kDead) evacuate_chip(chip);
          chip.crashed = false;
          ++chip.incarnation;  // invalidates stale suspect/dead timers
          ++chip.restarts;
          ++result.restarts;
          restarts_total.add();
          chip.health = HealthState::kRejoining;
          chip.queue = serve::AdmissionQueue(config_.chip.admission);
          chip.partitioner = serve::ChipPartitioner(config_.chip.policy, config_.chip.partition);
          for (const int core : chip.retired_cores) chip.partitioner.retire(core);
          chip.tracker.clear();
          chip.breaker_trips_prior += chip.breaker.trip_count();
          chip.breaker = CircuitBreaker(config_.breaker);
          // Data gravity: DRAM contents did not survive the power cycle;
          // every matrix must be re-shipped (and re-warmed) before serving.
          chip.placed.clear();
          chip.cold_left.clear();
          log_event(now, "chip_restart", chip.id,
                    "incarnation " + std::to_string(chip.incarnation) + ", probation");
          schedule(rejoin_deadline(config_.detector, now), TimerKind::kRejoined, chip.id,
                   chip.incarnation, 0.0);
          break;
        }
        case TimerKind::kRejoined: {
          Chip& chip = chips[static_cast<std::size_t>(timer.chip)];
          // A chip that flapped again during probation never rejoins this
          // incarnation; the stale timer is dropped here.
          if (chip.crashed || timer.aux != chip.incarnation) break;
          if (chip.health != HealthState::kRejoining) break;
          chip.health = HealthState::kHealthy;
          ++result.rejoins;
          rejoins_total.add();
          log_event(now, "chip_rejoined", chip.id, "probation passed");
          break;
        }
        case TimerKind::kDomainOutage: {
          const std::vector<int> victims =
              domain_chips(config_.faults, timer.aux, config_.chip_count);
          std::ostringstream detail_oss;
          detail_oss << "domain " << timer.aux << " chips";
          for (const int victim : victims) detail_oss << " " << victim;
          const std::string detail = detail_oss.str();
          ++result.domain_outages;
          domain_outages_total.add();
          log_event(now, "domain_outage", -1, detail);
          break;
        }
        case TimerKind::kTileKill: {
          Chip& chip = chips[static_cast<std::size_t>(timer.chip)];
          if (!chip.crashed) kill_tile(chip, timer.aux);
          break;
        }
        case TimerKind::kBrownoutStart: {
          Chip& chip = chips[static_cast<std::size_t>(timer.chip)];
          if (!chip.crashed) {
            chip.tracker.set_mc_derate(timer.aux, timer.value);
            ++result.brownouts;
            log_event(now, "brownout_start", chip.id,
                      "mc " + std::to_string(timer.aux) + " derate " +
                          std::to_string(timer.value));
          }
          break;
        }
        case TimerKind::kBrownoutEnd: {
          Chip& chip = chips[static_cast<std::size_t>(timer.chip)];
          if (!chip.crashed) {
            chip.tracker.set_mc_derate(timer.aux, 1.0);
            log_event(now, "brownout_end", chip.id, "mc " + std::to_string(timer.aux));
          }
          break;
        }
        case TimerKind::kRetry: {
          --pending_retries;
          const int request_id = timer.aux;
          ClusterRequestRecord& record =
              result.records[static_cast<std::size_t>(request_id)];
          RequestState& state = states[static_cast<std::size_t>(request_id)];
          if (record.outcome != Outcome::kPending) break;
          int target = route_for(record.request.matrix_id, state.tried);
          if (target < 0) {
            // Every untried chip is unroutable; allow falling back to a
            // previously tried (still live) chip before giving up.
            target = route_for(record.request.matrix_id, {});
          }
          if (target < 0) {
            dead_letter(request_id, "all_chips_unroutable");
            break;
          }
          ++record.attempts;
          ++result.retries;
          retries_total.add();
          const bool failed_over = target != state.last_chip;
          if (offer_to(chips[static_cast<std::size_t>(target)], record.request)) {
            if (failed_over) {
              ++record.failovers;
              ++result.failovers;
              failovers_total.add();
              log_event(now, "failover", target,
                        "request " + std::to_string(request_id) + " from chip " +
                            std::to_string(record.chip));
            }
          } else {
            // The retry target's queue is full: that attempt is spent.
            record.chip = target;
            consider_recovery(request_id, "queue_full");
          }
          break;
        }
        case TimerKind::kHedge: {
          const int request_id = timer.aux;
          ClusterRequestRecord& record =
              result.records[static_cast<std::size_t>(request_id)];
          RequestState& state = states[static_cast<std::size_t>(request_id)];
          // Hedge only a request that is still pending on its first chip;
          // a failed copy is the retry path's business.
          if (record.outcome != Outcome::kPending || state.copies == 0) break;
          if (state.hedge_chip >= 0) break;
          const int target = route_for(record.request.matrix_id, state.tried);
          if (target < 0) break;
          if (offer_to(chips[static_cast<std::size_t>(target)], record.request)) {
            record.hedged = true;
            state.hedge_chip = target;
            ++result.hedges;
            hedges_total.add();
            log_event(now, "hedge", target, "request " + std::to_string(request_id));
          }
          break;
        }
      }
    } else if (completion_time <= arrival_time) {
      Chip& chip = chips[static_cast<std::size_t>(completion_chip)];
      advance_to(completion_time);
      chip.tracker.remove(completion.id);
      finish_job(chip, completion.id);
    } else {
      advance_to(arrival_time);
      const serve::Request& request = requests[next_arrival++];
      requests_total.add();
      ClusterRequestRecord& record = result.records[static_cast<std::size_t>(request.id)];
      RequestState& state = states[static_cast<std::size_t>(request.id)];
      bool admitted = false;
      while (true) {
        const int target = route_for(request.matrix_id, state.tried);
        if (target < 0) break;
        record.chip = target;
        record.attempts = 1;
        if (offer_to(chips[static_cast<std::size_t>(target)], request)) {
          admitted = true;
          break;
        }
        state.tried.insert(target);  // queue full: spill to the next chip
        if (!config_.failover) break;
      }
      if (!admitted) {
        record.outcome = Outcome::kRejected;
        ++result.rejected;
        rejected_total.add();
      } else if (hedging_enabled && request.cls == serve::RequestClass::kInteractive) {
        schedule(now + config_.hedge.delay_seconds, TimerKind::kHedge, -1, request.id, 0.0);
      }
    }

    dispatch_all();
  }

  // ---- result assembly ------------------------------------------------
  SCC_REQUIRE(result.completed + result.rejected + result.dead_lettered ==
                  static_cast<int>(requests.size()),
              "request conservation violated: " << result.completed << " completed + "
                                                << result.rejected << " rejected + "
                                                << result.dead_lettered
                                                << " dead-lettered != " << requests.size());
  for (const ClusterRequestRecord& record : result.records) {
    SCC_REQUIRE(record.outcome != Outcome::kDeadLettered ||
                    !record.dead_letter_reason.empty(),
                "dead-lettered request " << record.request.id << " has no terminal reason");
  }

  result.makespan_seconds = now;
  result.throughput_rps =
      result.makespan_seconds > 0.0
          ? static_cast<double>(result.completed) / result.makespan_seconds
          : 0.0;
  result.availability =
      requests.empty() ? 1.0
                       : static_cast<double>(result.completed) /
                             static_cast<double>(requests.size());

  for (const Chip& chip : chips) {
    ChipSummary summary;
    summary.chip = chip.id;
    summary.crashed = chip.crashed;
    summary.state = chip.quarantined ? HealthState::kQuarantined
                    : chip.crashed   ? HealthState::kDead
                    : chip.breaker.state() == CircuitBreaker::State::kOpen
                        ? HealthState::kDraining
                    : chip.health == HealthState::kRejoining ? HealthState::kRejoining
                                                             : HealthState::kHealthy;
    summary.jobs_completed = chip.jobs_completed;
    summary.jobs_failed = chip.jobs_failed;
    summary.retired_cores = chip.partitioner.retired_core_count();
    summary.requests_completed = chip.requests_completed;
    summary.breaker_trips = chip.breaker_trips_prior + chip.breaker.trip_count();
    summary.restarts = chip.restarts;
    summary.reships = chip.reships;
    summary.cold_runs = chip.cold_runs;
    summary.reship_bytes = chip.reship_bytes;
    summary.placement.assign(chip.placed.begin(), chip.placed.end());
    summary.sdc_detected = chip.sdc_detected;
    summary.sdc_corrected = chip.sdc_corrected;
    summary.sdc_unrecoverable = chip.sdc_unrecoverable;
    summary.sdc_escapes = chip.sdc_escapes;
    summary.quarantined = chip.quarantined;
    result.breaker_trips += summary.breaker_trips;
    result.chips.push_back(summary);
  }

  std::vector<double> total;
  std::vector<double> interactive;
  std::vector<double> batch;
  for (const ClusterRequestRecord& record : result.records) {
    if (record.outcome != Outcome::kCompleted) continue;
    total.push_back(record.latency_seconds());
    (record.request.cls == serve::RequestClass::kInteractive ? interactive : batch)
        .push_back(record.latency_seconds());
  }
  result.latency_total = serve::summarize_latencies(total);
  result.latency_interactive = serve::summarize_latencies(interactive);
  result.latency_batch = serve::summarize_latencies(batch);

  metrics_->gauge("cluster.availability").set(result.availability);
  metrics_->gauge("cluster.throughput_rps").set(result.throughput_rps);
  metrics_->gauge("cluster.makespan_seconds").set(result.makespan_seconds);
  if (tuner_ != nullptr) {
    const tune::Autotuner::Counters after = tuner_->counters();
    result.tuning.enabled = true;
    result.tuning.cache_hits = after.cache_hits - tuning_before.cache_hits;
    result.tuning.predicted = after.predicted - tuning_before.predicted;
    result.tuning.explored = after.explored - tuning_before.explored;
    result.tuning.explore_runs = after.explore_runs - tuning_before.explore_runs;
    result.tuning.explore_seconds = after.explore_seconds - tuning_before.explore_seconds;
    result.tuning.decisions.assign(
        tuner_->log().begin() + static_cast<std::ptrdiff_t>(tuning_log_before),
        tuner_->log().end());
    metrics_->counter("tune.cache_hits").add(result.tuning.cache_hits);
    metrics_->counter("tune.predicted").add(result.tuning.predicted);
    metrics_->counter("tune.explored").add(result.tuning.explored);
    metrics_->counter("tune.explore_runs").add(result.tuning.explore_runs);
    metrics_->gauge("tune.explore_seconds").set(result.tuning.explore_seconds);
  }
  // The shared RunCache's stats ride the observability registry (not the
  // report-embedded one: memoization must not change report bytes).
  if (const std::shared_ptr<sim::RunCache>& cache = pool_.run_cache();
      cache != nullptr && recorder != nullptr) {
    const sim::RunCache::Stats stats = cache->stats();
    obs::Registry& registry = recorder->metrics();
    registry.gauge("run_cache.hits").set(static_cast<double>(stats.total.hits));
    registry.gauge("run_cache.misses").set(static_cast<double>(stats.total.misses));
    registry.gauge("run_cache.evictions").set(static_cast<double>(stats.total.evictions));
    registry.gauge("run_cache.size").set(static_cast<double>(stats.total.size));
    registry.gauge("run_cache.load_factor").set(stats.total.load_factor());
    registry.gauge("run_cache.replay_hits").set(static_cast<double>(stats.replay_hits));
    registry.gauge("run_cache.replay_misses").set(static_cast<double>(stats.replay_misses));
    registry.gauge("run_cache.replay_size").set(static_cast<double>(stats.replay_size));
    recorder->event("run_cache.stats",
                    {{"hits", std::to_string(stats.total.hits)},
                     {"misses", std::to_string(stats.total.misses)},
                     {"evictions", std::to_string(stats.total.evictions)},
                     {"size", std::to_string(stats.total.size)},
                     {"shards", std::to_string(cache->shard_count())},
                     {"replay_hits", std::to_string(stats.replay_hits)},
                     {"replay_misses", std::to_string(stats.replay_misses)},
                     {"replay_size", std::to_string(stats.replay_size)}});
  }
  return result;
}

}  // namespace scc::cluster
