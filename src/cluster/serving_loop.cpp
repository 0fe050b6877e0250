#include "cluster/serving_loop.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "scc/mapping.hpp"

namespace scc::cluster {

namespace {

/// Completions within a nanosecond count as done (mirrors the contention
/// tracker's own epsilon): a tile kill landing exactly on a completion must
/// not restate a finished job.
constexpr double kEpsilonSeconds = 1e-12;
constexpr double kInfinity = std::numeric_limits<double>::infinity();

std::string job_text(int job_id) { return "job " + std::to_string(job_id); }
std::string request_text(int request_id) { return "request " + std::to_string(request_id); }

/// The shared RunCache's stats ride the observability registry (not the
/// report-embedded one: memoization must not change report bytes).
void record_run_cache_stats(const serve::MatrixPool& pool, obs::Recorder* recorder) {
  const std::shared_ptr<sim::RunCache>& cache = pool.run_cache();
  if (cache == nullptr || recorder == nullptr) return;
  const auto [runs, replays] = cache->stats();
  obs::Registry& registry = recorder->metrics();
  registry.gauge("run_cache.hits").set(static_cast<double>(runs.hits));
  registry.gauge("run_cache.misses").set(static_cast<double>(runs.misses));
  registry.gauge("run_cache.evictions").set(static_cast<double>(runs.evictions));
  registry.gauge("run_cache.size").set(static_cast<double>(runs.size));
  registry.gauge("run_cache.load_factor")
      .set(static_cast<double>(runs.size) / static_cast<double>(runs.capacity));
  registry.gauge("run_cache.replay_hits").set(static_cast<double>(replays.hits));
  registry.gauge("run_cache.replay_misses").set(static_cast<double>(replays.misses));
  registry.gauge("run_cache.replay_size").set(static_cast<double>(replays.size));
  recorder->event("run_cache.stats",
                  {{"hits", std::to_string(runs.hits)},
                   {"misses", std::to_string(runs.misses)},
                   {"evictions", std::to_string(runs.evictions)},
                   {"size", std::to_string(runs.size)},
                   {"replay_hits", std::to_string(replays.hits)},
                   {"replay_misses", std::to_string(replays.misses)},
                   {"replay_size", std::to_string(replays.size)}});
}

}  // namespace

void record_tuning_metrics(const serve::TuningSummary& tuning, obs::Registry& metrics) {
  if (!tuning.enabled) return;
  metrics.counter("tune.cache_hits").add(tuning.cache_hits);
  metrics.counter("tune.predicted").add(tuning.predicted);
  metrics.counter("tune.explored").add(tuning.explored);
  metrics.counter("tune.explore_runs").add(tuning.explore_runs);
  metrics.gauge("tune.explore_seconds").set(tuning.explore_seconds);
}

ChipRuntime::ChipRuntime(int chip_id, const ClusterConfig& config, integrity::SdcPlan sdc_plan)
    : id(chip_id),
      queue(config.chip.admission),
      partitioner(config.chip.policy, config.chip.partition),
      breaker(config.breaker),
      sdc(sdc_plan) {}

void ChipRuntime::restart(const ClusterConfig& config) {
  crashed = false;
  ++incarnation;  // invalidates stale suspect/dead timers
  ++ledger.restarts;
  health = HealthState::kRejoining;
  queue = serve::AdmissionQueue(config.chip.admission);
  partitioner = serve::ChipPartitioner(config.chip.policy, config.chip.partition);
  for (const int core : retired_cores) partitioner.retire(core);
  tracker.clear();
  ledger.breaker_trips += breaker.trip_count();
  breaker = CircuitBreaker(config.breaker);
  // Data gravity: DRAM contents did not survive the power cycle; every
  // matrix must be re-shipped (and re-warmed) before serving.
  placed.clear();
  cold_left.clear();
}

HealthState ChipRuntime::view_state() const {
  if (ledger.quarantined) return HealthState::kQuarantined;
  if (crashed) return health;
  if (breaker.state() == CircuitBreaker::State::kOpen) return HealthState::kDraining;
  return health == HealthState::kRejoining ? HealthState::kRejoining : HealthState::kHealthy;
}

ServingLoop::ServingLoop(const ClusterConfig& config, serve::MatrixPool& pool,
                         serve::ServiceModel& model, const FaultOracle& oracle,
                         tune::Autotuner* tuner, std::vector<integrity::SdcPlan> chip_sdc,
                         obs::Registry* metrics)
    : config_(config),
      pool_(pool),
      model_(model),
      oracle_(oracle),
      tuner_(tuner),
      metrics_(metrics),
      sdc_mode_(config.chip_count == 1 && config.chip.verify != integrity::VerifyMode::kOff
                    ? integrity::VerifyMode::kCorrect
                    : config.chip.verify),
      hedging_(config.failover && config.hedge.enabled && config.chip_count > 1) {
  SCC_REQUIRE(config_.chip.batch_max >= 1, "batch_max must be >= 1");
  SCC_REQUIRE(config_.placement.reship_bandwidth_fraction > 0.0,
              "placement.reship_bandwidth_fraction must be positive");
  SCC_REQUIRE(config_.placement.warmup_runs >= 0, "placement.warmup_runs must be >= 0");
  SCC_REQUIRE(static_cast<int>(chip_sdc.size()) == config_.chip_count,
              "one SDC plan per chip required");
  if (metrics_ != nullptr) {
    latency_ =
        &metrics_->histogram("cluster.latency_seconds", obs::Histogram::seconds_buckets());
  }
  chips_.reserve(chip_sdc.size());
  for (int c = 0; c < config_.chip_count; ++c) {
    chips_.emplace_back(c, config_, chip_sdc[static_cast<std::size_t>(c)]);
  }
}

void ServingLoop::schedule(double seconds, TimerKind kind, int chip, int aux, double value) {
  timers_.insert(Timer{seconds, kind, chip, aux, value});
}

void ServingLoop::log(const char* kind, int chip, const std::string& detail) {
  if (!keep_log_) return;
  result_.log.push_back(LogEvent{now_, kind, chip, detail});
  if (recorder_ != nullptr) {
    recorder_->event(std::string("cluster.") + kind,
                     {{"chip", std::to_string(chip)}, {"detail", detail}});
  }
}

/// Router snapshot. The breaker is consulted FIRST for every live chip --
/// allows() is what half-opens an expired open breaker, so the health
/// column sees the post-transition state and a cooled-down chip gets its
/// probe instead of draining until run end.
int ServingLoop::route_for(const serve::Request& request, bool exclude_tried) {
  views_.clear();
  excluded_.clear();
  bool any_cold = false;
  for (ChipRuntime& chip : chips_) {
    ChipView view;
    view.chip = chip.id;
    const bool allowed = !chip.crashed && !chip.ledger.quarantined && chip.breaker.allows(now_);
    view.health = chip.view_state();
    view.dispatchable = allowed && chip.health != HealthState::kDead;
    view.outstanding = chip.outstanding;
    view.has_matrix = chip.placed.contains(request.matrix_id);
    any_cold = any_cold || !view.has_matrix;
    views_.push_back(view);
    if (exclude_tried && tried(request.id, chip.id)) excluded_.push_back(chip.id);
  }
  // Price the movement of this matrix in queued-request units once the run
  // has a service-time yardstick; before that the router falls back to its
  // flat affinity slack. Only chips lacking the matrix pay it.
  if (any_cold && jobs_dispatched_ > 0) {
    const double mean_service = service_seconds_sum_ / static_cast<double>(jobs_dispatched_);
    if (mean_service > 0.0) {
      const double penalty =
          model_.reship_seconds(request.matrix_id, config_.placement.reship_bandwidth_fraction) /
          mean_service;
      for (ChipView& view : views_) view.reship_penalty = penalty;
    }
  }
  return route(views_, excluded_, config_.router);
}

bool ServingLoop::offer_to(ChipRuntime& chip, const serve::Request& request) {
  if (!chip.queue.offer(request)) return false;
  ++chip.outstanding;
  RequestState& state = states_[static_cast<std::size_t>(request.id)];
  ++state.copies;
  state.last_chip = chip.id;
  tried(request.id, chip.id) = 1;
  return true;
}

void ServingLoop::dead_letter(int request_id, const char* reason) {
  RequestState& state = states_[static_cast<std::size_t>(request_id)];
  state.outcome = Outcome::kDeadLettered;
  state.dead_letter_reason = reason;
  ++result_.dead_lettered;
  if (keep_log_) log("dead_letter", state.chip, request_text(request_id) + " " + reason);
}

/// A request copy just died (job failure, chip crash, expiry). When it was
/// the last live copy, decide: retry with backoff, or dead-letter.
void ServingLoop::consider_recovery(int request_id, const char* reason) {
  const RequestState& state = states_[static_cast<std::size_t>(request_id)];
  if (state.outcome != Outcome::kPending) return;
  if (state.copies > 0) return;  // a hedge twin is still in flight
  if (!config_.failover) {
    dead_letter(request_id, reason);
    return;
  }
  if (state.attempts >= config_.retry.max_attempts) {
    dead_letter(request_id, "retries_exhausted");
    return;
  }
  const int attempt = state.attempts;  // 1-based: attempts made so far
  double backoff = config_.retry.base_backoff_seconds;
  for (int i = 1; i < attempt; ++i) backoff *= config_.retry.backoff_multiplier;
  backoff *= 1.0 + config_.retry.jitter_fraction * oracle_.jitter(request_id, attempt);
  // Deadline propagation: a retry that cannot start before the SLO
  // deadline is pointless -- dead-letter now instead of wasting chip time.
  const serve::Request& request = records_[static_cast<std::size_t>(request_id)].request;
  if (now_ + backoff > request.deadline_seconds()) {
    dead_letter(request_id, "deadline_exceeded");
    return;
  }
  schedule(now_ + backoff, TimerKind::kRetry, -1, request_id, 0.0);
  ++pending_retries_;
  log("retry", state.chip,
      request_text(request_id) + " attempt " + std::to_string(attempt + 1) + " backoff " +
          std::to_string(backoff));
}

/// One copy of `request_id` died on `chip`: take it off the chip's books,
/// attribute the request to the chip and recover it if no copy is left.
/// kAlways also re-attributes a request a twin already finished elsewhere;
/// three sites (no cores, evacuated in-flight jobs, a tile kill's sole
/// core) have always done so, and the pinned outputs depend on it.
void ServingLoop::drop_copy(ChipRuntime& chip, int request_id, const char* reason,
                            Attribution attribution) {
  --chip.outstanding;
  RequestState& state = states_[static_cast<std::size_t>(request_id)];
  --state.copies;
  if (attribution == Attribution::kAlways || state.outcome == Outcome::kPending) {
    state.chip = chip.id;
  }
  consider_recovery(request_id, reason);
}

/// A job on `chip` failed to deliver: feed the breaker and log `kind`
/// (then the trip, when this failure opened the breaker).
void ServingLoop::fail_job(ChipRuntime& chip, const char* kind, const std::string& detail) {
  ++chip.ledger.jobs_failed;
  const int trips_before = chip.breaker.trip_count();
  chip.breaker.on_failure(now_);
  log(kind, chip.id, detail);
  if (chip.breaker.trip_count() > trips_before) {
    log("breaker_open", chip.id, "trip " + std::to_string(chip.breaker.trip_count()));
  }
}

/// SDC quarantine: once a chip accumulates `quarantine_threshold` detected
/// corruptions it is withdrawn from routing for good and its queue is
/// evacuated to other replicas. In-flight jobs run to completion (their
/// outcomes are already decided); the chip just takes nothing new. The
/// state is terminal -- unlike the breaker there is no cooldown and a
/// restart does not clear it, because bad DRAM is hardware.
void ServingLoop::maybe_quarantine(ChipRuntime& chip) {
  if (config_.quarantine_threshold <= 0 || chip.ledger.quarantined) return;
  if (chip.ledger.sdc_detected < config_.quarantine_threshold) return;
  chip.ledger.quarantined = true;
  ++result_.quarantines;
  log("chip_quarantine", chip.id,
      std::to_string(chip.ledger.sdc_detected) + " detected corruptions, evacuating " +
          std::to_string(chip.queue.depth()) + " queued requests");
  while (!chip.queue.empty()) drop_copy(chip, chip.queue.pop().id, "chip_quarantined");
}

/// Per-chip dispatch: expire -> allocate -> batch -> price -> classify
/// SDC -> track, until the queue empties or its head cannot be placed.
void ServingLoop::dispatch(ChipRuntime& chip) {
  if (chip.crashed) return;
  // Shed queued requests whose deadline already passed: dispatching them
  // would spend chip time on a guaranteed SLO miss.
  for (const serve::Request& expired : chip.queue.take_expired(now_)) {
    --chip.outstanding;
    RequestState& state = states_[static_cast<std::size_t>(expired.id)];
    --state.copies;
    if (state.outcome == Outcome::kPending && state.copies == 0) {
      state.chip = chip.id;
      dead_letter(expired.id, "deadline_expired");
      records_[static_cast<std::size_t>(expired.id)].deadline_expired = true;
      ++result_.deadline_expired;
      if (observer_ != nullptr) observer_->expired(expired);
    }
  }
  while (!chip.queue.empty()) {
    const serve::Request& head = chip.queue.front();
    const int matrix_id = head.matrix_id;
    const testbed::SuiteEntry& entry = pool_.entry(matrix_id);
    const serve::JobShape shape{entry.matrix.rows(), entry.matrix.nnz(), entry.working_set};
    serve::JobPlan plan;
    int preferred_cores = 0;
    if (tuner_ != nullptr) {
      const tune::TuningDecision decision = tuner_->decide(entry.matrix, matrix_id);
      plan.format = decision.choice.format;
      plan.reorder = decision.choice.reorder;
      preferred_cores = decision.choice.ue_count;
    }
    std::vector<int> cores = chip.partitioner.try_allocate(shape, preferred_cores);
    if (cores.empty()) {
      if (!chip.tracker.empty()) return;  // head-of-line blocks until a completion
      // Nothing is running and the job still does not fit: tile kills
      // shrank the chip below this job's footprint. It can never run here;
      // fail the copy over (or dead-letter it) instead of deadlocking.
      drop_copy(chip, chip.queue.pop().id, "no_cores", Attribution::kAlways);
      continue;
    }

    ActiveJob job;
    job.request_ids.push_back(chip.queue.pop().id);
    if (config_.chip.batching) {
      for (const serve::Request& extra :
           chip.queue.take_matching(matrix_id, config_.chip.batch_max - 1)) {
        job.request_ids.push_back(extra.id);
      }
    }

    // Data movement: a chip may not run a matrix it does not hold until
    // the CSR blocks are re-shipped over the inter-chip link. The ship is
    // charged to this job as pure-bandwidth work, the matrix becomes
    // resident, and the chip owes `warmup_runs` cold-cache jobs on it (the
    // freshly shipped working set has never touched the caches).
    bool reshipped = false;
    double reship_seconds = 0.0;
    if (!chip.placed.contains(matrix_id)) {
      reshipped = true;
      reship_seconds =
          model_.reship_seconds(matrix_id, config_.placement.reship_bandwidth_fraction);
      const double bytes = model_.reship_bytes(matrix_id);
      chip.placed.insert(matrix_id);
      chip.cold_left[matrix_id] = config_.placement.warmup_runs;
      ++chip.ledger.reships;
      ++result_.reships;
      chip.ledger.reship_bytes += bytes;
      result_.reship_bytes += bytes;
      // Whole bytes per ship: each ship is truncated before it is summed.
      if (metrics_ != nullptr) {
        metrics_->counter("cluster.reship_bytes_total").add(static_cast<std::uint64_t>(bytes));
      }
      log("reship", chip.id,
          "matrix " + std::to_string(matrix_id) + " bytes " +
              std::to_string(static_cast<long long>(bytes)));
    }

    // Warm-up transient: jobs inside the post-ship cold window are priced
    // by the cold-cache twin engine instead of the steady-state figure.
    if (const auto cold_it = chip.cold_left.find(matrix_id);
        cold_it != chip.cold_left.end() && cold_it->second > 0) {
      job.cold = true;
      --cold_it->second;
      ++chip.ledger.cold_runs;
      ++result_.cold_runs;
    }

    const serve::JobTiming& timing = job.cold ? model_.cold_timing(matrix_id, cores, plan)
                                              : model_.timing(matrix_id, cores, plan);

    // Transient failure and silent-data-corruption draws share the
    // chip-local job ordinal as their site, so both schedules replay
    // deterministically per (seed, chip, job). Corrupted jobs are
    // classified here -- numerically, against the real matrix, but outside
    // the RunCache, so memoized timings stay corruption-free and outcomes
    // are identical across cache modes and thread counts.
    const std::uint64_t site = chip.job_ordinal++;
    job.will_fail = oracle_.job_fails(chip.id, site);
    integrity::VerifyReport sdc_report;
    if (!job.will_fail && !chip.sdc.empty()) {
      const integrity::SdcOracle sdc_oracle(chip.sdc);
      if (sdc_oracle.corrupts(site, 0)) {
        sdc_report = integrity::run_verification(entry.matrix, sdc_mode_, &sdc_oracle, site);
      }
    }
    // A correct-mode recompute re-runs one product on the same chip.
    const double recompute =
        static_cast<double>(sdc_report.attempts - 1) * timing.product_seconds;

    const auto k = static_cast<double>(job.request_ids.size());
    const double service =
        reship_seconds + timing.load_seconds + k * timing.product_seconds + recompute;
    // The re-ship and load phases are pure bandwidth (beta = 1).
    const double beta = (reship_seconds + timing.load_seconds +
                         (k * timing.product_seconds + recompute) * timing.beta) /
                        service;
    service_seconds_sum_ += service;
    ++jobs_dispatched_;

    std::array<bool, chip::kMemoryControllerCount> uses_mc{};
    for (const int core : cores) {
      uses_mc[static_cast<std::size_t>(chip::memory_controller_of_core(core))] = true;
    }

    serve::JobRecord& record = job.record;
    record.id = next_job_id_++;
    record.matrix_id = matrix_id;
    record.request_count = static_cast<int>(job.request_ids.size());
    record.cores = std::move(cores);
    record.dispatch_seconds = now_;
    record.load_seconds = timing.load_seconds;
    record.product_seconds = timing.product_seconds;
    record.service_seconds = service;
    record.beta = beta;
    record.sdc_outcome = sdc_report.outcome;
    record.verify_attempts = sdc_report.attempts;
    job.plan = plan;
    job.sdc_significant = sdc_report.significant;
    chip.breaker.note_dispatch();  // a half-open breaker's probe job
    for (const int request_id : job.request_ids) {
      records_[static_cast<std::size_t>(request_id)].dispatch_seconds = now_;
      RequestState& state = states_[static_cast<std::size_t>(request_id)];
      state.reshipped = state.reshipped || reshipped;
      state.cold = state.cold || job.cold;
    }
    if (observer_ != nullptr) observer_->dispatched(record, job.request_ids);
    chip.tracker.add(record.id, uses_mc, beta, service);
    chip.active.emplace(record.id, std::move(job));
  }
}

/// Winning completion of request `request_id` on `chip` at now_.
void ServingLoop::complete_request(ChipRuntime& chip, int request_id,
                                   const serve::JobRecord& job) {
  serve::RequestRecord& record = records_[static_cast<std::size_t>(request_id)];
  RequestState& state = states_[static_cast<std::size_t>(request_id)];
  state.outcome = Outcome::kCompleted;
  state.chip = chip.id;
  record.job_id = job.id;
  record.dispatch_seconds = job.dispatch_seconds;
  record.completion_seconds = now_;
  state.hedge_won = state.hedged && chip.id == state.hedge_chip;
  ++chip.ledger.requests_completed;
  ++result_.completed;
  if (latency_ != nullptr) latency_->observe(record.latency_seconds());
  if (state.hedge_won) {
    ++result_.hedge_wins;
    log("hedge_win", chip.id, request_text(request_id));
  }
  // Cancel the losing twin while it still sits in a queue (a running loser
  // is wasted work we cannot take back).
  if (state.copies > 0) {
    for (ChipRuntime& other : chips_) {
      if (other.id == chip.id || other.crashed) continue;
      if (other.queue.erase(request_id)) {
        --other.outstanding;
        --state.copies;
      }
    }
  }
  // Drop any still-pending hedge timer for this request so an idle tail of
  // the run never waits on it (only hedging schedules them).
  if (!hedging_) return;
  for (auto it = timers_.begin(); it != timers_.end();) {
    if (it->kind == TimerKind::kHedge && it->aux == request_id) {
      it = timers_.erase(it);
    } else {
      ++it;
    }
  }
}

/// A whole job on `chip` ended at now_: deliver or fail its requests.
void ServingLoop::finish(ChipRuntime& chip, int job_id) {
  ActiveJob job = std::move(chip.active.at(job_id));
  chip.active.erase(job_id);
  chip.partitioner.release(job.record.cores);
  if (job.will_fail) {
    fail_job(chip, "job_failure",
             job_text(job_id) + " requests " + std::to_string(job.request_ids.size()));
    // A stale copy failing after the request completed elsewhere must not
    // re-attribute the record to this chip.
    for (const int request_id : job.request_ids) drop_copy(chip, request_id, "job_failed");
    return;
  }

  // Result integrity: act on the ABFT classification decided at dispatch.
  // A corrupted result that is not delivered is a failed job from the
  // chip's perspective, so it feeds the circuit breaker like any other
  // failure (a half-open probe must always resolve) -- and, separately,
  // every *detected* corruption feeds the chip's quarantine ledger.
  const integrity::Outcome outcome = job.record.sdc_outcome;
  if (outcome != integrity::Outcome::kClean) ++result_.sdc_corrupted;
  if (outcome == integrity::Outcome::kCorrected || outcome == integrity::Outcome::kDetected ||
      outcome == integrity::Outcome::kUnrecoverable) {
    ++chip.ledger.sdc_detected;
    ++result_.sdc_detected;
  }
  switch (outcome) {
    case integrity::Outcome::kClean:
      break;
    case integrity::Outcome::kSilent:
      // Undetected: the corrupted product is delivered as if clean.
      if (job.sdc_significant) {
        ++chip.ledger.sdc_escapes;
        ++result_.sdc_escapes;
        log("sdc_escape", chip.id, job_text(job_id) + " corrupted result delivered");
      }
      break;
    case integrity::Outcome::kCorrected:
      // Detect fired, the same-chip recompute verified clean; the extra
      // product was priced into the job at dispatch. Deliver.
      ++chip.ledger.sdc_corrected;
      ++result_.sdc_corrected;
      log("sdc_corrected", chip.id, job_text(job_id) + " recompute verified clean");
      maybe_quarantine(chip);
      break;
    case integrity::Outcome::kDetected:
      // Detect-only mode: the batch is not delivered; its requests reroute
      // to another replica through the retry path.
      fail_job(chip, "sdc_detected",
               job_text(job_id) + " requests " + std::to_string(job.request_ids.size()) +
                   " rerouting");
      maybe_quarantine(chip);
      for (const int request_id : job.request_ids) drop_copy(chip, request_id, "sdc_detected");
      return;
    case integrity::Outcome::kUnrecoverable:
      // Correct mode, and the same-chip recompute was corrupted again
      // (sticky bad DRAM). With a replica to flee to this is terminal: the
      // batch dead-letters under the conservation law unless a hedge twin
      // is still in flight. A lone chip has none, so it delivers the
      // product flagged.
      ++chip.ledger.sdc_unrecoverable;
      ++result_.sdc_unrecoverable;
      if (chips_.size() == 1) {
        log("sdc_unrecoverable", chip.id,
            job_text(job_id) + " recompute corrupted again, delivered flagged");
        maybe_quarantine(chip);
        break;
      }
      fail_job(chip, "sdc_unrecoverable", job_text(job_id) + " recompute corrupted again");
      maybe_quarantine(chip);
      for (const int request_id : job.request_ids) {
        --chip.outstanding;
        RequestState& state = states_[static_cast<std::size_t>(request_id)];
        --state.copies;
        if (state.outcome == Outcome::kPending) {
          state.chip = chip.id;
          if (state.copies == 0) dead_letter(request_id, "sdc_unrecoverable");
        }
      }
      return;
  }

  ++chip.ledger.jobs_completed;
  const bool was_half_open = chip.breaker.state() == CircuitBreaker::State::kHalfOpen;
  chip.breaker.on_success();
  if (was_half_open) log("breaker_close", chip.id, "probe succeeded");
  for (const int request_id : job.request_ids) {
    --chip.outstanding;
    RequestState& state = states_[static_cast<std::size_t>(request_id)];
    --state.copies;
    if (state.outcome == Outcome::kPending) complete_request(chip, request_id, job.record);
  }
  job.record.completion_seconds = now_;
  if (observer_ != nullptr) observer_->delivered(job.record, job.request_ids);
}

/// The failure detector declared `chip` dead: evacuate everything.
void ServingLoop::evacuate(ChipRuntime& chip) {
  while (!chip.queue.empty()) drop_copy(chip, chip.queue.pop().id, "chip_crashed");
  for (const auto& [job_id, job] : chip.active) {
    for (const int request_id : job.request_ids) {
      drop_copy(chip, request_id, "chip_crashed", Attribution::kAlways);
    }
  }
  chip.active.clear();
  chip.tracker.clear();
}

void ServingLoop::kill_tile(ChipRuntime& chip, int core) {
  ++result_.tile_kills;
  chip.partitioner.retire(core);
  chip.retired_cores.insert(core);  // hardware: survives chip restarts
  // Restate the job running on the killed core (if any) to its degraded
  // timing: survivors redo the product, the repartition cost is charged to
  // the job (sim::Engine's dead-rank protocol via the service model).
  const auto hit = std::find_if(chip.active.begin(), chip.active.end(), [&](const auto& entry) {
    const std::vector<int>& cores = entry.second.record.cores;
    return std::find(cores.begin(), cores.end(), core) != cores.end();
  });
  const std::string killed = "core " + std::to_string(core);
  if (hit == chip.active.end()) {
    log("tile_kill", chip.id, killed + " idle");
    return;
  }
  const int hit_job = hit->first;
  const ActiveJob& job = hit->second;
  if (job.record.cores.size() == 1) {
    // No survivor: the job is lost, its requests retry elsewhere.
    chip.tracker.drop(hit_job);
    chip.partitioner.release(job.record.cores);
    fail_job(chip, "tile_kill", killed + " " + job_text(hit_job) + " lost (sole core)");
    const std::vector<int> request_ids = job.request_ids;
    chip.active.erase(hit);
    for (const int request_id : request_ids) {
      drop_copy(chip, request_id, "tile_killed", Attribution::kAlways);
    }
    return;
  }
  double remaining = 0.0;
  for (const serve::ContendingJob& tracked : chip.tracker.jobs()) {
    if (tracked.id == hit_job) remaining = tracked.remaining_seconds;
  }
  if (remaining <= kEpsilonSeconds) {
    // The job is completing this very instant; let it finish healthy.
    log("tile_kill", chip.id, killed + " " + job_text(hit_job) + " already done");
    return;
  }
  // Base the restatement ratio on the timing the job was actually priced
  // with (a cold job degrades from its cold figure, a tuned job from its
  // tuned plan; the degraded timing itself stays the warm CSR protocol --
  // the survivors' redo re-ships CSR blocks whatever the plan was, so the
  // steady-state CSR figure is the better model).
  const int matrix_id = job.record.matrix_id;
  const std::vector<int>& cores = job.record.cores;
  const serve::JobTiming& healthy = job.cold ? model_.cold_timing(matrix_id, cores, job.plan)
                                             : model_.timing(matrix_id, cores, job.plan);
  const serve::JobTiming& degraded = model_.degraded_timing(matrix_id, cores, core);
  const double ratio = healthy.product_seconds > 0.0
                           ? degraded.product_seconds / healthy.product_seconds
                           : 1.0;
  const double restated = remaining * ratio + degraded.recovery_seconds;
  chip.tracker.restate(hit_job, degraded.beta, restated);
  log("tile_kill", chip.id,
      killed + " " + job_text(hit_job) + " degraded x" + std::to_string(ratio));
}

void ServingLoop::fire(const Timer& timer) {
  switch (timer.kind) {
    case TimerKind::kCrash: {
      ChipRuntime& chip = chips_[static_cast<std::size_t>(timer.chip)];
      if (chip.crashed) break;  // a crash on a dead chip changes nothing
      chip.crashed = true;
      ++result_.chip_crashes;
      log("chip_crash", chip.id, "jobs in flight " + std::to_string(chip.active.size()));
      // Detector timers are stamped with the chip's incarnation so a
      // restart-before-dead race cannot evacuate the chip's next life.
      const FailureDeadlines deadlines = detection_deadlines(config_.detector, now_);
      schedule(deadlines.suspect_seconds, TimerKind::kSuspect, chip.id, chip.incarnation, 0.0);
      schedule(deadlines.dead_seconds, TimerKind::kDead, chip.id, chip.incarnation, 0.0);
      const double downtime = oracle_.restart_downtime(chip.id, chip.incarnation);
      if (downtime > 0.0) schedule(now_ + downtime, TimerKind::kRestart, chip.id, -1, 0.0);
      break;
    }
    case TimerKind::kSuspect: {
      ChipRuntime& chip = chips_[static_cast<std::size_t>(timer.chip)];
      if (!chip.crashed || timer.aux != chip.incarnation) break;  // stale
      if (chip.health == HealthState::kDead) break;
      chip.health = HealthState::kSuspect;
      log("chip_suspect", chip.id, "missed heartbeats");
      break;
    }
    case TimerKind::kDead: {
      ChipRuntime& chip = chips_[static_cast<std::size_t>(timer.chip)];
      if (!chip.crashed || timer.aux != chip.incarnation) break;  // stale
      chip.health = HealthState::kDead;
      log("chip_dead", chip.id, "evacuating " + std::to_string(chip.outstanding) + " requests");
      evacuate(chip);
      break;
    }
    case TimerKind::kRestart: {
      ChipRuntime& chip = chips_[static_cast<std::size_t>(timer.chip)];
      if (!chip.crashed) break;  // restarting an alive chip is moot
      // Whatever the power cycle took with it is lost now even if the
      // detector had not yet declared the chip dead.
      if (chip.health != HealthState::kDead) evacuate(chip);
      chip.restart(config_);
      ++result_.restarts;
      log("chip_restart", chip.id,
          "incarnation " + std::to_string(chip.incarnation) + ", probation");
      schedule(rejoin_deadline(config_.detector, now_), TimerKind::kRejoined, chip.id,
               chip.incarnation, 0.0);
      break;
    }
    case TimerKind::kRejoined: {
      ChipRuntime& chip = chips_[static_cast<std::size_t>(timer.chip)];
      // A chip that flapped again during probation never rejoins this
      // incarnation; the stale timer is dropped here.
      if (chip.crashed || timer.aux != chip.incarnation) break;
      if (chip.health != HealthState::kRejoining) break;
      chip.health = HealthState::kHealthy;
      ++result_.rejoins;
      log("chip_rejoined", chip.id, "probation passed");
      break;
    }
    case TimerKind::kDomainOutage: {
      std::ostringstream detail;
      detail << "domain " << timer.aux << " chips";
      for (const int victim : domain_chips(config_.faults, timer.aux, config_.chip_count)) {
        detail << " " << victim;
      }
      ++result_.domain_outages;
      log("domain_outage", -1, detail.str());
      break;
    }
    case TimerKind::kTileKill: {
      ChipRuntime& chip = chips_[static_cast<std::size_t>(timer.chip)];
      if (!chip.crashed) kill_tile(chip, timer.aux);
      break;
    }
    case TimerKind::kBrownoutStart: {
      ChipRuntime& chip = chips_[static_cast<std::size_t>(timer.chip)];
      if (chip.crashed) break;
      chip.tracker.set_mc_derate(timer.aux, timer.value);
      ++result_.brownouts;
      log("brownout_start", chip.id,
          "mc " + std::to_string(timer.aux) + " derate " + std::to_string(timer.value));
      break;
    }
    case TimerKind::kBrownoutEnd: {
      ChipRuntime& chip = chips_[static_cast<std::size_t>(timer.chip)];
      if (chip.crashed) break;
      chip.tracker.set_mc_derate(timer.aux, 1.0);
      log("brownout_end", chip.id, "mc " + std::to_string(timer.aux));
      break;
    }
    case TimerKind::kRetry: {
      --pending_retries_;
      const int request_id = timer.aux;
      RequestState& state = states_[static_cast<std::size_t>(request_id)];
      if (state.outcome != Outcome::kPending) break;
      const serve::Request& request = records_[static_cast<std::size_t>(request_id)].request;
      int target = route_for(request, /*exclude_tried=*/true);
      // Every untried chip is unroutable; allow falling back to a
      // previously tried (still live) chip before giving up.
      if (target < 0) target = route_for(request, /*exclude_tried=*/false);
      if (target < 0) {
        dead_letter(request_id, "all_chips_unroutable");
        break;
      }
      ++state.attempts;
      ++result_.retries;
      const bool failed_over = target != state.last_chip;
      if (offer_to(chips_[static_cast<std::size_t>(target)], request)) {
        if (failed_over) {
          ++state.failovers;
          ++result_.failovers;
          log("failover", target,
              request_text(request_id) + " from chip " + std::to_string(state.chip));
        }
      } else {
        // The retry target's queue is full: that attempt is spent.
        state.chip = target;
        consider_recovery(request_id, "queue_full");
      }
      break;
    }
    case TimerKind::kHedge: {
      const int request_id = timer.aux;
      RequestState& state = states_[static_cast<std::size_t>(request_id)];
      // Hedge only a request that is still pending on its first chip; a
      // failed copy is the retry path's business.
      if (state.outcome != Outcome::kPending || state.copies == 0) break;
      if (state.hedge_chip >= 0) break;
      const serve::Request& request = records_[static_cast<std::size_t>(request_id)].request;
      const int target = route_for(request, /*exclude_tried=*/true);
      if (target < 0) break;
      if (offer_to(chips_[static_cast<std::size_t>(target)], request)) {
        state.hedged = true;
        state.hedge_chip = target;
        ++result_.hedges;
        log("hedge", target, request_text(request_id));
      }
      break;
    }
  }
}

void ServingLoop::arrive(const serve::Request& request) {
  RequestState& state = states_[static_cast<std::size_t>(request.id)];
  bool admitted = false;
  while (true) {
    const int target = route_for(request, /*exclude_tried=*/true);
    if (target < 0) break;
    state.chip = target;
    state.attempts = 1;
    if (offer_to(chips_[static_cast<std::size_t>(target)], request)) {
      admitted = true;
      break;
    }
    tried(request.id, target) = 1;  // queue full: spill to the next chip
    if (!config_.failover) break;
  }
  if (!admitted) {
    state.outcome = Outcome::kRejected;
    records_[static_cast<std::size_t>(request.id)].rejected = true;
    ++result_.rejected;
    if (observer_ != nullptr) observer_->rejected(request);
  } else if (hedging_ && request.cls == serve::RequestClass::kInteractive) {
    schedule(now_ + config_.hedge.delay_seconds, TimerKind::kHedge, -1, request.id, 0.0);
  }
}

void ServingLoop::advance_to(double seconds) {
  const double dt = seconds - now_;
  for (ChipRuntime& chip : chips_) {
    if (!chip.crashed) chip.tracker.advance(dt);
  }
  now_ = seconds;
}

std::vector<ClusterRequestRecord> ServingLoop::cluster_records() const {
  std::vector<ClusterRequestRecord> out(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const RequestState& state = states_[i];
    ClusterRequestRecord& record = out[i];
    record.request = records_[i].request;
    record.outcome = state.outcome;
    record.chip = state.chip;
    record.attempts = state.attempts;
    record.failovers = state.failovers;
    record.hedged = state.hedged;
    record.hedge_won = state.hedge_won;
    record.reshipped = state.reshipped;
    record.cold = state.cold;
    if (state.dead_letter_reason != nullptr) record.dead_letter_reason = state.dead_letter_reason;
    record.dispatch_seconds = records_[i].dispatch_seconds;
    record.completion_seconds = records_[i].completion_seconds;
  }
  return out;
}

ClusterResult ServingLoop::run(const std::vector<serve::Request>& requests,
                               obs::Recorder* recorder, LoopObserver* observer) {
  recorder_ = recorder;
  observer_ = observer;
  keep_log_ = observer == nullptr;
  records_.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    SCC_REQUIRE(requests[i].id == static_cast<int>(i), "request ids must be dense 0..n-1");
    SCC_REQUIRE(i == 0 || requests[i - 1].arrival_seconds <= requests[i].arrival_seconds,
                "requests must be sorted by arrival time");
    records_[i].request = requests[i];
  }
  states_.assign(requests.size(), RequestState{});
  tried_.assign(requests.size() * chips_.size(), 0);
  // The tuner outlives runs (cache hits accrue across them): the result
  // carries this run's deltas only.
  const tune::Autotuner::Counters tuning_before =
      tuner_ != nullptr ? tuner_->counters() : tune::Autotuner::Counters{};
  const std::size_t tuning_log_before = tuner_ != nullptr ? tuner_->log().size() : 0;

  // Initial placement: each matrix of the workload lands on `replicas`
  // chips starting at (matrix id mod chip count). Initially resident
  // matrices are warm (the steady-state assumption); anything else must be
  // re-shipped -- and arrives cold -- before a chip may serve it. With
  // replicas <= 0 (or a single chip) every chip holds everything: the
  // free-movement model.
  const int chip_count = config_.chip_count;
  const int replicas = config_.placement.replicas <= 0
                           ? chip_count
                           : std::min(config_.placement.replicas, chip_count);
  std::set<int> matrices;
  for (const serve::Request& request : requests) matrices.insert(request.matrix_id);
  for (const int matrix_id : matrices) {
    for (int r = 0; r < replicas; ++r) {
      chips_[static_cast<std::size_t>((matrix_id % chip_count + r) % chip_count)].placed.insert(
          matrix_id);
    }
  }

  // Build the timer wheel from the fault plan. Domain-outage markers are
  // inserted before the crash list so the correlated event logs ahead of
  // the per-chip crashes it expands to (same instant, inserted first).
  for (const DomainOutage& outage : config_.faults.domain_outages) {
    if (domain_chips(config_.faults, outage.domain, chip_count).empty()) continue;
    schedule(outage.seconds, TimerKind::kDomainOutage, -1, outage.domain, 0.0);
  }
  for (const ChipCrash& crash : oracle_.crashes(chip_count)) {
    schedule(crash.seconds, TimerKind::kCrash, crash.chip, -1, 0.0);
  }
  for (const ChipRestart& restart : oracle_.restarts(chip_count)) {
    schedule(restart.seconds, TimerKind::kRestart, restart.chip, -1, 0.0);
  }
  for (const TileKill& kill : config_.faults.tile_kills) {
    if (kill.chip < 0 || kill.chip >= chip_count) continue;
    SCC_REQUIRE(kill.core >= 0 && kill.core < chip::kCoreCount, "tile kill core out of range");
    schedule(kill.seconds, TimerKind::kTileKill, kill.chip, kill.core, 0.0);
  }
  for (const Brownout& brownout : oracle_.brownout_windows(chip_count)) {
    SCC_REQUIRE(brownout.mc >= 0 && brownout.mc < chip::kMemoryControllerCount,
                "brownout mc out of range");
    schedule(brownout.start_seconds, TimerKind::kBrownoutStart, brownout.chip, brownout.mc,
             brownout.derate);
    schedule(brownout.start_seconds + brownout.duration_seconds, TimerKind::kBrownoutEnd,
             brownout.chip, brownout.mc, 1.0);
  }

  std::size_t next_arrival = 0;
  while (true) {
    const bool copies_outstanding =
        std::any_of(chips_.begin(), chips_.end(),
                    [](const ChipRuntime& chip) { return chip.outstanding > 0; });
    if (next_arrival >= requests.size() && !copies_outstanding && pending_retries_ == 0) {
      break;  // every request resolved; leftover fault timers are moot
    }

    const double arrival_time =
        next_arrival < requests.size() ? requests[next_arrival].arrival_seconds : kInfinity;
    const double timer_time = timers_.empty() ? kInfinity : timers_.begin()->seconds;
    double completion_time = kInfinity;
    ChipRuntime* completion_chip = nullptr;
    int completion_job = -1;
    for (ChipRuntime& chip : chips_) {
      if (chip.crashed || chip.tracker.empty()) continue;
      const serve::ContentionTracker::Completion next = chip.tracker.next_completion();
      const double t = now_ + next.delay_seconds;
      if (t < completion_time) {
        completion_time = t;
        completion_chip = &chip;
        completion_job = next.id;
      }
    }
    SCC_REQUIRE(arrival_time < kInfinity || timer_time < kInfinity ||
                    completion_time < kInfinity,
                "cluster simulation stalled with unresolved requests");

    // Tie order: timers (faults/detector/retries) strictly before
    // completions, completions before arrivals so a simultaneous arrival
    // sees the freed cores and the shortened queue. A zero-fault run has no
    // timers.
    if (timer_time <= completion_time && timer_time <= arrival_time) {
      const Timer timer = *timers_.begin();
      timers_.erase(timers_.begin());
      advance_to(timer.seconds);
      fire(timer);
    } else if (completion_time <= arrival_time) {
      advance_to(completion_time);
      completion_chip->tracker.remove(completion_job);
      finish(*completion_chip, completion_job);
    } else {
      advance_to(arrival_time);
      arrive(requests[next_arrival++]);
    }
    for (ChipRuntime& chip : chips_) dispatch(chip);
  }

  assemble(requests.size());
  if (tuner_ != nullptr) {
    const tune::Autotuner::Counters after = tuner_->counters();
    serve::TuningSummary& tuning = result_.tuning;
    tuning.enabled = true;
    tuning.cache_hits = after.cache_hits - tuning_before.cache_hits;
    tuning.predicted = after.predicted - tuning_before.predicted;
    tuning.explored = after.explored - tuning_before.explored;
    tuning.explore_runs = after.explore_runs - tuning_before.explore_runs;
    tuning.explore_seconds = after.explore_seconds - tuning_before.explore_seconds;
    const auto& decisions = tuner_->log();
    tuning.decisions.assign(decisions.begin() + static_cast<std::ptrdiff_t>(tuning_log_before),
                            decisions.end());
  }
  record_run_cache_stats(pool_, recorder_);
  return std::move(result_);
}

void ServingLoop::assemble(std::size_t request_count) {
  SCC_REQUIRE(result_.completed + result_.rejected + result_.dead_lettered ==
                  static_cast<int>(request_count),
              "request conservation violated: " << result_.completed << " completed + "
                                                << result_.rejected << " rejected + "
                                                << result_.dead_lettered
                                                << " dead-lettered != " << request_count);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    SCC_REQUIRE(states_[i].outcome != Outcome::kDeadLettered ||
                    states_[i].dead_letter_reason != nullptr,
                "dead-lettered request " << i << " has no terminal reason");
  }

  result_.makespan_seconds = now_;
  result_.throughput_rps = result_.makespan_seconds > 0.0
                               ? static_cast<double>(result_.completed) / result_.makespan_seconds
                               : 0.0;
  result_.availability = request_count == 0 ? 1.0
                                            : static_cast<double>(result_.completed) /
                                                  static_cast<double>(request_count);

  for (const ChipRuntime& chip : chips_) {
    ChipSummary summary = chip.ledger;
    summary.chip = chip.id;
    summary.crashed = chip.crashed;
    summary.state =
        chip.crashed && !summary.quarantined ? HealthState::kDead : chip.view_state();
    summary.retired_cores = chip.partitioner.retired_core_count();
    summary.breaker_trips += chip.breaker.trip_count();
    summary.placement.assign(chip.placed.begin(), chip.placed.end());
    result_.breaker_trips += summary.breaker_trips;
    result_.chips.push_back(std::move(summary));
  }

  std::vector<double> total;
  std::vector<double> interactive;
  std::vector<double> batch;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (states_[i].outcome != Outcome::kCompleted) continue;
    const serve::RequestRecord& record = records_[i];
    total.push_back(record.latency_seconds());
    (record.request.cls == serve::RequestClass::kInteractive ? interactive : batch)
        .push_back(record.latency_seconds());
  }
  result_.latency_total = serve::summarize_latencies(total);
  result_.latency_interactive = serve::summarize_latencies(interactive);
  result_.latency_batch = serve::summarize_latencies(batch);

  if (metrics_ == nullptr) return;
  // Counters are order-free, so the run's totals are read off the result.
  const auto count = [](int n) { return static_cast<std::uint64_t>(n); };
  obs::Registry& m = *metrics_;
  m.counter("cluster.requests_total").add(request_count);
  m.counter("cluster.completed_total").add(count(result_.completed));
  m.counter("cluster.rejected_total").add(count(result_.rejected));
  m.counter("cluster.dead_lettered_total").add(count(result_.dead_lettered));
  m.counter("cluster.deadline_expired").add(count(result_.deadline_expired));
  m.counter("cluster.retries_total").add(count(result_.retries));
  m.counter("cluster.failovers_total").add(count(result_.failovers));
  m.counter("cluster.hedges_total").add(count(result_.hedges));
  m.counter("cluster.hedge_wins_total").add(count(result_.hedge_wins));
  m.counter("cluster.chip_crashes_total").add(count(result_.chip_crashes));
  m.counter("cluster.tile_kills_total").add(count(result_.tile_kills));
  m.counter("cluster.breaker_trips_total").add(count(result_.breaker_trips));
  m.counter("cluster.rejoin_restarts_total").add(count(result_.restarts));
  m.counter("cluster.rejoin_completed_total").add(count(result_.rejoins));
  m.counter("cluster.rejoin_cold_runs_total").add(count(result_.cold_runs));
  m.counter("cluster.reship_jobs_total").add(count(result_.reships));
  m.counter("cluster.reship_bytes_total");
  m.counter("cluster.domain_outages_total").add(count(result_.domain_outages));
  m.counter("cluster.quarantines_total").add(count(result_.quarantines));
  m.counter("integrity.sdc_corrupted_total").add(count(result_.sdc_corrupted));
  m.counter("integrity.sdc_detected_total").add(count(result_.sdc_detected));
  m.counter("integrity.sdc_corrected_total").add(count(result_.sdc_corrected));
  m.counter("integrity.sdc_unrecoverable_total").add(count(result_.sdc_unrecoverable));
  m.counter("integrity.sdc_escapes_total").add(count(result_.sdc_escapes));
  m.gauge("cluster.availability").set(result_.availability);
  m.gauge("cluster.throughput_rps").set(result_.throughput_rps);
  m.gauge("cluster.makespan_seconds").set(result_.makespan_seconds);
}

}  // namespace scc::cluster
