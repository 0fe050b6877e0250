#include "serve/simulator.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"
#include "scc/mapping.hpp"
#include "serve/contention.hpp"

namespace scc::serve {

LatencySummary summarize_latencies(std::vector<double>& latencies) {
  LatencySummary summary;
  summary.count = latencies.size();
  if (latencies.empty()) return summary;
  summary.mean = mean(latencies);  // before sorting: keeps the summation order
  std::sort(latencies.begin(), latencies.end());
  summary.p50 = percentile_sorted(latencies, 50.0);
  summary.p95 = percentile_sorted(latencies, 95.0);
  summary.p99 = percentile_sorted(latencies, 99.0);
  return summary;
}

Simulator::Simulator(ServeConfig config, MatrixPool& pool)
    : config_(config), pool_(pool), model_(config.engine, pool, config.verify) {
  SCC_REQUIRE(config_.batch_max >= 1, "batch_max must be >= 1");
  if (config_.autotune) {
    tuner_ = std::make_unique<tune::Autotuner>(config_.engine, config_.tuning,
                                               pool.tuning_cache(config_.tuning.cache),
                                               pool.run_cache());
  }
}

ServeResult Simulator::run(const std::vector<Request>& requests, obs::Recorder* recorder) {
  metrics_ = std::make_unique<obs::Registry>();
  obs::Counter& requests_total = metrics_->counter("serve.requests_total");
  obs::Counter& rejected_total = metrics_->counter("serve.rejected_total");
  obs::Counter& deadline_expired_total = metrics_->counter("serve.deadline_expired");
  obs::Counter& completed_total = metrics_->counter("serve.completed_total");
  obs::Counter& jobs_total = metrics_->counter("serve.jobs_total");
  obs::Counter& batched_total = metrics_->counter("serve.batched_requests_total");
  obs::Counter& slo_violations_total = metrics_->counter("serve.slo_violations_total");
  obs::Histogram& latency_hist =
      metrics_->histogram("serve.latency_seconds", obs::Histogram::seconds_buckets());
  obs::Histogram& queue_delay_hist =
      metrics_->histogram("serve.queue_delay_seconds", obs::Histogram::seconds_buckets());
  obs::Histogram& service_hist =
      metrics_->histogram("serve.job_service_seconds", obs::Histogram::seconds_buckets());
  obs::Gauge& queue_depth_gauge = metrics_->gauge("serve.max_queue_depth");
  obs::Counter& sdc_corrupted_total = metrics_->counter("integrity.sdc_corrupted_total");
  obs::Counter& sdc_retries_total = metrics_->counter("integrity.sdc_retries_total");
  obs::Counter& sdc_corrected_total = metrics_->counter("integrity.sdc_corrected_total");
  obs::Counter& sdc_unrecoverable_total =
      metrics_->counter("integrity.sdc_unrecoverable_total");
  obs::Counter& sdc_escapes_total = metrics_->counter("integrity.sdc_escapes_total");

  ServeResult result;
  result.records.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    SCC_REQUIRE(requests[i].id == static_cast<int>(i), "request ids must be dense 0..n-1");
    SCC_REQUIRE(i == 0 || requests[i - 1].arrival_seconds <= requests[i].arrival_seconds,
                "requests must be sorted by arrival time");
    result.records[i].request = requests[i];
  }

  AdmissionQueue queue(config_.admission);
  ChipPartitioner partitioner(config_.policy, config_.partition);
  ContentionTracker tracker;

  // Snapshot the tuner's counters/log so the result carries this run's
  // deltas only (the tuner outlives runs: cache hits accrue across them).
  const tune::Autotuner::Counters tuning_before =
      tuner_ != nullptr ? tuner_->counters() : tune::Autotuner::Counters{};
  const std::size_t tuning_log_before = tuner_ != nullptr ? tuner_->log().size() : 0;

  struct ActiveJob {
    std::vector<int> request_ids;
    std::size_t job_index = 0;  ///< into result.jobs
  };
  std::map<int, ActiveJob> active;
  std::size_t next_arrival = 0;
  double now = 0.0;
  int next_job_id = 0;
  constexpr double kInfinity = std::numeric_limits<double>::infinity();

  const auto dispatch = [&] {
    // Shed queued requests whose deadline already passed: dispatching them
    // would spend chip time on a guaranteed SLO miss (the bugfix the
    // old pop path lacked -- they used to run and count as violations).
    for (const Request& expired : queue.take_expired(now)) {
      result.records[static_cast<std::size_t>(expired.id)].deadline_expired = true;
      ++result.deadline_expired;
      deadline_expired_total.add();
      if (recorder != nullptr) {
        recorder->event("serve.deadline_expired", {{"request", std::to_string(expired.id)},
                                                   {"class", to_string(expired.cls)}});
      }
    }
    while (!queue.empty()) {
      const Request& head = queue.front();
      const testbed::SuiteEntry& entry = pool_.entry(head.matrix_id);
      const JobShape shape{entry.matrix.rows(), entry.matrix.nnz(), entry.working_set};
      JobPlan plan;
      int preferred_cores = 0;
      if (tuner_ != nullptr) {
        const tune::TuningDecision decision = tuner_->decide(entry.matrix, head.matrix_id);
        plan.format = decision.choice.format;
        plan.reorder = decision.choice.reorder;
        preferred_cores = decision.choice.ue_count;
      }
      std::vector<int> cores = partitioner.try_allocate(shape, preferred_cores);
      if (cores.empty()) return;  // head-of-line blocks: FIFO within class

      std::vector<Request> batch;
      batch.push_back(queue.pop());
      if (config_.batching) {
        for (Request& extra : queue.take_matching(batch.front().matrix_id,
                                                  config_.batch_max - 1)) {
          batch.push_back(std::move(extra));
        }
      }

      const JobTiming& cached = model_.timing(batch.front().matrix_id, cores, plan);

      // Result integrity: seeded corruption per job id, classified outside
      // the RunCache (the memoized timing above stays corruption-free) so
      // outcomes are identical across cache modes and thread counts. A
      // failed verification is retried once on this chip -- the serving
      // policy of the single-chip layer -- which shows up as one extra
      // product in the service time.
      integrity::VerifyReport sdc_report;
      if (!config_.sdc.empty()) {
        const auto site = static_cast<std::uint64_t>(next_job_id);
        const integrity::SdcOracle oracle(config_.sdc);
        if (oracle.corrupts(site, 0)) {
          const integrity::VerifyMode effective =
              config_.verify == integrity::VerifyMode::kOff ? integrity::VerifyMode::kOff
                                                            : integrity::VerifyMode::kCorrect;
          sdc_report =
              integrity::run_verification(pool_.entry(batch.front().matrix_id).matrix,
                                          effective, &oracle, site);
        }
      }
      const double recompute =
          static_cast<double>(sdc_report.attempts - 1) * cached.product_seconds;

      const auto k = static_cast<double>(batch.size());
      const double service = cached.load_seconds + k * cached.product_seconds + recompute;
      const double beta = (cached.load_seconds +
                           (k * cached.product_seconds + recompute) * cached.beta) /
                          service;

      if (sdc_report.outcome != integrity::Outcome::kClean) {
        ++result.sdc_corrupted;
        sdc_corrupted_total.add();
        if (sdc_report.attempts > 1) {
          ++result.sdc_retries;
          sdc_retries_total.add();
        }
        switch (sdc_report.outcome) {
          case integrity::Outcome::kSilent:
            if (sdc_report.significant) {
              ++result.sdc_escapes;
              sdc_escapes_total.add();
            }
            break;
          case integrity::Outcome::kCorrected:
            ++result.sdc_corrected;
            sdc_corrected_total.add();
            break;
          case integrity::Outcome::kUnrecoverable:
            ++result.sdc_unrecoverable;
            sdc_unrecoverable_total.add();
            break;
          default:
            break;
        }
        if (recorder != nullptr) {
          recorder->event("serve.sdc",
                          {{"job", std::to_string(next_job_id)},
                           {"outcome", std::string(integrity::to_string(sdc_report.outcome))}});
        }
      }

      std::array<bool, chip::kMemoryControllerCount> uses_mc{};
      const auto by_mc = chip::cores_by_mc(cores);
      for (int mc = 0; mc < chip::kMemoryControllerCount; ++mc) {
        uses_mc[static_cast<std::size_t>(mc)] = !by_mc[static_cast<std::size_t>(mc)].empty();
      }

      JobRecord job;
      job.id = next_job_id++;
      job.matrix_id = batch.front().matrix_id;
      job.request_count = static_cast<int>(batch.size());
      job.cores = cores;
      job.dispatch_seconds = now;
      job.load_seconds = cached.load_seconds;
      job.product_seconds = cached.product_seconds;
      job.service_seconds = service;
      job.beta = beta;
      job.sdc_outcome = sdc_report.outcome;
      job.verify_attempts = sdc_report.attempts;

      ActiveJob active_job;
      active_job.job_index = result.jobs.size();
      for (const Request& request : batch) {
        result.records[static_cast<std::size_t>(request.id)].job_id = job.id;
        result.records[static_cast<std::size_t>(request.id)].dispatch_seconds = now;
        queue_delay_hist.observe(now - request.arrival_seconds);
        active_job.request_ids.push_back(request.id);
      }
      jobs_total.add();
      if (batch.size() > 1) batched_total.add(batch.size() - 1);
      service_hist.observe(service);
      result.jobs.push_back(std::move(job));
      tracker.add(result.jobs.back().id, uses_mc, beta, service);
      active.emplace(result.jobs.back().id, std::move(active_job));
    }
  };

  while (next_arrival < requests.size() || !tracker.empty()) {
    const double arrival_time =
        next_arrival < requests.size() ? requests[next_arrival].arrival_seconds : kInfinity;
    ContentionTracker::Completion completion{kInfinity, -1};
    if (!tracker.empty()) completion = tracker.next_completion();
    const double completion_time = tracker.empty() ? kInfinity : now + completion.delay_seconds;

    if (completion_time <= arrival_time) {
      // Completions first on ties so a simultaneous arrival sees the freed
      // cores and the shortened queue.
      tracker.advance(completion_time - now);
      now = completion_time;
      tracker.remove(completion.id);
      const ActiveJob& done = active.at(completion.id);
      JobRecord& job = result.jobs[done.job_index];
      job.completion_seconds = now;
      partitioner.release(job.cores);
      for (int mc = 0; mc < chip::kMemoryControllerCount; ++mc) {
        const bool used = std::any_of(job.cores.begin(), job.cores.end(), [&](int core) {
          return chip::memory_controller_of_core(core) == mc;
        });
        if (used) {
          result.mc_busy_seconds[static_cast<std::size_t>(mc)] +=
              job.completion_seconds - job.dispatch_seconds;
        }
      }
      for (const int request_id : done.request_ids) {
        RequestRecord& record = result.records[static_cast<std::size_t>(request_id)];
        record.completion_seconds = now;
        ++result.completed;
        completed_total.add();
        latency_hist.observe(record.latency_seconds());
        if (!record.slo_met()) {
          ++result.slo_violations;
          slo_violations_total.add();
        }
      }
      if (recorder != nullptr) {
        recorder->span("serve.job", job.dispatch_seconds,
                       job.completion_seconds - job.dispatch_seconds,
                       {{"matrix", std::to_string(job.matrix_id)},
                        {"requests", std::to_string(job.request_count)},
                        {"cores", std::to_string(job.cores.size())}});
      }
      active.erase(completion.id);
    } else {
      tracker.advance(arrival_time - now);
      now = arrival_time;
      const Request& request = requests[next_arrival++];
      requests_total.add();
      if (!queue.offer(request)) {
        result.records[static_cast<std::size_t>(request.id)].rejected = true;
        ++result.rejected;
        rejected_total.add();
        if (recorder != nullptr) {
          recorder->event("serve.rejected", {{"request", std::to_string(request.id)},
                                             {"class", to_string(request.cls)}});
        }
      }
    }
    dispatch();
  }

  SCC_REQUIRE(queue.empty(), "simulation ended with queued requests (dispatch deadlock)");
  SCC_REQUIRE(result.completed + result.rejected + result.deadline_expired ==
                  static_cast<int>(requests.size()),
              "request conservation violated: " << result.completed << " completed + "
                                                << result.rejected << " rejected + "
                                                << result.deadline_expired << " expired != "
                                                << requests.size());
  result.makespan_seconds = now;
  result.max_queue_depth = queue.max_depth_seen();
  queue_depth_gauge.set(static_cast<double>(result.max_queue_depth));
  result.throughput_rps =
      result.makespan_seconds > 0.0
          ? static_cast<double>(result.completed) / result.makespan_seconds
          : 0.0;

  std::vector<double> total;
  std::vector<double> interactive;
  std::vector<double> batch;
  for (const RequestRecord& record : result.records) {
    if (record.rejected || record.deadline_expired) continue;
    total.push_back(record.latency_seconds());
    (record.request.cls == RequestClass::kInteractive ? interactive : batch)
        .push_back(record.latency_seconds());
  }
  result.latency_total = summarize_latencies(total);
  result.latency_interactive = summarize_latencies(interactive);
  result.latency_batch = summarize_latencies(batch);
  metrics_->gauge("serve.throughput_rps").set(result.throughput_rps);
  metrics_->gauge("serve.makespan_seconds").set(result.makespan_seconds);
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

}  // namespace scc::serve
