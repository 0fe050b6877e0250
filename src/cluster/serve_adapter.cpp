// serve::Simulator: the single-chip serving front end, run as a one-chip,
// fault-free cluster. The shared loop (cluster/serving_loop.hpp) does the
// serving; this file maps its outcome onto ServeResult and the serve.*
// metrics and trace events.
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/serving_loop.hpp"
#include "obs/trace.hpp"
#include "scc/mapping.hpp"
#include "serve/simulator.hpp"

namespace scc::serve {

namespace {

/// Builds serve's job list, MC occupancy, histograms and trace events from
/// the loop's events, in the order the loop emits them: queue-delay and
/// service histograms in dispatch order (batch order within a job), latency
/// histogram and MC busy time in completion order.
class ServeObserver final : public cluster::LoopObserver {
 public:
  ServeObserver(const std::vector<Request>& requests, obs::Registry& metrics,
                obs::Recorder* recorder)
      : requests_(requests),
        recorder_(recorder),
        latency_(metrics.histogram("serve.latency_seconds", obs::Histogram::seconds_buckets())),
        queue_delay_(
            metrics.histogram("serve.queue_delay_seconds", obs::Histogram::seconds_buckets())),
        service_(
            metrics.histogram("serve.job_service_seconds", obs::Histogram::seconds_buckets())) {
    // Every job serves at least one request: no regrowth copies.
    result.jobs.reserve(requests.size());
  }

  void rejected(const Request& request) override { trace("serve.rejected", request); }
  void expired(const Request& request) override { trace("serve.deadline_expired", request); }

  void dispatched(const JobRecord& job, const std::vector<int>& request_ids) override {
    if (job.sdc_outcome != integrity::Outcome::kClean) {
      if (job.verify_attempts > 1) ++result.sdc_retries;
      if (recorder_ != nullptr) {
        recorder_->event("serve.sdc",
                         {{"job", std::to_string(job.id)},
                          {"outcome", std::string(integrity::to_string(job.sdc_outcome))}});
      }
    }
    for (const int request_id : request_ids) {
      queue_delay_.observe(job.dispatch_seconds - arrival(request_id));
    }
    service_.observe(job.service_seconds);
    result.jobs.push_back(job);
  }

  void delivered(const JobRecord& job, const std::vector<int>& request_ids) override {
    result.jobs[static_cast<std::size_t>(job.id)].completion_seconds = job.completion_seconds;
    std::array<bool, chip::kMemoryControllerCount> uses_mc{};
    for (const int core : job.cores) {
      uses_mc[static_cast<std::size_t>(chip::memory_controller_of_core(core))] = true;
    }
    for (std::size_t mc = 0; mc < uses_mc.size(); ++mc) {
      if (uses_mc[mc]) {
        result.mc_busy_seconds[mc] += job.completion_seconds - job.dispatch_seconds;
      }
    }
    for (const int request_id : request_ids) {
      const double latency = job.completion_seconds - arrival(request_id);
      latency_.observe(latency);
      if (latency > requests_[static_cast<std::size_t>(request_id)].slo_seconds) {
        ++result.slo_violations;
      }
    }
    if (recorder_ != nullptr) {
      recorder_->span("serve.job", job.dispatch_seconds,
                      job.completion_seconds - job.dispatch_seconds,
                      {{"matrix", std::to_string(job.matrix_id)},
                       {"requests", std::to_string(job.request_count)},
                       {"cores", std::to_string(job.cores.size())}});
    }
  }

  ServeResult result;

 private:
  double arrival(int request_id) const {
    return requests_[static_cast<std::size_t>(request_id)].arrival_seconds;
  }

  void trace(const char* name, const Request& request) {
    if (recorder_ == nullptr) return;
    recorder_->event(name, {{"request", std::to_string(request.id)},
                            {"class", to_string(request.cls)}});
  }

  const std::vector<Request>& requests_;
  obs::Recorder* recorder_;
  obs::Histogram& latency_;
  obs::Histogram& queue_delay_;
  obs::Histogram& service_;
};

}  // namespace

Simulator::Simulator(ServeConfig config, MatrixPool& pool)
    : config_(config), pool_(pool), model_(config.engine, pool, config.verify) {
  if (config_.autotune) {
    tuner_ = std::make_unique<tune::Autotuner>(config_.engine, config_.tuning,
                                               pool.tuning_cache(config_.tuning.cache),
                                               pool.run_cache());
  }
}

ServeResult Simulator::run(const std::vector<Request>& requests, obs::Recorder* recorder) {
  metrics_ = std::make_unique<obs::Registry>();
  cluster::ClusterConfig one_chip;
  one_chip.chip_count = 1;
  one_chip.chip = config_;
  one_chip.quarantine_threshold = 0;  // a lone chip has nothing to quarantine to
  const cluster::FaultOracle no_faults(one_chip.faults);
  ServeObserver observer(requests, *metrics_, recorder);
  // No cluster.* instruments: serve reports its own serve.* set.
  cluster::ServingLoop loop(one_chip, pool_, model_, no_faults, tuner_.get(), {config_.sdc},
                            /*metrics=*/nullptr);
  const cluster::ClusterResult run = loop.run(requests, recorder, &observer);

  ServeResult result = std::move(observer.result);
  result.records = loop.take_records();
  result.makespan_seconds = run.makespan_seconds;
  result.throughput_rps = run.throughput_rps;
  result.completed = run.completed;
  result.rejected = run.rejected;
  result.deadline_expired = run.deadline_expired;
  result.max_queue_depth = loop.chip(0).queue.max_depth_seen();
  result.latency_total = run.latency_total;
  result.latency_interactive = run.latency_interactive;
  result.latency_batch = run.latency_batch;
  result.tuning = run.tuning;
  result.sdc_corrupted = run.sdc_corrupted;
  result.sdc_corrected = run.sdc_corrected;
  result.sdc_unrecoverable = run.sdc_unrecoverable;
  result.sdc_escapes = run.sdc_escapes;

  // Counters are order-free, so the run's totals are read off the result.
  const auto count = [](int n) { return static_cast<std::uint64_t>(n); };
  std::uint64_t batched = 0;
  for (const JobRecord& job : result.jobs) batched += count(job.request_count - 1);
  obs::Registry& m = *metrics_;
  m.counter("serve.requests_total").add(requests.size());
  m.counter("serve.rejected_total").add(count(result.rejected));
  m.counter("serve.deadline_expired").add(count(result.deadline_expired));
  m.counter("serve.completed_total").add(count(result.completed));
  m.counter("serve.jobs_total").add(result.jobs.size());
  m.counter("serve.batched_requests_total").add(batched);
  m.counter("serve.slo_violations_total").add(count(result.slo_violations));
  m.counter("integrity.sdc_corrupted_total").add(count(result.sdc_corrupted));
  m.counter("integrity.sdc_retries_total").add(count(result.sdc_retries));
  m.counter("integrity.sdc_corrected_total").add(count(result.sdc_corrected));
  m.counter("integrity.sdc_unrecoverable_total").add(count(result.sdc_unrecoverable));
  m.counter("integrity.sdc_escapes_total").add(count(result.sdc_escapes));
  m.gauge("serve.max_queue_depth").set(static_cast<double>(result.max_queue_depth));
  m.gauge("serve.throughput_rps").set(result.throughput_rps);
  m.gauge("serve.makespan_seconds").set(result.makespan_seconds);
  cluster::record_tuning_metrics(result.tuning, m);
  return result;
}

}  // namespace scc::serve
