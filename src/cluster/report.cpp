#include "cluster/report.hpp"

#include <cstddef>

#include "obs/report.hpp"
#include "serve/report.hpp"
#include "serve/scheduler.hpp"

namespace scc::cluster {

obs::Json cluster_report_json(const serve::WorkloadSpec& workload,
                              const ClusterConfig& config, const ClusterResult& result,
                              const obs::Registry* metrics) {
  obs::Json report = obs::report_skeleton(obs::kKindCluster);

  report.set("workload", serve::workload_json(workload));

  obs::Json config_json = obs::Json::object();
  config_json.set("chip_count", config.chip_count);
  config_json.set("failover", config.failover);
  config_json.set("policy", to_string(config.chip.policy));
  config_json.set("batching", config.chip.batching);
  config_json.set("batch_max", config.chip.batch_max);
  config_json.set("autotune", config.chip.autotune);
  config_json.set("max_attempts", config.retry.max_attempts);
  config_json.set("hedging", config.hedge.enabled);
  config_json.set("fault_seed", config.faults.seed);
  config_json.set("crash_rate", config.faults.crash_rate);
  config_json.set("job_failure_rate", config.faults.job_failure_rate);
  config_json.set("chips_per_domain", config.faults.chips_per_domain);
  config_json.set("restart_downtime_seconds", config.faults.restart_downtime_seconds);
  config_json.set("placement_replicas", config.placement.replicas);
  config_json.set("reship_bandwidth_fraction", config.placement.reship_bandwidth_fraction);
  config_json.set("warmup_runs", config.placement.warmup_runs);
  config_json.set("verify", integrity::to_string(config.chip.verify));
  config_json.set("sdc_rate", config.faults.sdc_rate);
  config_json.set("quarantine_threshold", config.quarantine_threshold);
  report.set("config", std::move(config_json));

  obs::Json result_json = obs::Json::object();
  result_json.set("makespan_seconds", result.makespan_seconds);
  result_json.set("throughput_rps", result.throughput_rps);
  result_json.set("availability", result.availability);
  result_json.set("completed", result.completed);
  result_json.set("rejected", result.rejected);
  result_json.set("dead_lettered", result.dead_lettered);
  result_json.set("deadline_expired", result.deadline_expired);
  result_json.set("retries", result.retries);
  result_json.set("failovers", result.failovers);
  result_json.set("hedges", result.hedges);
  result_json.set("hedge_wins", result.hedge_wins);
  result_json.set("chip_crashes", result.chip_crashes);
  result_json.set("tile_kills", result.tile_kills);
  result_json.set("brownouts", result.brownouts);
  result_json.set("breaker_trips", result.breaker_trips);
  result_json.set("restarts", result.restarts);
  result_json.set("rejoins", result.rejoins);
  result_json.set("reships", result.reships);
  result_json.set("reship_bytes", result.reship_bytes);
  result_json.set("cold_runs", result.cold_runs);
  result_json.set("domain_outages", result.domain_outages);
  result_json.set("sdc_corrupted", result.sdc_corrupted);
  result_json.set("sdc_detected", result.sdc_detected);
  result_json.set("sdc_corrected", result.sdc_corrected);
  result_json.set("sdc_unrecoverable", result.sdc_unrecoverable);
  result_json.set("sdc_escapes", result.sdc_escapes);
  result_json.set("quarantines", result.quarantines);
  result_json.set("latency", serve::latency_json(result.latency_total,
                                                result.latency_interactive,
                                                result.latency_batch));
  report.set("result", std::move(result_json));

  obs::Json chips = obs::Json::array();
  for (const ChipSummary& chip : result.chips) {
    obs::Json entry = obs::Json::object();
    entry.set("chip", chip.chip);
    entry.set("state", to_string(chip.state));
    entry.set("crashed", chip.crashed);
    entry.set("jobs_completed", chip.jobs_completed);
    entry.set("jobs_failed", chip.jobs_failed);
    entry.set("retired_cores", chip.retired_cores);
    entry.set("requests_completed", chip.requests_completed);
    entry.set("breaker_trips", chip.breaker_trips);
    entry.set("restarts", chip.restarts);
    entry.set("reships", chip.reships);
    entry.set("cold_runs", chip.cold_runs);
    entry.set("reship_bytes", chip.reship_bytes);
    entry.set("sdc_detected", chip.sdc_detected);
    entry.set("sdc_corrected", chip.sdc_corrected);
    entry.set("sdc_unrecoverable", chip.sdc_unrecoverable);
    entry.set("sdc_escapes", chip.sdc_escapes);
    entry.set("quarantined", chip.quarantined);
    obs::Json placement = obs::Json::array();
    for (const int matrix_id : chip.placement) placement.push_back(matrix_id);
    entry.set("placement", std::move(placement));
    chips.push_back(std::move(entry));
  }
  report.set("chips", std::move(chips));

  obs::Json fault_log = obs::Json::array();
  for (const LogEvent& event : result.log) {
    obs::Json entry = obs::Json::object();
    entry.set("seconds", event.seconds);
    entry.set("kind", event.kind);
    entry.set("chip", event.chip);
    entry.set("detail", event.detail);
    fault_log.push_back(std::move(entry));
  }
  report.set("fault_log", std::move(fault_log));

  obs::Json dead_letters = obs::Json::array();
  for (const ClusterRequestRecord& record : result.records) {
    if (record.outcome != Outcome::kDeadLettered) continue;
    obs::Json entry = obs::Json::object();
    entry.set("request", record.request.id);
    entry.set("reason", record.dead_letter_reason);
    entry.set("chip", record.chip);
    entry.set("attempts", record.attempts);
    dead_letters.push_back(std::move(entry));
  }
  report.set("dead_letters", std::move(dead_letters));

  if (result.tuning.enabled) {
    report.set("tuning", serve::tuning_summary_json(result.tuning));
  }

  obs::Json integrity_json = obs::Json::object();
  integrity_json.set("verify", integrity::to_string(config.chip.verify));
  integrity_json.set("sdc_corrupted", result.sdc_corrupted);
  integrity_json.set("sdc_detected", result.sdc_detected);
  integrity_json.set("sdc_corrected", result.sdc_corrected);
  integrity_json.set("sdc_unrecoverable", result.sdc_unrecoverable);
  integrity_json.set("sdc_escapes", result.sdc_escapes);
  integrity_json.set("quarantines", result.quarantines);
  report.set("integrity", std::move(integrity_json));

  if (metrics != nullptr && !metrics->empty()) report.set("metrics", metrics->to_json());
  return report;
}

}  // namespace scc::cluster
