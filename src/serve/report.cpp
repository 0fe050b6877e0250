#include "serve/report.hpp"

#include <algorithm>

#include "common/stats.hpp"
#include "obs/report.hpp"

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

obs::Json workload_json(const WorkloadSpec& workload) {
  obs::Json j = obs::Json::object();
  j.set("seed", workload.seed);
  j.set("offered_rps", workload.offered_rps);
  j.set("request_count", workload.request_count);
  obs::Json mix = obs::Json::array();
  for (const int id : workload.matrix_mix) mix.push_back(id);
  j.set("matrix_mix", std::move(mix));
  j.set("interactive_fraction", workload.interactive_fraction);
  j.set("slo_interactive_seconds", workload.slo_interactive_seconds);
  j.set("slo_batch_seconds", workload.slo_batch_seconds);
  return j;
}

obs::Json latency_json(const LatencySummary& total, const LatencySummary& interactive,
                       const LatencySummary& batch) {
  const auto summary_json = [](const LatencySummary& summary) {
    obs::Json j = obs::Json::object();
    j.set("count", summary.count);
    j.set("mean", summary.mean);
    j.set("p50", summary.p50);
    j.set("p95", summary.p95);
    j.set("p99", summary.p99);
    return j;
  };
  obs::Json j = obs::Json::object();
  j.set("total", summary_json(total));
  j.set("interactive", summary_json(interactive));
  j.set("batch", summary_json(batch));
  return j;
}

obs::Json tuning_summary_json(const TuningSummary& tuning) {
  obs::Json j = obs::Json::object();
  j.set("enabled", tuning.enabled);
  j.set("cache_hits", tuning.cache_hits);
  j.set("predicted", tuning.predicted);
  j.set("explored", tuning.explored);
  j.set("explore_runs", tuning.explore_runs);
  j.set("explore_seconds", tuning.explore_seconds);
  obs::Json decisions = obs::Json::array();
  for (const tune::DecisionRecord& record : tuning.decisions) {
    obs::Json d = obs::Json::object();
    d.set("fingerprint", record.fingerprint);
    d.set("matrix_id", record.matrix_id);
    d.set("format", sim::to_string(record.decision.choice.format));
    d.set("reorder", sim::to_string(record.decision.choice.reorder));
    d.set("cores", record.decision.choice.ue_count);
    d.set("mapping", chip::to_string(record.decision.choice.policy));
    d.set("modeled_seconds", record.decision.modeled_seconds);
    d.set("baseline_seconds", record.decision.baseline_seconds);
    d.set("predicted", record.decision.predicted);
    d.set("explored_runs", record.decision.explored_runs);
    decisions.push_back(std::move(d));
  }
  j.set("decisions", std::move(decisions));
  return j;
}

obs::Json serve_report_json(const WorkloadSpec& workload, const ServeConfig& config,
                            const ServeResult& result, const obs::Registry* metrics) {
  obs::Json report = obs::report_skeleton(obs::kKindServe);

  report.set("workload", workload_json(workload));

  obs::Json config_json = obs::Json::object();
  config_json.set("policy", to_string(config.policy));
  config_json.set("max_queue_depth", config.admission.max_queue_depth);
  config_json.set("interactive_reserve", config.admission.interactive_reserve);
  config_json.set("batching", config.batching);
  config_json.set("batch_max", config.batch_max);
  config_json.set("autotune", config.autotune);
  config_json.set("verify", integrity::to_string(config.verify));
  config_json.set("sdc_rate", config.sdc.rate);
  report.set("config", std::move(config_json));

  obs::Json result_json = obs::Json::object();
  result_json.set("makespan_seconds", result.makespan_seconds);
  result_json.set("throughput_rps", result.throughput_rps);
  result_json.set("completed", result.completed);
  result_json.set("rejected", result.rejected);
  result_json.set("deadline_expired", result.deadline_expired);
  result_json.set("slo_violations", result.slo_violations);
  result_json.set("max_queue_depth", result.max_queue_depth);
  result_json.set("job_count", static_cast<long long>(result.jobs.size()));
  result_json.set("latency", latency_json(result.latency_total, result.latency_interactive,
                                         result.latency_batch));
  report.set("result", std::move(result_json));

  obs::Json per_mc = obs::Json::array();
  for (int mc = 0; mc < chip::kMemoryControllerCount; ++mc) {
    obs::Json entry = obs::Json::object();
    entry.set("mc", mc);
    const double busy = result.mc_busy_seconds[static_cast<std::size_t>(mc)];
    entry.set("busy_seconds", busy);
    entry.set("utilization",
              result.makespan_seconds > 0.0 ? busy / result.makespan_seconds : 0.0);
    per_mc.push_back(std::move(entry));
  }
  report.set("per_mc", std::move(per_mc));

  if (result.tuning.enabled) report.set("tuning", tuning_summary_json(result.tuning));

  obs::Json integrity_json = obs::Json::object();
  integrity_json.set("verify", integrity::to_string(config.verify));
  integrity_json.set("sdc_corrupted", result.sdc_corrupted);
  integrity_json.set("sdc_retries", result.sdc_retries);
  integrity_json.set("sdc_corrected", result.sdc_corrected);
  integrity_json.set("sdc_unrecoverable", result.sdc_unrecoverable);
  integrity_json.set("sdc_escapes", result.sdc_escapes);
  report.set("integrity", std::move(integrity_json));

  if (metrics != nullptr && !metrics->empty()) report.set("metrics", metrics->to_json());
  return report;
}

}  // namespace scc::serve
