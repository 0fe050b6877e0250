// Schema-v1 JSON report for serving runs (kind "serve").
//
// Emits exactly what obs::validate_report checks for kind "serve": a
// workload section (seed / offered_rps / request_count), a config section
// (policy plus the admission and batching knobs), a result section with the
// latency summaries per class, the per_mc occupancy array, and the
// serve.* metrics registry export.
#pragma once

#include "obs/json.hpp"
#include "serve/loadgen.hpp"
#include "serve/simulator.hpp"

namespace scc::serve {

/// The "workload" section shared by serve and cluster reports.
obs::Json workload_json(const WorkloadSpec& workload);

/// The "latency" object shared by serve and cluster results: one
/// {"count","mean","p50","p95","p99"} summary per class.
obs::Json latency_json(const LatencySummary& total, const LatencySummary& interactive,
                       const LatencySummary& batch);

/// The "tuning" section shared by serve and cluster reports: the run's
/// predicted/explored split plus one object per decision made this run.
obs::Json tuning_summary_json(const TuningSummary& tuning);

/// Full kind="serve" report for one serving run. `metrics`, when non-null,
/// contributes the "metrics" section (usually Simulator::metrics()).
obs::Json serve_report_json(const WorkloadSpec& workload, const ServeConfig& config,
                            const ServeResult& result,
                            const obs::Registry* metrics = nullptr);

}  // namespace scc::serve
