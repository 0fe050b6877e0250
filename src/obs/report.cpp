#include "obs/report.hpp"

#include <sstream>

namespace scc::obs {

namespace {

void require(std::vector<std::string>& problems, bool ok, const std::string& what) {
  if (!ok) problems.push_back(what);
}

bool check_number(std::vector<std::string>& problems, const Json& parent, const char* key) {
  const Json* v = parent.find(key);
  if (v == nullptr || !v->is_number()) {
    problems.push_back(std::string("missing or non-numeric key '") + key + "'");
    return false;
  }
  return true;
}

const Json* check_section(std::vector<std::string>& problems, const Json& report,
                          const char* key, Json::Type type) {
  const Json* section = report.find(key);
  if (section == nullptr || section->type() != type) {
    problems.push_back(std::string("missing or mistyped section '") + key + "'");
    return nullptr;
  }
  return section;
}

void validate_cache_stats(std::vector<std::string>& problems, const Json& core,
                          const char* level) {
  const Json* stats = core.find(level);
  if (stats == nullptr || !stats->is_object()) {
    problems.push_back(std::string("per_core entry missing '") + level + "' section");
    return;
  }
  for (const char* key : {"hits", "misses", "miss_rate", "evictions", "dirty_writebacks"}) {
    check_number(problems, *stats, key);
  }
}

/// The optional Recorder-registry export: when a "metrics" section is
/// present, each histogram must carry the count/sum/percentile summary the
/// serve SLO reports (and any tail-latency consumer) key on.
void validate_metrics(std::vector<std::string>& problems, const Json& report) {
  const Json* metrics = report.find("metrics");
  if (metrics == nullptr) return;
  if (!metrics->is_object()) {
    problems.push_back("metrics must be an object when present");
    return;
  }
  const Json* histograms = metrics->find("histograms");
  if (histograms == nullptr || !histograms->is_object()) return;
  for (const auto& [name, histogram] : histograms->items()) {
    if (!histogram.is_object()) {
      problems.push_back("metrics histogram '" + name + "' must be an object");
      continue;
    }
    for (const char* key : {"count", "sum", "p50", "p95", "p99"}) {
      if (histogram.find(key) == nullptr || !histogram.at(key).is_number()) {
        problems.push_back("metrics histogram '" + name + "' missing numeric '" + key + "'");
      }
    }
    const Json* buckets = histogram.find("buckets");
    require(problems, buckets != nullptr && buckets->is_array(),
            "metrics histogram '" + name + "' needs a 'buckets' array");
  }
}

/// The optional run_cache section: an 'enabled' bool always; totals and
/// replay-table counters whenever a cache was attached.
void validate_run_cache(std::vector<std::string>& problems, const Json& report) {
  const Json* cache = report.find("run_cache");
  if (cache == nullptr) return;
  if (!cache->is_object()) {
    problems.push_back("run_cache must be an object when present");
    return;
  }
  const Json* enabled = cache->find("enabled");
  require(problems, enabled != nullptr && enabled->is_bool(),
          "run_cache needs a bool 'enabled'");
  if (enabled == nullptr || !enabled->is_bool() || !enabled->as_bool()) return;
  for (const char* key : {"hits", "misses", "evictions", "size", "capacity", "replay_hits",
                          "replay_misses", "replay_size"}) {
    check_number(problems, *cache, key);
  }
  const Json* persisted = cache->find("persisted");
  require(problems, persisted != nullptr && persisted->is_bool(),
          "run_cache needs a bool 'persisted'");
}

/// The "integrity" section (ABFT verification). Required on run reports,
/// which carry a single per-run 'outcome'; serve/cluster reports aggregate
/// many jobs, so their sections carry counters under 'verify' instead.
void validate_integrity(std::vector<std::string>& problems, const Json& report,
                        bool required) {
  const Json* integ = report.find("integrity");
  if (integ == nullptr) {
    if (required) problems.push_back("missing 'integrity' section");
    return;
  }
  if (!integ->is_object()) {
    problems.push_back("integrity must be an object");
    return;
  }
  const Json* verify = integ->find("verify");
  require(problems, verify != nullptr && verify->is_string(),
          "integrity needs a string 'verify'");
  if (required) {
    const Json* outcome = integ->find("outcome");
    require(problems, outcome != nullptr && outcome->is_string(),
            "integrity needs a string 'outcome'");
  }
}

void validate_run(std::vector<std::string>& problems, const Json& report) {
  check_section(problems, report, "config", Json::Type::kObject);
  if (const Json* run = check_section(problems, report, "run", Json::Type::kObject)) {
    const Json* cores = run->find("cores");
    require(problems, cores != nullptr && cores->is_array() && cores->size() > 0,
            "run.cores must be a non-empty array");
  }
  if (const Json* result = check_section(problems, report, "result", Json::Type::kObject)) {
    check_number(problems, *result, "seconds");
    check_number(problems, *result, "gflops");
    const Json* bound = result->find("bandwidth_bound");
    require(problems, bound != nullptr && bound->is_bool(),
            "result.bandwidth_bound must be a bool");
  }
  if (const Json* per_core =
          check_section(problems, report, "per_core", Json::Type::kArray)) {
    require(problems, per_core->size() > 0, "per_core must not be empty");
    for (std::size_t i = 0; i < per_core->size(); ++i) {
      const Json& core = per_core->at(i);
      if (!core.is_object()) {
        problems.push_back("per_core entries must be objects");
        break;
      }
      for (const char* key :
           {"core", "hops", "compute_seconds", "stall_seconds", "isolated_seconds",
            "tlb_misses", "memory_read_bytes", "memory_write_bytes"}) {
        check_number(problems, core, key);
      }
      validate_cache_stats(problems, core, "l1");
      validate_cache_stats(problems, core, "l2");
    }
  }
  if (const Json* per_mc = check_section(problems, report, "per_mc", Json::Type::kArray)) {
    for (std::size_t i = 0; i < per_mc->size(); ++i) {
      const Json& mc = per_mc->at(i);
      if (!mc.is_object()) {
        problems.push_back("per_mc entries must be objects");
        break;
      }
      check_number(problems, mc, "mc");
      check_number(problems, mc, "bytes");
      check_number(problems, mc, "seconds");
    }
  }
  if (const Json* mesh = check_section(problems, report, "mesh", Json::Type::kObject)) {
    check_number(problems, *mesh, "total_link_bytes");
    check_number(problems, *mesh, "max_link_bytes");
  }
  if (const Json* log = report.find("fault_log")) {
    if (!log->is_array()) {
      problems.push_back("fault_log must be an array when present");
    } else {
      for (std::size_t i = 0; i < log->size(); ++i) {
        const Json& event = log->at(i);
        require(problems,
                event.is_object() && event.find("type") != nullptr &&
                    event.at("type").is_string() && event.find("rank") != nullptr,
                "fault_log entries need string 'type' and 'rank'");
      }
    }
  }
  validate_run_cache(problems, report);
  validate_integrity(problems, report, /*required=*/true);
  validate_metrics(problems, report);
}

void validate_latency_summary(std::vector<std::string>& problems, const Json& parent,
                              const char* cls) {
  const Json* summary = parent.find(cls);
  if (summary == nullptr || !summary->is_object()) {
    problems.push_back(std::string("result.latency missing class object '") + cls + "'");
    return;
  }
  for (const char* key : {"p50", "p95", "p99", "mean"}) {
    check_number(problems, *summary, key);
  }
}

/// One tuning decision object, as emitted by serve::tuning_summary_json and
/// the autotune report's "decisions" array.
void validate_decision(std::vector<std::string>& problems, const Json& decision,
                       const char* where) {
  if (!decision.is_object()) {
    problems.push_back(std::string(where) + " entries must be objects");
    return;
  }
  for (const char* key :
       {"fingerprint", "cores", "modeled_seconds", "baseline_seconds", "explored_runs"}) {
    check_number(problems, decision, key);
  }
  for (const char* key : {"format", "reorder", "mapping"}) {
    const Json* value = decision.find(key);
    require(problems, value != nullptr && value->is_string(),
            std::string(where) + " entries need a string '" + key + "'");
  }
  const Json* predicted = decision.find("predicted");
  require(problems, predicted != nullptr && predicted->is_bool(),
          std::string(where) + " entries need a bool 'predicted'");
}

/// Optional "tuning" section of serve/cluster reports (present when the run
/// autotuned).
void validate_tuning(std::vector<std::string>& problems, const Json& report) {
  const Json* tuning = report.find("tuning");
  if (tuning == nullptr) return;
  if (!tuning->is_object()) {
    problems.push_back("tuning must be an object when present");
    return;
  }
  const Json* enabled = tuning->find("enabled");
  require(problems, enabled != nullptr && enabled->is_bool(),
          "tuning needs a bool 'enabled'");
  for (const char* key :
       {"cache_hits", "predicted", "explored", "explore_runs", "explore_seconds"}) {
    check_number(problems, *tuning, key);
  }
  const Json* decisions = tuning->find("decisions");
  if (decisions == nullptr || !decisions->is_array()) {
    problems.push_back("tuning needs a 'decisions' array");
    return;
  }
  for (std::size_t i = 0; i < decisions->size(); ++i) {
    validate_decision(problems, decisions->at(i), "tuning.decisions");
  }
}

void validate_autotune(std::vector<std::string>& problems, const Json& report) {
  if (const Json* config = check_section(problems, report, "config", Json::Type::kObject)) {
    const Json* formats = config->find("formats");
    require(problems, formats != nullptr && formats->is_array() && formats->size() > 0,
            "autotune config needs a non-empty 'formats' array");
    const Json* cores = config->find("core_counts");
    require(problems, cores != nullptr && cores->is_array() && cores->size() > 0,
            "autotune config needs a non-empty 'core_counts' array");
  }
  if (const Json* decisions =
          check_section(problems, report, "decisions", Json::Type::kArray)) {
    require(problems, decisions->size() > 0, "decisions must not be empty");
    for (std::size_t i = 0; i < decisions->size(); ++i) {
      validate_decision(problems, decisions->at(i), "decisions");
    }
  }
  if (const Json* result = check_section(problems, report, "result", Json::Type::kObject)) {
    for (const char* key :
         {"cache_hits", "predicted", "explored", "explore_runs", "explore_seconds"}) {
      check_number(problems, *result, key);
    }
  }
  validate_metrics(problems, report);
}

void validate_serve(std::vector<std::string>& problems, const Json& report) {
  if (const Json* workload =
          check_section(problems, report, "workload", Json::Type::kObject)) {
    check_number(problems, *workload, "seed");
    check_number(problems, *workload, "offered_rps");
    check_number(problems, *workload, "request_count");
  }
  if (const Json* config = check_section(problems, report, "config", Json::Type::kObject)) {
    const Json* policy = config->find("policy");
    require(problems, policy != nullptr && policy->is_string(),
            "serve config needs a string 'policy'");
  }
  if (const Json* result = check_section(problems, report, "result", Json::Type::kObject)) {
    for (const char* key : {"makespan_seconds", "throughput_rps", "completed", "rejected",
                            "slo_violations", "max_queue_depth"}) {
      check_number(problems, *result, key);
    }
    const Json* latency = result->find("latency");
    if (latency == nullptr || !latency->is_object()) {
      problems.push_back("serve result needs a 'latency' object");
    } else {
      validate_latency_summary(problems, *latency, "total");
      validate_latency_summary(problems, *latency, "interactive");
      validate_latency_summary(problems, *latency, "batch");
    }
  }
  if (const Json* per_mc = check_section(problems, report, "per_mc", Json::Type::kArray)) {
    for (std::size_t i = 0; i < per_mc->size(); ++i) {
      const Json& mc = per_mc->at(i);
      if (!mc.is_object()) {
        problems.push_back("per_mc entries must be objects");
        break;
      }
      check_number(problems, mc, "mc");
      check_number(problems, mc, "busy_seconds");
      check_number(problems, mc, "utilization");
    }
  }
  validate_tuning(problems, report);
  validate_integrity(problems, report, /*required=*/false);
  validate_metrics(problems, report);
}

void validate_cluster(std::vector<std::string>& problems, const Json& report) {
  if (const Json* workload =
          check_section(problems, report, "workload", Json::Type::kObject)) {
    check_number(problems, *workload, "seed");
    check_number(problems, *workload, "offered_rps");
    check_number(problems, *workload, "request_count");
  }
  if (const Json* config = check_section(problems, report, "config", Json::Type::kObject)) {
    check_number(problems, *config, "chip_count");
    const Json* failover = config->find("failover");
    require(problems, failover != nullptr && failover->is_bool(),
            "cluster config needs a bool 'failover'");
  }
  if (const Json* result = check_section(problems, report, "result", Json::Type::kObject)) {
    for (const char* key :
         {"makespan_seconds", "throughput_rps", "completed", "rejected", "dead_lettered",
          "deadline_expired", "retries", "failovers", "hedge_wins", "breaker_trips",
          "chip_crashes", "tile_kills", "availability", "restarts", "rejoins", "reships",
          "reship_bytes", "cold_runs", "domain_outages"}) {
      check_number(problems, *result, key);
    }
    const Json* latency = result->find("latency");
    if (latency == nullptr || !latency->is_object()) {
      problems.push_back("cluster result needs a 'latency' object");
    } else {
      validate_latency_summary(problems, *latency, "total");
      validate_latency_summary(problems, *latency, "interactive");
      validate_latency_summary(problems, *latency, "batch");
    }
  }
  if (const Json* chips = check_section(problems, report, "chips", Json::Type::kArray)) {
    require(problems, chips->size() > 0, "chips must not be empty");
    for (std::size_t i = 0; i < chips->size(); ++i) {
      const Json& chip = chips->at(i);
      if (!chip.is_object()) {
        problems.push_back("chips entries must be objects");
        break;
      }
      check_number(problems, chip, "chip");
      check_number(problems, chip, "jobs_completed");
      check_number(problems, chip, "reship_bytes");
      const Json* state = chip.find("state");
      require(problems, state != nullptr && state->is_string(),
              "chips entries need a string 'state'");
      const Json* placement = chip.find("placement");
      require(problems, placement != nullptr && placement->is_array(),
              "chips entries need a 'placement' array");
    }
  }
  if (const Json* log = check_section(problems, report, "fault_log", Json::Type::kArray)) {
    for (std::size_t i = 0; i < log->size(); ++i) {
      const Json& event = log->at(i);
      require(problems,
              event.is_object() && event.find("kind") != nullptr &&
                  event.at("kind").is_string() && event.find("seconds") != nullptr &&
                  event.at("seconds").is_number(),
              "fault_log entries need string 'kind' and numeric 'seconds'");
    }
  }
  if (const Json* letters =
          check_section(problems, report, "dead_letters", Json::Type::kArray)) {
    for (std::size_t i = 0; i < letters->size(); ++i) {
      const Json& letter = letters->at(i);
      require(problems,
              letter.is_object() && letter.find("request") != nullptr &&
                  letter.find("reason") != nullptr && letter.at("reason").is_string(),
              "dead_letters entries need 'request' and string 'reason'");
    }
  }
  validate_tuning(problems, report);
  validate_integrity(problems, report, /*required=*/false);
  validate_metrics(problems, report);
}

void validate_bench(std::vector<std::string>& problems, const Json& report) {
  const Json* name = report.find("name");
  require(problems, name != nullptr && name->is_string() && !name->as_string().empty(),
          "bench report needs a non-empty string 'name'");
  check_number(problems, report, "testbed_scale");
  if (const Json* tables = check_section(problems, report, "tables", Json::Type::kArray)) {
    for (std::size_t t = 0; t < tables->size(); ++t) {
      const Json& table = tables->at(t);
      if (!table.is_object()) {
        problems.push_back("tables entries must be objects");
        break;
      }
      const Json* stem = table.find("stem");
      require(problems, stem != nullptr && stem->is_string(),
              "table entry needs a string 'stem'");
      const Json* header = table.find("header");
      const Json* rows = table.find("rows");
      if (header == nullptr || !header->is_array() || rows == nullptr || !rows->is_array()) {
        problems.push_back("table entry needs 'header' and 'rows' arrays");
        continue;
      }
      for (std::size_t r = 0; r < rows->size(); ++r) {
        if (!rows->at(r).is_array() || rows->at(r).size() != header->size()) {
          std::ostringstream oss;
          oss << "table row " << r << " arity differs from header";
          problems.push_back(oss.str());
          break;
        }
      }
    }
  }
  if (const Json* claims = check_section(problems, report, "claims", Json::Type::kArray)) {
    for (std::size_t i = 0; i < claims->size(); ++i) {
      const Json& claim = claims->at(i);
      if (!claim.is_object()) {
        problems.push_back("claims entries must be objects");
        break;
      }
      const Json* text = claim.find("claim");
      require(problems, text != nullptr && text->is_string(),
              "claim entry needs a string 'claim'");
      check_number(problems, claim, "expected");
      check_number(problems, claim, "measured");
      check_number(problems, claim, "tolerance");
      const Json* ok = claim.find("ok");
      require(problems, ok != nullptr && ok->is_bool(), "claim entry needs a bool 'ok'");
    }
  }
  const Json* ok = report.find("ok");
  require(problems, ok != nullptr && ok->is_bool(), "bench report needs a bool 'ok'");
}

}  // namespace

Json report_skeleton(const std::string& kind) {
  Json report = Json::object();
  report.set("schema_version", kSchemaVersion);
  report.set("kind", kind);
  return report;
}

Json table_json(const Table& table, const std::string& stem) {
  Json j = Json::object();
  j.set("stem", stem);
  j.set("title", table.title());
  Json header = Json::array();
  for (const std::string& cell : table.header()) header.push_back(Json(cell));
  j.set("header", std::move(header));
  Json rows = Json::array();
  for (const std::vector<std::string>& row : table.rows()) {
    Json r = Json::array();
    for (const std::string& cell : row) r.push_back(Json(cell));
    rows.push_back(std::move(r));
  }
  j.set("rows", std::move(rows));
  return j;
}

Json claim_json(const ClaimCheck& claim) {
  Json j = Json::object();
  j.set("claim", claim.claim);
  j.set("expected", claim.expected);
  j.set("measured", claim.measured);
  j.set("tolerance", claim.tolerance);
  j.set("ok", claim.ok);
  return j;
}

std::vector<std::string> validate_report(const Json& report) {
  std::vector<std::string> problems;
  if (!report.is_object()) {
    problems.push_back("report must be a JSON object");
    return problems;
  }
  const Json* version = report.find("schema_version");
  if (version == nullptr || !version->is_int()) {
    problems.push_back("missing integer 'schema_version'");
  } else if (version->as_int() != kSchemaVersion) {
    std::ostringstream oss;
    oss << "schema_version " << version->as_int() << " != supported " << kSchemaVersion;
    problems.push_back(oss.str());
  }
  const Json* kind = report.find("kind");
  if (kind == nullptr || !kind->is_string()) {
    problems.push_back("missing string 'kind'");
    return problems;
  }
  if (kind->as_string() == kKindRun) {
    validate_run(problems, report);
  } else if (kind->as_string() == kKindBench) {
    validate_bench(problems, report);
  } else if (kind->as_string() == kKindServe) {
    validate_serve(problems, report);
  } else if (kind->as_string() == kKindCluster) {
    validate_cluster(problems, report);
  } else if (kind->as_string() == kKindAutotune) {
    validate_autotune(problems, report);
  }
  // Other kinds only need the envelope; unknown top-level keys never fail
  // validation (additive forward compatibility).
  return problems;
}

}  // namespace scc::obs
