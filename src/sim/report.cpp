#include "sim/report.hpp"

#include "obs/report.hpp"
#include "scc/mapping.hpp"
#include "sim/run_cache.hpp"

namespace scc::sim {

namespace {

obs::Json cache_stats_json(const cache::CacheStats& stats) {
  obs::Json j = obs::Json::object();
  j.set("hits", stats.hits());
  j.set("misses", stats.misses());
  j.set("miss_rate", stats.miss_rate());
  j.set("evictions", stats.evictions);
  j.set("dirty_writebacks", stats.dirty_writebacks);
  return j;
}

obs::Json coord_json(noc::Coord c) {
  obs::Json j = obs::Json::array();
  j.push_back(obs::Json(c.x));
  j.push_back(obs::Json(c.y));
  return j;
}

obs::Json int_array(const std::vector<int>& values) {
  obs::Json arr = obs::Json::array();
  for (int v : values) arr.push_back(obs::Json(v));
  return arr;
}

}  // namespace

obs::Json fault_event_json(const fault::Event& event) {
  obs::Json j = obs::Json::object();
  j.set("type", std::string(fault::to_string(event.type)));
  j.set("rank", event.rank);
  j.set("peer", event.peer);
  j.set("op_index", event.op_index);
  j.set("op", event.op);
  j.set("detail", event.detail);
  return j;
}

obs::Json fault_log_json(const std::vector<fault::Event>& log) {
  obs::Json arr = obs::Json::array();
  for (const fault::Event& event : log) arr.push_back(fault_event_json(event));
  return arr;
}

obs::Json run_report_json(const Engine& engine, const RunSpec& spec, const RunResult& result,
                          const obs::Recorder* recorder,
                          const std::vector<fault::Event>* fault_log) {
  const EngineConfig& config = engine.config();
  obs::Json report = obs::report_skeleton(obs::kKindRun);

  obs::Json cfg = obs::Json::object();
  cfg.set("core_mhz", config.freq.core_mhz(0));
  cfg.set("mesh_mhz", config.freq.mesh_mhz());
  cfg.set("memory_mhz", config.freq.memory_mhz());
  cfg.set("mc_peak_fraction", config.memory.mc_peak_fraction);
  cfg.set("model_contention", config.memory.model_contention);
  cfg.set("model_tlb", config.memory.model_tlb);
  cfg.set("measure_steady_state", config.measure_steady_state);
  report.set("config", std::move(cfg));

  obs::Json run = obs::Json::object();
  obs::Json cores = obs::Json::array();
  for (const CoreResult& cr : result.cores) cores.push_back(obs::Json(cr.core));
  run.set("cores", std::move(cores));
  run.set("ue_count", static_cast<std::int64_t>(result.cores.size()));
  run.set("policy", chip::to_string(spec.policy));
  run.set("format", to_string(spec.format));
  run.set("variant", to_string(spec.variant));
  run.set("forced_hops", spec.forced_hops);
  run.set("dead_ranks", int_array(spec.dead_ranks));
  run.set("verify", std::string(integrity::to_string(spec.verify)));
  run.set("sdc_rate", spec.sdc.rate);
  run.set("sdc_seed", spec.sdc.seed);
  report.set("run", std::move(run));

  obs::Json res = obs::Json::object();
  res.set("seconds", result.seconds);
  res.set("gflops", result.gflops);
  res.set("mflops", result.mflops());
  res.set("bandwidth_bound", result.bandwidth_bound);
  res.set("dead_count", result.dead_count);
  res.set("reshipped_bytes", result.reshipped_bytes);
  res.set("recovery_seconds", result.recovery_seconds);
  report.set("result", std::move(res));

  // ABFT verification outcome (docs/INTEGRITY.md). Present on every run so
  // downstream parsers need no existence checks; verify-off runs report
  // their defaults (clean, one attempt, zero overhead).
  obs::Json integ = obs::Json::object();
  integ.set("verify", std::string(integrity::to_string(result.verify)));
  integ.set("outcome", std::string(integrity::to_string(result.outcome)));
  integ.set("injected", result.sdc_injected);
  integ.set("significant", result.sdc_significant);
  integ.set("attempts", result.verify_attempts);
  integ.set("verify_seconds", result.verify_seconds);
  integ.set("recompute_seconds", result.recompute_seconds);
  integ.set("residual", result.verify_residual);
  integ.set("tolerance", result.verify_tolerance);
  report.set("integrity", std::move(integ));

  obs::Json per_core = obs::Json::array();
  for (const CoreResult& cr : result.cores) {
    obs::Json c = obs::Json::object();
    c.set("core", cr.core);
    c.set("hops", cr.hops);
    c.set("compute_seconds", cr.compute_seconds);
    c.set("l2_hit_seconds", cr.l2_hit_seconds);
    c.set("stall_seconds", cr.stall_seconds);
    c.set("tlb_seconds", cr.tlb_seconds);
    c.set("isolated_seconds", cr.isolated_seconds);
    c.set("rows", cr.trace.rows);
    c.set("nnz", cr.trace.nnz);
    c.set("memory_accesses", cr.trace.memory_accesses);
    c.set("tlb_misses", cr.trace.tlb_misses);
    c.set("memory_read_bytes", cr.trace.memory_read_bytes);
    c.set("memory_write_bytes", cr.trace.memory_write_bytes);
    c.set("l1", cache_stats_json(cr.trace.l1));
    c.set("l2", cache_stats_json(cr.trace.l2));
    per_core.push_back(std::move(c));
  }
  report.set("per_core", std::move(per_core));

  obs::Json per_mc = obs::Json::array();
  for (std::size_t mc = 0; mc < result.mc_bytes.size(); ++mc) {
    obs::Json m = obs::Json::object();
    m.set("mc", static_cast<std::int64_t>(mc));
    m.set("bytes", result.mc_bytes[mc]);
    m.set("seconds", result.mc_seconds[mc]);
    per_mc.push_back(std::move(m));
  }
  report.set("per_mc", std::move(per_mc));

  obs::Json mesh = obs::Json::object();
  mesh.set("total_link_bytes", result.mesh.total_link_bytes);
  mesh.set("max_link_bytes", result.mesh.max_link_bytes);
  obs::Json hot = obs::Json::array();
  for (const noc::Mesh::LinkLoad& load : result.mesh.hot_links) {
    obs::Json l = obs::Json::object();
    l.set("from", coord_json(load.link.from));
    l.set("to", coord_json(load.link.to));
    l.set("bytes", load.bytes);
    hot.push_back(std::move(l));
  }
  mesh.set("hot_links", std::move(hot));
  report.set("mesh", std::move(mesh));

  // Engine-run memoization (sim::RunCache). Counters are cache lifetime, not
  // per-run; engines without an attached cache report enabled=false only.
  // The per-shard rows expose the sharded cache's balance, the replay_*
  // fields its per-rank replay table (schema v1, docs/OBSERVABILITY.md).
  obs::Json memo = obs::Json::object();
  memo.set("enabled", engine.run_cache() != nullptr);
  if (const RunCache* cache = engine.run_cache(); cache != nullptr) {
    const RunCache::Stats stats = cache->stats();
    memo.set("hits", stats.total.hits);
    memo.set("misses", stats.total.misses);
    memo.set("evictions", stats.total.evictions);
    memo.set("size", static_cast<std::int64_t>(stats.total.size));
    memo.set("capacity", static_cast<std::int64_t>(stats.total.capacity));
    memo.set("shards", static_cast<std::int64_t>(cache->shard_count()));
    memo.set("persisted", !cache->persist_path().empty());
    memo.set("replay_hits", stats.replay_hits);
    memo.set("replay_misses", stats.replay_misses);
    memo.set("replay_size", static_cast<std::int64_t>(stats.replay_size));
    obs::Json per_shard = obs::Json::array();
    for (const RunCache::ShardStats& shard : stats.per_shard) {
      obs::Json s = obs::Json::object();
      s.set("hits", shard.hits);
      s.set("misses", shard.misses);
      s.set("evictions", shard.evictions);
      s.set("size", static_cast<std::int64_t>(shard.size));
      s.set("capacity", static_cast<std::int64_t>(shard.capacity));
      s.set("load_factor", shard.load_factor());
      per_shard.push_back(std::move(s));
    }
    memo.set("per_shard", std::move(per_shard));
  }
  report.set("run_cache", std::move(memo));

  if (recorder != nullptr && !recorder->metrics().empty()) {
    report.set("metrics", recorder->metrics().to_json());
  }
  if (fault_log != nullptr) {
    report.set("fault_log", fault_log_json(*fault_log));
    // Per-type tallies so dashboards (and the kTransferCorrupt audit) need
    // not re-scan the log.
    obs::Json counts = obs::Json::object();
    const auto add = [&](const char* name, fault::EventType type) {
      counts.set(name, static_cast<std::int64_t>(fault::count(*fault_log, type)));
    };
    add("kills", fault::EventType::kKill);
    add("transfer_drops", fault::EventType::kTransferDrop);
    add("transfer_corrupts", fault::EventType::kTransferCorrupt);
    add("mem_corrupts", fault::EventType::kMemCorrupt);
    add("retries", fault::EventType::kRetry);
    add("timeouts", fault::EventType::kTimeout);
    add("repartitions", fault::EventType::kRepartition);
    report.set("fault_counts", std::move(counts));
  }
  return report;
}

}  // namespace scc::sim
