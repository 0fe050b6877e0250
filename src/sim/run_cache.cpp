#include "sim/run_cache.hpp"

#include <array>
#include <bit>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "common/framed_file.hpp"
#include "common/hash.hpp"
#include "scc/topology.hpp"
#include "sparse/csr.hpp"

namespace scc::sim {

RunKey run_key(const sparse::CsrMatrix& matrix, const EngineConfig& config,
               const std::vector<int>& cores, const RunSpec& spec) {
  common::Fnv1a hash;

  // Effective spec: the resolved core table subsumes ue_count/policy, so the
  // two ways of naming the same run share one entry.
  hash.array(std::span<const int>(cores));
  hash.u64(static_cast<std::uint64_t>(spec.format));
  hash.u64(static_cast<std::uint64_t>(spec.reorder));
  hash.u64(static_cast<std::uint64_t>(spec.variant));
  hash.i64(spec.forced_hops);
  hash.array(std::span<const int>(spec.dead_ranks));
  hash.f64(spec.detection_seconds);
  hash.u64(static_cast<std::uint64_t>(spec.verify));
  hash.u64(spec.sdc.seed);
  hash.f64(spec.sdc.rate);
  hash.f64(spec.sdc.sticky_rate);
  hash.i64(spec.sdc.min_bit);
  hash.i64(spec.sdc.max_bit);
  hash.u64(spec.sdc_site);
  if (spec.verify != integrity::VerifyMode::kOff || !spec.sdc.empty()) {
    // Residual/tolerance/outcome depend on the numeric values, which the
    // structural fingerprint deliberately excludes; fold them in (as the
    // matrix's cached value digest) only when verification is live so
    // timing-only runs keep their value-agnostic sharing.
    hash.u64(matrix.value_digest());
  }

  // Timing-relevant engine configuration, so one cache may serve engines
  // with different configs (the serve sweeps vary the frequency preset).
  for (int tile = 0; tile < chip::kTileCount; ++tile) {
    hash.i64(config.freq.tile_core_mhz(tile));
  }
  hash.i64(config.freq.mesh_mhz());
  hash.i64(config.freq.memory_mhz());
  for (const cache::CacheConfig& level : {config.hierarchy.l1, config.hierarchy.l2}) {
    hash.u64(level.size_bytes);
    hash.u64(level.line_bytes);
    hash.i64(level.ways);
  }
  hash.boolean(config.hierarchy.l2_enabled);
  hash.f64(config.kernel.cycles_per_nnz);
  hash.f64(config.kernel.cycles_per_row);
  hash.f64(config.kernel.l2_hit_cycles);
  hash.f64(config.kernel.barrier_ns_per_ue);
  hash.f64(config.kernel.cycles_per_ell_slot);
  hash.f64(config.kernel.cycles_per_bcsr_element);
  hash.f64(config.memory.miss_stall_fraction);
  hash.f64(config.memory.mc_peak_fraction);
  hash.boolean(config.memory.model_contention);
  hash.boolean(config.memory.model_tlb);
  hash.f64(config.memory.tlb_walk_memory_accesses);
  hash.boolean(config.measure_steady_state);
  hash.f64(config.warm_skip_factor);

  return RunKey{.matrix = matrix.fingerprint(), .spec = hash.value()};
}

ReplayKey replay_key(const sparse::CsrMatrix& source, const EngineConfig& config,
                     const RunSpec& spec, const sparse::RowBlock& block, bool warm_pass) {
  const cache::CacheConfig& l1 = config.hierarchy.l1;
  const cache::CacheConfig& l2 = config.hierarchy.l2;
  return ReplayKey{
      .matrix = source.fingerprint(),
      .reorder = spec.reorder,
      .format = spec.format,
      .variant = spec.variant,
      .row_begin = block.row_begin,
      .row_end = block.row_end,
      .warm_pass = warm_pass,
      .caches = {l1.size_bytes, l1.line_bytes, static_cast<std::uint64_t>(l1.ways),
                 l2.size_bytes, l2.line_bytes, static_cast<std::uint64_t>(l2.ways)},
      .l2_enabled = config.hierarchy.l2_enabled,
      .model_tlb = config.memory.model_tlb,
  };
}

std::size_t RunCache::RunKeyHash::operator()(const RunKey& key) const {
  // Both halves are already FNV-mixed; fold them.
  return static_cast<std::size_t>(key.matrix ^ (key.spec * 0x9e3779b97f4a7c15ULL));
}

std::size_t RunCache::ReplayKeyHash::operator()(const ReplayKey& key) const {
  common::Fnv1a hash;
  hash.u64(key.matrix);
  hash.u64(static_cast<std::uint64_t>(key.reorder));
  hash.u64(static_cast<std::uint64_t>(key.format));
  hash.u64(static_cast<std::uint64_t>(key.variant));
  hash.i64(key.row_begin);
  hash.i64(key.row_end);
  hash.boolean(key.warm_pass);
  hash.array(std::span<const std::uint64_t>(key.caches));
  hash.boolean(key.l2_enabled);
  hash.boolean(key.model_tlb);
  return static_cast<std::size_t>(hash.value());
}

RunCache::RunCache(const RunCacheConfig& config)
    : persist_path_(config.persist_path),
      runs_(config.capacity),
      replays_(kReplaysPerEntry * config.capacity) {
  SCC_REQUIRE(config.shards == 0, "RunCacheConfig::shards is unused and must be 0");
  SCC_REQUIRE(config.max_snapshot_bytes == 0,
              "RunCacheConfig::max_snapshot_bytes is unused and must be 0");
  if (!persist_path_.empty()) {
    load_snapshot(persist_path_);  // missing/invalid snapshots start cold
  }
}

RunCache::~RunCache() {
  if (persist_path_.empty()) return;
  try {
    save_snapshot(persist_path_);
  } catch (...) {
    // Destructors must not throw; a failed exit snapshot only costs warmth.
  }
}

// ---- Snapshot persistence ----
//
// A snapshot is a common::framed_file whose payload is a u64 entry count,
// then the entries back to back, least recently used first: RunKey words,
// then the RunResult fields in the order of transfer() below. A load is
// all-or-nothing: the file is decoded in full and its checksum verified
// before the first entry is inserted, in file order, so the restored
// recency order is the saved one.

namespace {

constexpr common::FrameFormat kSnapshotFormat{
    .magic = std::bit_cast<std::uint64_t>(std::array{'S', 'C', 'C', 'R', 'U', 'N', 'C', '\n'}),
    .version = RunCache::kSnapshotVersion};
constexpr std::size_t kWord = sizeof(std::uint64_t);

/// An entry's RunResult, once for both directions: `io` is a FrameWriter
/// (save; `Result` is then const) or a FrameReader (load).
template <typename Io, typename Result>
void transfer(Io& io, Result& result) {
  io.length(result.cores, static_cast<std::size_t>(chip::kCoreCount));
  for (auto& cr : result.cores) {
    io(cr.core, cr.hops);
    for (auto* stats : {&cr.trace.l1, &cr.trace.l2}) {
      io(stats->read_hits, stats->read_misses, stats->write_hits, stats->write_misses,
         stats->evictions, stats->dirty_writebacks);
    }
    io(cr.trace.memory_accesses, cr.trace.l2_hit_accesses, cr.trace.memory_read_bytes,
       cr.trace.memory_write_bytes, cr.trace.tlb_misses, cr.trace.rows, cr.trace.nnz);
    io(cr.compute_seconds, cr.l2_hit_seconds, cr.stall_seconds, cr.tlb_seconds,
       cr.isolated_seconds);
  }
  io(result.seconds, result.gflops, result.mc_bytes, result.mc_seconds, result.bandwidth_bound,
     result.mesh.total_link_bytes, result.mesh.max_link_bytes);
  io.length(result.mesh.hot_links, 64);
  for (auto& load : result.mesh.hot_links) {
    io(load.link.from.x, load.link.from.y, load.link.to.x, load.link.to.y, load.bytes);
  }
  io(result.dead_count, result.reshipped_bytes, result.recovery_seconds);
  io.bounded(result.verify, integrity::VerifyMode::kOff, integrity::VerifyMode::kCorrect);
  io.bounded(result.outcome, integrity::Outcome::kClean, integrity::Outcome::kUnrecoverable);
  io(result.sdc_injected, result.sdc_significant, result.verify_attempts, result.verify_seconds,
     result.recompute_seconds, result.verify_residual, result.verify_tolerance);
}

}  // namespace

bool RunCache::save_snapshot(const std::string& path) const {
  std::uint64_t count = 0;
  common::FrameWriter entries;
  runs_.for_each([&](const RunKey& key, const RunResult& result) {
    entries(key.matrix, key.spec);
    transfer(entries, result);
    ++count;
  });
  common::FrameWriter header;
  header(count);
  return common::write_framed_file(path, kSnapshotFormat, {header.data(), entries.data()});
}

bool RunCache::load_snapshot(const std::string& path) {
  std::vector<std::pair<RunKey, RunResult>> entries;
  const bool intact =
      common::read_framed_file(path, kSnapshotFormat, [&](common::FrameReader& in) {
        // An entry takes at least its key words.
        for (std::uint64_t n = in.count(2 * kWord); n > 0; --n) {
          auto& [key, result] = entries.emplace_back();
          in(key.matrix, key.spec);
          transfer(in, result);
        }
      });
  if (!intact) return false;
  for (const auto& [key, result] : entries) insert(key, result);
  return true;
}

}  // namespace scc::sim
