#include "sim/run_cache.hpp"

#include <algorithm>
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

namespace {

std::uint64_t fold_key(const RunKey& key) {
  // The halves are already FNV-mixed; fold them.
  return key.matrix ^ (key.spec * 0x9e3779b97f4a7c15ULL);
}

std::size_t resolve_shard_count(const RunCacheConfig& config) {
  std::size_t shards = config.shards;
  if (shards == 0) {
    // Auto: about 16 slots per shard keeps the in-shard scan short while a
    // default-capacity cache still spreads over 8 shards.
    constexpr std::size_t kTargetSlotsPerShard = 16;
    constexpr std::size_t kMaxAutoShards = 16;
    shards = std::clamp<std::size_t>(config.capacity / kTargetSlotsPerShard, 1, kMaxAutoShards);
  }
  shards = std::bit_ceil(shards);
  while (shards > config.capacity) shards >>= 1;  // every shard owns >= 1 slot
  return std::max<std::size_t>(shards, 1);
}

}  // namespace

RunCache::RunCache(const RunCacheConfig& config)
    : capacity_(config.capacity),
      persist_path_(config.persist_path),
      max_snapshot_bytes_(config.max_snapshot_bytes),
      replay_capacity_(kReplaysPerEntry * config.capacity) {
  SCC_REQUIRE(capacity_ >= 1, "RunCache capacity must be >= 1");
  const std::size_t shard_count = resolve_shard_count(config);
  shards_ = std::vector<Shard>(shard_count);
  // Distribute the capacity exactly: the first (capacity % shards) shards
  // hold one extra slot, so the global bound is the configured capacity.
  const std::size_t base = capacity_ / shard_count;
  const std::size_t extra = capacity_ % shard_count;
  for (std::size_t i = 0; i < shard_count; ++i) {
    Shard& shard = shards_[i];
    shard.slot_count = base + (i < extra ? 1 : 0);
    shard.slots = std::make_unique<Slot[]>(shard.slot_count);
  }
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

RunCache::Shard& RunCache::shard_of(const RunKey& key) {
  return shards_[fold_key(key) & (shards_.size() - 1)];
}

const RunCache::Shard& RunCache::shard_of(const RunKey& key) const {
  return shards_[fold_key(key) & (shards_.size() - 1)];
}

std::optional<RunResult> RunCache::lookup(const RunKey& key) {
  Shard& shard = shard_of(key);
  for (std::size_t i = 0; i < shard.slot_count; ++i) {
    Slot& slot = shard.slots[i];
    // Cheap atomic pre-filter; the immutable entry's own key is re-verified
    // below, so racing with an insert can only turn a hit into a miss.
    if (slot.key_matrix.load(std::memory_order_relaxed) != key.matrix ||
        slot.key_spec.load(std::memory_order_relaxed) != key.spec) {
      continue;
    }
    const std::shared_ptr<const Entry> entry = slot.entry.load(std::memory_order_acquire);
    if (entry == nullptr || !(entry->key == key)) continue;
    slot.referenced.store(true, std::memory_order_relaxed);  // second chance
    // A hit refreshes the entry's save epoch, so hot entries survive
    // snapshot compaction.
    slot.generation.store(generation_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    return entry->result;  // deep copy of the immutable entry
  }
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void RunCache::insert(const RunKey& key, const RunResult& result) {
  insert_with_generation(key, result, generation_.load(std::memory_order_relaxed));
}

void RunCache::insert_with_generation(const RunKey& key, const RunResult& result,
                                      std::uint64_t generation) {
  auto entry = std::make_shared<const Entry>(Entry{key, result});
  Shard& shard = shard_of(key);
  const std::lock_guard<std::mutex> lock(shard.insert_mutex);

  Slot* empty = nullptr;
  for (std::size_t i = 0; i < shard.slot_count; ++i) {
    Slot& slot = shard.slots[i];
    const std::shared_ptr<const Entry> current = slot.entry.load(std::memory_order_relaxed);
    if (current == nullptr) {
      if (empty == nullptr) empty = &slot;
      continue;
    }
    if (current->key == key) {
      // Refresh in place (the old LRU's re-insert splice): same key, new
      // result, recently used.
      slot.entry.store(std::move(entry), std::memory_order_release);
      slot.referenced.store(true, std::memory_order_relaxed);
      slot.generation.store(generation, std::memory_order_relaxed);
      shard.insertions.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }

  Slot* victim = empty;
  if (victim == nullptr) {
    // CLOCK second chance: clear reference bits until an unreferenced slot
    // comes under the hand (bounded by two sweeps).
    while (true) {
      Slot& slot = shard.slots[shard.clock_hand];
      shard.clock_hand = (shard.clock_hand + 1) % shard.slot_count;
      if (slot.referenced.exchange(false, std::memory_order_relaxed)) continue;
      victim = &slot;
      break;
    }
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  } else {
    shard.size.fetch_add(1, std::memory_order_relaxed);
  }

  // Publish key words first, entry last (release): a racing reader either
  // rejects on the key pre-filter or re-verifies against the entry's key.
  victim->key_matrix.store(key.matrix, std::memory_order_relaxed);
  victim->key_spec.store(key.spec, std::memory_order_relaxed);
  victim->referenced.store(false, std::memory_order_relaxed);  // no free second chance
  victim->generation.store(generation, std::memory_order_relaxed);
  victim->entry.store(std::move(entry), std::memory_order_release);
  shard.insertions.fetch_add(1, std::memory_order_relaxed);
}

std::optional<RankReplay> RunCache::lookup_replay(const ReplayKey& key) {
  const std::lock_guard<std::mutex> lock(replay_mutex_);
  const auto it = replays_.find(key);
  if (it == replays_.end()) {
    ++replay_misses_;
    return std::nullopt;
  }
  ++replay_hits_;
  return it->second;
}

void RunCache::insert_replay(const ReplayKey& key, const RankReplay& replay) {
  const std::lock_guard<std::mutex> lock(replay_mutex_);
  const auto [it, inserted] = replays_.emplace(key, replay);
  if (!inserted) return;  // an engine racing on the same rank stored it first
  replay_order_.push_back(&it->first);
  if (replay_order_.size() > replay_capacity_) {
    replays_.erase(replays_.find(*replay_order_.front()));
    replay_order_.pop_front();
  }
}

void RunCache::clear() {
  {
    const std::lock_guard<std::mutex> lock(replay_mutex_);
    replays_.clear();
    replay_order_.clear();
  }
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.insert_mutex);
    for (std::size_t i = 0; i < shard.slot_count; ++i) {
      Slot& slot = shard.slots[i];
      slot.entry.store(nullptr, std::memory_order_release);
      slot.key_matrix.store(0, std::memory_order_relaxed);
      slot.key_spec.store(0, std::memory_order_relaxed);
      slot.referenced.store(false, std::memory_order_relaxed);
      slot.generation.store(0, std::memory_order_relaxed);
    }
    shard.clock_hand = 0;
    shard.size.store(0, std::memory_order_relaxed);
  }
}

RunCache::Stats RunCache::stats() const {
  Stats stats;
  stats.per_shard.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    ShardStats s;
    s.hits = shard.hits.load(std::memory_order_relaxed);
    s.misses = shard.misses.load(std::memory_order_relaxed);
    s.evictions = shard.evictions.load(std::memory_order_relaxed);
    s.insertions = shard.insertions.load(std::memory_order_relaxed);
    s.size = shard.size.load(std::memory_order_relaxed);
    s.capacity = shard.slot_count;
    stats.total.hits += s.hits;
    stats.total.misses += s.misses;
    stats.total.evictions += s.evictions;
    stats.total.insertions += s.insertions;
    stats.total.size += s.size;
    stats.total.capacity += s.capacity;
    stats.per_shard.push_back(s);
  }
  const std::lock_guard<std::mutex> lock(replay_mutex_);
  stats.replay_hits = replay_hits_;
  stats.replay_misses = replay_misses_;
  stats.replay_size = replays_.size();
  return stats;
}

std::size_t RunCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.size.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t RunCache::hits() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.hits.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t RunCache::misses() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.misses.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t RunCache::evictions() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.evictions.load(std::memory_order_relaxed);
  return total;
}

// ---- Snapshot persistence ----
//
// A snapshot is a common::framed_file whose payload is a u64 entry count,
// then the entries back to back: generation tag, RunKey words, then the
// RunResult fields in the order of transfer() below. A load is
// all-or-nothing: the file is decoded in full and its checksum verified
// before the first entry is inserted.
//
// Compaction: when RunCacheConfig::max_snapshot_bytes is set and a full
// save would exceed it, entries are kept newest-generation-first (stable
// within a generation) until the cap binds and the rest -- the oldest
// epochs -- are dropped from the file. Each successful save starts a new
// epoch, and loading resumes after the newest persisted epoch.

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
  // Encode each live entry separately so the byte cap can drop whole
  // entries, oldest generation first, without re-walking the shards.
  struct PendingEntry {
    std::uint64_t generation = 0;
    common::FrameWriter encoded;
  };
  std::vector<PendingEntry> pending;
  for (const Shard& shard : shards_) {
    for (std::size_t i = 0; i < shard.slot_count; ++i) {
      const Slot& slot = shard.slots[i];
      const std::shared_ptr<const Entry> entry = slot.entry.load(std::memory_order_acquire);
      if (entry == nullptr) continue;
      PendingEntry& one = pending.emplace_back();
      one.generation = slot.generation.load(std::memory_order_relaxed);
      one.encoded(one.generation, entry->key.matrix, entry->key.spec);
      transfer(one.encoded, entry->result);
    }
  }
  // Newest epochs first; stable, so the shard scan order breaks ties and the
  // file is deterministic for a quiesced cache.
  std::stable_sort(pending.begin(), pending.end(),
                   [](const PendingEntry& a, const PendingEntry& b) {
                     return a.generation > b.generation;
                   });

  std::size_t file_bytes = common::kFrameHeaderBytes + kWord;
  std::size_t kept = 0;
  for (; kept < pending.size(); ++kept) {
    file_bytes += pending[kept].encoded.data().size();
    // The rest are the oldest generations: compacted away.
    if (max_snapshot_bytes_ != 0 && file_bytes > max_snapshot_bytes_) break;
  }
  common::FrameWriter payload;
  payload(kept);
  for (std::size_t i = 0; i < kept; ++i) {
    payload.bytes(pending[i].encoded.data().data(), pending[i].encoded.data().size());
  }
  if (!common::write_framed_file(path, kSnapshotFormat, {payload.data()})) return false;
  // A successful save closes this epoch: entries not inserted or hit after
  // this point belong to older generations and compact away first.
  generation_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool RunCache::load_snapshot(const std::string& path) {
  struct LoadedEntry {
    std::uint64_t generation = 0;
    RunKey key;
    RunResult result;
  };
  std::vector<LoadedEntry> entries;
  std::uint64_t newest_generation = 0;
  const bool intact =
      common::read_framed_file(path, kSnapshotFormat, [&](common::FrameReader& in) {
        // An entry takes at least its generation and key words.
        for (std::uint64_t n = in.count(3 * kWord); n > 0; --n) {
          LoadedEntry& entry = entries.emplace_back();
          in(entry.generation, entry.key.matrix, entry.key.spec);
          transfer(in, entry.result);
          newest_generation = std::max(newest_generation, entry.generation);
        }
      });
  if (!intact) return false;

  // Entries keep their persisted epochs; new activity lands in the epoch
  // after the newest persisted one, so re-saving still ages the stale tail.
  for (const LoadedEntry& entry : entries) {
    insert_with_generation(entry.key, entry.result, entry.generation);
  }
  generation_.store(std::max(generation_.load(std::memory_order_relaxed),
                             newest_generation + 1),
                    std::memory_order_relaxed);
  return true;
}

}  // namespace scc::sim
