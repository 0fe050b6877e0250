#include "sim/run_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <utility>

#include "common/error.hpp"
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
// Layout (host-endian; the version/checksum pair guards against every other
// mismatch, and run caches are machine-local by construction):
//
//   8 bytes  magic "SCCRUNC\n"
//   u32      kSnapshotVersion
//   u64      entry count
//   u64      payload byte count
//   u64      FNV-1a checksum of the payload
//   payload  entries back to back: generation tag, RunKey words, then the
//            RunResult fields in the fixed order of write_result() below
//
// Any deviation -- short file, bad magic, other version, checksum mismatch,
// payload that does not parse exactly -- rejects the whole snapshot and
// leaves the cache untouched.
//
// Compaction: when RunCacheConfig::max_snapshot_bytes is set and a full
// save would exceed it, entries are kept newest-generation-first (stable
// within a generation) until the cap binds and the rest -- the oldest
// epochs -- are dropped from the file. Each successful save starts a new
// epoch, and loading resumes after the newest persisted epoch.

namespace {

constexpr char kSnapshotMagic[8] = {'S', 'C', 'C', 'R', 'U', 'N', 'C', '\n'};
/// Hard upper bound on snapshot entries: corrupt counts must not drive
/// allocation even when the checksum happens to collide.
constexpr std::uint64_t kMaxSnapshotEntries = 1u << 22;

class SnapshotWriter {
 public:
  void u32(std::uint32_t value) { raw(&value, sizeof value); }
  void u64(std::uint64_t value) { raw(&value, sizeof value); }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void boolean(bool value) { u64(value ? 1 : 0); }
  void raw(const void* data, std::size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }
  const std::string& buffer() const { return buffer_; }

 private:
  std::string buffer_;
};

class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view data) : data_(data) {}

  bool u32(std::uint32_t& value) { return raw(&value, sizeof value); }
  bool u64(std::uint64_t& value) { return raw(&value, sizeof value); }
  bool i64(std::int64_t& value) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    value = static_cast<std::int64_t>(bits);
    return true;
  }
  bool f64(double& value) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    value = std::bit_cast<double>(bits);
    return true;
  }
  bool boolean(bool& value) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    value = bits != 0;
    return true;
  }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  bool raw(void* out, std::size_t size) {
    if (data_.size() - pos_ < size) return false;
    std::memcpy(out, data_.data() + pos_, size);
    pos_ += size;
    return true;
  }
  std::string_view data_;
  std::size_t pos_ = 0;
};

void write_cache_stats(SnapshotWriter& w, const cache::CacheStats& stats) {
  w.u64(stats.read_hits);
  w.u64(stats.read_misses);
  w.u64(stats.write_hits);
  w.u64(stats.write_misses);
  w.u64(stats.evictions);
  w.u64(stats.dirty_writebacks);
}

bool read_cache_stats(SnapshotReader& r, cache::CacheStats& stats) {
  return r.u64(stats.read_hits) && r.u64(stats.read_misses) && r.u64(stats.write_hits) &&
         r.u64(stats.write_misses) && r.u64(stats.evictions) && r.u64(stats.dirty_writebacks);
}

void write_result(SnapshotWriter& w, const RunResult& result) {
  w.u64(result.cores.size());
  for (const CoreResult& cr : result.cores) {
    w.i64(cr.core);
    w.i64(cr.hops);
    write_cache_stats(w, cr.trace.l1);
    write_cache_stats(w, cr.trace.l2);
    w.u64(cr.trace.memory_accesses);
    w.u64(cr.trace.l2_hit_accesses);
    w.u64(cr.trace.memory_read_bytes);
    w.u64(cr.trace.memory_write_bytes);
    w.u64(cr.trace.tlb_misses);
    w.i64(cr.trace.rows);
    w.i64(cr.trace.nnz);
    w.f64(cr.compute_seconds);
    w.f64(cr.l2_hit_seconds);
    w.f64(cr.stall_seconds);
    w.f64(cr.tlb_seconds);
    w.f64(cr.isolated_seconds);
  }
  w.f64(result.seconds);
  w.f64(result.gflops);
  for (const bytes_t bytes : result.mc_bytes) w.u64(bytes);
  for (const double seconds : result.mc_seconds) w.f64(seconds);
  w.boolean(result.bandwidth_bound);
  w.u64(result.mesh.total_link_bytes);
  w.u64(result.mesh.max_link_bytes);
  w.u64(result.mesh.hot_links.size());
  for (const noc::Mesh::LinkLoad& load : result.mesh.hot_links) {
    w.i64(load.link.from.x);
    w.i64(load.link.from.y);
    w.i64(load.link.to.x);
    w.i64(load.link.to.y);
    w.u64(load.bytes);
  }
  w.i64(result.dead_count);
  w.u64(result.reshipped_bytes);
  w.f64(result.recovery_seconds);
  w.u64(static_cast<std::uint64_t>(result.verify));
  w.u64(static_cast<std::uint64_t>(result.outcome));
  w.boolean(result.sdc_injected);
  w.boolean(result.sdc_significant);
  w.i64(result.verify_attempts);
  w.f64(result.verify_seconds);
  w.f64(result.recompute_seconds);
  w.f64(result.verify_residual);
  w.f64(result.verify_tolerance);
}

bool read_i32(SnapshotReader& r, int& value) {
  std::int64_t wide = 0;
  if (!r.i64(wide)) return false;
  if (wide < INT32_MIN || wide > INT32_MAX) return false;
  value = static_cast<int>(wide);
  return true;
}

bool read_result(SnapshotReader& r, RunResult& result) {
  std::uint64_t core_count = 0;
  if (!r.u64(core_count) || core_count > static_cast<std::uint64_t>(chip::kCoreCount)) {
    return false;
  }
  result.cores.resize(core_count);
  for (CoreResult& cr : result.cores) {
    if (!read_i32(r, cr.core) || !read_i32(r, cr.hops)) return false;
    if (!read_cache_stats(r, cr.trace.l1) || !read_cache_stats(r, cr.trace.l2)) return false;
    if (!r.u64(cr.trace.memory_accesses) || !r.u64(cr.trace.l2_hit_accesses) ||
        !r.u64(cr.trace.memory_read_bytes) || !r.u64(cr.trace.memory_write_bytes) ||
        !r.u64(cr.trace.tlb_misses) || !r.i64(cr.trace.rows) || !r.i64(cr.trace.nnz)) {
      return false;
    }
    if (!r.f64(cr.compute_seconds) || !r.f64(cr.l2_hit_seconds) || !r.f64(cr.stall_seconds) ||
        !r.f64(cr.tlb_seconds) || !r.f64(cr.isolated_seconds)) {
      return false;
    }
  }
  if (!r.f64(result.seconds) || !r.f64(result.gflops)) return false;
  for (bytes_t& bytes : result.mc_bytes) {
    if (!r.u64(bytes)) return false;
  }
  for (double& seconds : result.mc_seconds) {
    if (!r.f64(seconds)) return false;
  }
  if (!r.boolean(result.bandwidth_bound)) return false;
  if (!r.u64(result.mesh.total_link_bytes) || !r.u64(result.mesh.max_link_bytes)) return false;
  std::uint64_t link_count = 0;
  if (!r.u64(link_count) || link_count > 64) return false;
  result.mesh.hot_links.resize(link_count);
  for (noc::Mesh::LinkLoad& load : result.mesh.hot_links) {
    if (!read_i32(r, load.link.from.x) || !read_i32(r, load.link.from.y) ||
        !read_i32(r, load.link.to.x) || !read_i32(r, load.link.to.y) || !r.u64(load.bytes)) {
      return false;
    }
  }
  if (!read_i32(r, result.dead_count) || !r.u64(result.reshipped_bytes) ||
      !r.f64(result.recovery_seconds)) {
    return false;
  }
  std::uint64_t verify = 0;
  std::uint64_t outcome = 0;
  if (!r.u64(verify) || verify > static_cast<std::uint64_t>(integrity::VerifyMode::kCorrect) ||
      !r.u64(outcome) ||
      outcome > static_cast<std::uint64_t>(integrity::Outcome::kUnrecoverable)) {
    return false;
  }
  result.verify = static_cast<integrity::VerifyMode>(verify);
  result.outcome = static_cast<integrity::Outcome>(outcome);
  return r.boolean(result.sdc_injected) && r.boolean(result.sdc_significant) &&
         read_i32(r, result.verify_attempts) && r.f64(result.verify_seconds) &&
         r.f64(result.recompute_seconds) && r.f64(result.verify_residual) &&
         r.f64(result.verify_tolerance);
}

std::uint64_t payload_checksum(const std::string& payload) {
  common::Fnv1a hash;
  hash.bytes(payload.data(), payload.size());
  return hash.value();
}

}  // namespace

bool RunCache::save_snapshot(const std::string& path) const {
  // Serialize each live entry separately so the byte cap can drop whole
  // entries, oldest generation first, without re-walking the shards.
  struct PendingEntry {
    std::uint64_t generation = 0;
    std::string bytes;
  };
  std::vector<PendingEntry> pending;
  for (const Shard& shard : shards_) {
    for (std::size_t i = 0; i < shard.slot_count; ++i) {
      const Slot& slot = shard.slots[i];
      const std::shared_ptr<const Entry> entry = slot.entry.load(std::memory_order_acquire);
      if (entry == nullptr) continue;
      SnapshotWriter one;
      one.u64(slot.generation.load(std::memory_order_relaxed));
      one.u64(entry->key.matrix);
      one.u64(entry->key.spec);
      write_result(one, entry->result);
      pending.push_back(
          {slot.generation.load(std::memory_order_relaxed), std::string(one.buffer())});
    }
  }
  // Newest epochs first; stable, so the shard scan order breaks ties and the
  // file is deterministic for a quiesced cache.
  std::stable_sort(pending.begin(), pending.end(),
                   [](const PendingEntry& a, const PendingEntry& b) {
                     return a.generation > b.generation;
                   });

  constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 8;
  SnapshotWriter payload;
  std::uint64_t entry_count = 0;
  for (const PendingEntry& entry : pending) {
    if (max_snapshot_bytes_ != 0 &&
        kHeaderBytes + payload.buffer().size() + entry.bytes.size() > max_snapshot_bytes_) {
      break;  // the rest are the oldest generations: compacted away
    }
    payload.raw(entry.bytes.data(), entry.bytes.size());
    ++entry_count;
  }

  SnapshotWriter header;
  header.u64(std::bit_cast<std::uint64_t>(kSnapshotMagic));
  header.u32(kSnapshotVersion);
  header.u64(entry_count);
  header.u64(payload.buffer().size());
  header.u64(payload_checksum(payload.buffer()));

  // Write-then-rename so a crash mid-save never leaves a torn snapshot
  // behind for the next process to reject.
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream file(tmp_path, std::ios::binary | std::ios::trunc);
    if (!file.good()) return false;
    file.write(header.buffer().data(), static_cast<std::streamsize>(header.buffer().size()));
    file.write(payload.buffer().data(), static_cast<std::streamsize>(payload.buffer().size()));
    if (!file.good()) return false;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) return false;
  // A successful save closes this epoch: entries not inserted or hit after
  // this point belong to older generations and compact away first.
  generation_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool RunCache::load_snapshot(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.good()) return false;
  std::string data((std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());

  SnapshotReader header(data);
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t entry_count = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t checksum = 0;
  if (!header.u64(magic) || !header.u32(version) || !header.u64(entry_count) ||
      !header.u64(payload_size) || !header.u64(checksum)) {
    return false;
  }
  if (magic != std::bit_cast<std::uint64_t>(kSnapshotMagic)) return false;
  if (version != kSnapshotVersion) return false;
  if (entry_count > kMaxSnapshotEntries) return false;
  constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 8;
  if (data.size() != kHeaderBytes + payload_size) return false;
  const std::string payload = data.substr(kHeaderBytes);
  if (payload_checksum(payload) != checksum) return false;

  // Parse everything before inserting anything: a snapshot is applied
  // all-or-nothing.
  struct LoadedEntry {
    std::uint64_t generation = 0;
    RunKey key;
    RunResult result;
  };
  std::vector<LoadedEntry> entries;
  entries.reserve(static_cast<std::size_t>(entry_count));
  SnapshotReader reader(payload);
  std::uint64_t newest_generation = 0;
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    LoadedEntry entry;
    if (!reader.u64(entry.generation) || !reader.u64(entry.key.matrix) ||
        !reader.u64(entry.key.spec) || !read_result(reader, entry.result)) {
      return false;
    }
    newest_generation = std::max(newest_generation, entry.generation);
    entries.push_back(std::move(entry));
  }
  if (!reader.exhausted()) return false;

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
