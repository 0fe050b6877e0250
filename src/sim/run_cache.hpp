// Content-keyed memoization of Engine::run -- sharded, mostly lock-free,
// optionally persisted to disk -- plus a bounded table of per-rank trace
// replays that run-cache misses share.
//
// The serving layers dispatch bit-identical (matrix, RunSpec) jobs over and
// over -- every same-matrix batch, every failover replay, every sweep point
// re-prices the same simulation. A RunCache sits in front of Engine::run
// (attach with Engine::attach_run_cache) and keys each run by content:
//
//   * the matrix's structural fingerprint (sparse::CsrMatrix::fingerprint,
//     FNV-1a over rows/cols/ptr/col -- values cannot influence the trace
//     addresses, so they are excluded on purpose), and
//   * a canonical hash of the *effective* spec: the resolved core table
//     (so `ue_count`+policy and the equivalent explicit core list share an
//     entry), format, variant, forced hops, dead ranks, detection window,
//     verify/SDC knobs (plus the matrix's value digest when verification is
//     live), plus the full timing-relevant EngineConfig (frequency domains,
//     cache geometry, kernel/memory cost models, steady-state switches) so
//     one cache can safely serve engines with different configurations.
//
// Both matrix digests are computed once per matrix and cached on it, so a
// key costs a hash of the spec and config only (MODEL.md section 7).
//
// Per-rank replay reuse (MODEL.md section 7): a whole-run miss still need
// not replay every rank. A rank's trace and kernel counts depend only on
// its row block of the (possibly RCM-reordered) matrix, the trace kind, the
// warm-pass flag and the private L1/L2/TLB geometry -- never on the core it
// runs on -- so the cache also keeps a bounded table of those replays
// (ReplayKey -> RankReplay, kReplaysPerEntry x capacity entries, oldest
// evicted first, one mutex). Engine::run looks every rank up before its
// fan-out, replays only the misses and prices all ranks for their cores
// as before, so a degraded run's survivors, a cold re-ship timing or a run
// on re-allocated cores reuses whatever any same-size core set replayed.
// The table is in-memory only: snapshots neither write nor read it.
//
// Concurrency (MODEL.md section 7): the cache is split into a power-of-two
// number of shards selected by the key hash. Each shard is a fixed slot
// array; a published entry is an immutable heap object held by an atomic
// shared_ptr, and the hot hit path -- scan the shard's atomic key words,
// load the entry, verify, deep-copy -- takes **no lock**. Only inserts
// take a per-shard mutex, and eviction is CLOCK/second-chance over atomic
// reference bits (fresh entries start unreferenced, so an untouched entry
// is evicted before one that has served a hit -- LRU-like without the
// global splice the old mutex-guarded list needed). Hit/miss/eviction
// counters are per-shard atomics aggregated on demand into Stats, so
// engines sharing one cache never contend or double-count.
//
// Persistence: a RunCacheConfig::persist_path names a versioned,
// checksummed snapshot file (host-endian; see run_cache.cpp for the
// layout). The cache loads it on construction and rewrites it on
// destruction (or explicitly via save_snapshot), so repeated sweeps
// amortize simulations *across processes*. Corrupt, truncated or
// version-mismatched snapshots are rejected cleanly and leave the cache
// empty. A hit returns a deep copy of the stored RunResult, bit-exact
// versus a cold simulation -- also after a snapshot round trip.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"

namespace scc::sim {

/// 128-bit content key of one memoizable run.
struct RunKey {
  std::uint64_t matrix = 0;  ///< CsrMatrix::fingerprint()
  std::uint64_t spec = 0;    ///< canonical (effective spec + config) hash
  friend bool operator==(const RunKey&, const RunKey&) = default;
};

/// Canonical key for simulating `matrix` under `spec` (with `cores` already
/// resolved from the policy) on an engine built from `config`. Exposed for
/// tests; Engine::run computes it internally.
RunKey run_key(const sparse::CsrMatrix& matrix, const EngineConfig& config,
               const std::vector<int>& cores, const RunSpec& spec);

/// Identity of one rank's trace replay: everything its TraceResult and
/// kernel counts depend on. The core, clocks, kernel cost model, hops and
/// verification are applied after the replay, so they stay out of the key.
struct ReplayKey {
  std::uint64_t matrix = 0;  ///< fingerprint() of the matrix before any reorder
  Reordering reorder = Reordering::kNone;
  StorageFormat format = StorageFormat::kCsr;
  SpmvVariant variant = SpmvVariant::kCsr;
  index_t row_begin = 0;  ///< the rank's row block (of the reordered matrix)
  index_t row_end = 0;
  bool warm_pass = false;
  /// L1 then L2 size, line and ways; the TLB geometry is fixed, so only
  /// the model_tlb switch varies it.
  std::array<std::uint64_t, 6> caches{};
  bool l2_enabled = true;
  bool model_tlb = true;
  friend bool operator==(const ReplayKey&, const ReplayKey&) = default;
};

/// Key of replaying `block` of `source` (reordered by `spec.reorder`) with
/// `spec`'s trace kind on an engine built from `config`. Exposed for
/// tests; Engine::run computes it internally.
ReplayKey replay_key(const sparse::CsrMatrix& source, const EngineConfig& config,
                     const RunSpec& spec, const sparse::RowBlock& block, bool warm_pass);

/// One rank's replay: its trace plus the raw kernel counts the cost model
/// prices -- nnz and rows for CSR, executed elements and rows iterated for
/// ELL/BCSR/HYB. Never cycles or seconds, which depend on the core.
struct RankReplay {
  TraceResult trace;
  double elements = 0.0;
  double rows = 0.0;
};

/// Construction-time knobs of a RunCache.
struct RunCacheConfig {
  /// Maximum number of memoized RunResults held across all shards (>= 1).
  std::size_t capacity = 128;
  /// Shard count; rounded up to a power of two and clamped so every shard
  /// owns at least one slot. 0 selects automatically from the capacity
  /// (about 16 slots per shard, at most 16 shards).
  std::size_t shards = 0;
  /// Snapshot file: loaded on construction when it exists, rewritten on
  /// destruction. Empty disables persistence.
  std::string persist_path{};
  /// Byte cap on the snapshot file (0 = unlimited). When a save would
  /// exceed it, entries from the oldest generations are dropped first (a
  /// generation is one save epoch; hits refresh an entry's generation), so
  /// long-lived sweep farms age stale engine-config entries out of the file
  /// instead of growing it forever.
  std::size_t max_snapshot_bytes = 0;
};

class RunCache {
 public:
  /// Snapshot format version; bumped whenever RunKey/RunResult layout or
  /// the file framing changes, so stale files are rejected, never misread.
  /// v2: RunKey covers RunSpec::reorder and every entry carries a
  /// generation tag for byte-capped compaction.
  /// v3: RunKey covers the verify/SDC knobs (plus matrix values when
  /// verification is live) and RunResult carries the ABFT fields.
  static constexpr std::uint32_t kSnapshotVersion = 3;
  /// Bound of the replay table, per entry of whole-run capacity: a default
  /// cache keeps up to 1,024 replays, about 300 bytes each.
  static constexpr std::size_t kReplaysPerEntry = 8;

  explicit RunCache(const RunCacheConfig& config = {});

  ~RunCache();
  RunCache(const RunCache&) = delete;
  RunCache& operator=(const RunCache&) = delete;

  /// Deep copy of the entry for `key` (marking it recently used), or
  /// nullopt. Lock-free; counts a hit or a miss on the key's shard.
  std::optional<RunResult> lookup(const RunKey& key);

  /// Store (or refresh) `key`, evicting a second-chance victim when the
  /// key's shard is full. Takes only that shard's insert mutex.
  void insert(const RunKey& key, const RunResult& result);

  /// Copy of the stored replay for `key`, or nullopt; counts a replay hit
  /// or miss.
  std::optional<RankReplay> lookup_replay(const ReplayKey& key);

  /// Store `replay` under `key` unless it is already present, evicting the
  /// oldest replay when the table is full.
  void insert_replay(const ReplayKey& key, const RankReplay& replay);

  std::size_t replay_capacity() const { return replay_capacity_; }

  /// Drop every run and replay entry (counters keep counting).
  void clear();

  /// Point-in-time counters of one shard (and, aggregated, of the cache).
  struct ShardStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insertions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
    double load_factor() const {
      return capacity == 0 ? 0.0 : static_cast<double>(size) / static_cast<double>(capacity);
    }
  };
  struct Stats {
    ShardStats total;                    ///< sums over every shard
    std::vector<ShardStats> per_shard;   ///< indexed by shard id
    std::uint64_t replay_hits = 0;       ///< ranks served from the replay table
    std::uint64_t replay_misses = 0;     ///< ranks replayed
    std::size_t replay_size = 0;         ///< replays held (<= replay_capacity())
  };
  Stats stats() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::size_t shard_count() const { return shards_.size(); }
  const std::string& persist_path() const { return persist_path_; }
  std::size_t max_snapshot_bytes() const { return max_snapshot_bytes_; }
  /// Current save epoch: entries inserted or hit now are stamped with it;
  /// each successful save starts a new epoch.
  std::uint64_t generation() const { return generation_.load(std::memory_order_relaxed); }
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;

  /// Write every live entry into `path` (atomically: tmp file + rename).
  /// Returns false when the file cannot be written.
  bool save_snapshot(const std::string& path) const;

  /// Merge the entries of the snapshot at `path` into this cache through
  /// the normal insert path (capacity and eviction apply). Returns false --
  /// without touching the cache -- when the file is missing, truncated,
  /// corrupt (checksum) or from a different snapshot version.
  bool load_snapshot(const std::string& path);

 private:
  /// Immutable once published; readers holding the shared_ptr are safe
  /// against concurrent eviction/replacement.
  struct Entry {
    RunKey key;
    RunResult result;
  };

  struct Slot {
    /// Mirrors Entry::key so the scan can reject non-matching slots without
    /// touching the shared_ptr; the entry's own key is the authority.
    std::atomic<std::uint64_t> key_matrix{0};
    std::atomic<std::uint64_t> key_spec{0};
    std::atomic<bool> referenced{false};  ///< CLOCK second-chance bit
    /// Save epoch of the last insert or hit; snapshot compaction drops the
    /// oldest generations first when the byte cap binds.
    std::atomic<std::uint64_t> generation{0};
    std::atomic<std::shared_ptr<const Entry>> entry;
  };

  struct Shard {
    std::unique_ptr<Slot[]> slots;
    std::size_t slot_count = 0;
    std::mutex insert_mutex;    ///< writers only; the hit path never locks
    std::size_t clock_hand = 0;  ///< guarded by insert_mutex
    std::atomic<std::size_t> size{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> insertions{0};
  };

  Shard& shard_of(const RunKey& key);
  const Shard& shard_of(const RunKey& key) const;
  void insert_with_generation(const RunKey& key, const RunResult& result,
                              std::uint64_t generation);

  std::size_t capacity_;
  std::string persist_path_;
  std::size_t max_snapshot_bytes_ = 0;
  /// Save epoch counter; mutable because a (const) save starts a new epoch.
  mutable std::atomic<std::uint64_t> generation_{1};
  std::vector<Shard> shards_;

  struct ReplayKeyHash {
    std::size_t operator()(const ReplayKey& key) const;
  };
  std::size_t replay_capacity_;
  mutable std::mutex replay_mutex_;  ///< guards everything below
  std::unordered_map<ReplayKey, RankReplay, ReplayKeyHash> replays_;
  /// Keys of `replays_` in insertion order (pointers into its nodes, which
  /// stay put until erased): the front is evicted first.
  std::deque<const ReplayKey*> replay_order_;
  std::uint64_t replay_hits_ = 0;
  std::uint64_t replay_misses_ = 0;
};

}  // namespace scc::sim
