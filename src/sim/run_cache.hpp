// Content-keyed memoization of Engine::run -- bounded, least recently used
// first out, optionally persisted to disk -- plus a bounded table of
// per-rank trace replays that run-cache misses share.
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
// (ReplayKey -> RankReplay, kReplaysPerEntry x capacity entries). Engine::run
// looks every rank up before its fan-out, replays only the misses and
// prices all ranks for their cores as before, so a degraded run's
// survivors, a cold re-ship timing or a run on re-allocated cores reuses
// whatever any same-size core set replayed. The table is in-memory only:
// snapshots neither write nor read it.
//
// Storage (MODEL.md section 7): runs and replays each live in one
// common::LruMemo -- one mutex, a hash map and a recency list -- and are
// evicted least recently used first. Engine::run looks both up and stores
// them on its calling thread, before and after its rank fan-out, so no
// serving or sweep path contends for the locks; they keep the cache safe
// for engines on several host threads that share it.
//
// Persistence: a RunCacheConfig::persist_path names a snapshot file, a
// common::framed_file (run_cache.cpp has the payload layout). The cache
// loads it on construction and rewrites it on destruction (or explicitly
// via save_snapshot), so repeated sweeps amortize simulations *across
// processes*. Entries are written least recent first and loaded back in
// that order, so a restored cache evicts the same key as the cache that
// saved it. Corrupt, truncated or version-mismatched snapshots are
// rejected cleanly and leave the cache as it was. A hit returns a deep copy
// of the stored RunResult, bit-exact versus a cold simulation -- also after
// a snapshot round trip.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/lru_memo.hpp"
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
  KernelCounts counts;
};

/// Construction-time knobs of a RunCache.
struct RunCacheConfig {
  /// Maximum number of memoized RunResults (>= 1).
  std::size_t capacity = 128;
  /// Unread placeholder; the constructor requires 0. It stays only so the
  /// positional `RunCacheConfig{capacity, 0, path, 0}` initializers of the
  /// bench/perf harness keep compiling until that harness names its fields.
  std::size_t shards = 0;
  /// Snapshot file: loaded on construction when it exists, rewritten on
  /// destruction. Empty disables persistence.
  std::string persist_path{};
  /// Unread placeholder like `shards`; the constructor requires 0. A
  /// snapshot holds at most `capacity` entries, which bounds the file.
  std::size_t max_snapshot_bytes = 0;
};

class RunCache {
 public:
  /// Snapshot format version; bumped whenever RunKey/RunResult layout or
  /// the file framing changes, so stale files are rejected, never misread.
  /// v3: RunKey covers the verify/SDC knobs (plus matrix values when
  /// verification is live) and RunResult carries the ABFT fields.
  /// v4: the common::framed_file framing.
  /// v5: entries carry no generation tag and are written least recently
  /// used first.
  static constexpr std::uint32_t kSnapshotVersion = 5;
  /// Bound of the replay table, per entry of whole-run capacity: a default
  /// cache keeps up to 1,024 replays, about 300 bytes each.
  static constexpr std::size_t kReplaysPerEntry = 8;

  explicit RunCache(const RunCacheConfig& config = {});

  ~RunCache();
  RunCache(const RunCache&) = delete;
  RunCache& operator=(const RunCache&) = delete;

  /// Deep copy of the entry for `key` (now the most recently used), or
  /// nullopt; counts a hit or a miss.
  std::optional<RunResult> lookup(const RunKey& key) { return runs_.find(key); }

  /// Store (or replace) `key` as the most recently used entry, evicting the
  /// least recently used one when the cache is full.
  void insert(const RunKey& key, const RunResult& result) { runs_.put(key, result); }

  /// Copy of the stored replay for `key`, or nullopt; counts a replay hit
  /// or miss.
  std::optional<RankReplay> lookup_replay(const ReplayKey& key) { return replays_.find(key); }

  /// Store (or replace) `replay` under `key`, evicting the least recently
  /// used replay when the table is full.
  void insert_replay(const ReplayKey& key, const RankReplay& replay) {
    replays_.put(key, replay);
  }

  /// Point-in-time counters of the run memo and of the replay table.
  struct Stats {
    common::LruStats runs;
    common::LruStats replays;
  };
  Stats stats() const { return {runs_.stats(), replays_.stats()}; }

  std::size_t size() const { return runs_.stats().size; }
  std::size_t capacity() const { return runs_.stats().capacity; }
  std::size_t replay_capacity() const { return replays_.stats().capacity; }
  const std::string& persist_path() const { return persist_path_; }
  std::uint64_t hits() const { return runs_.stats().hits; }
  std::uint64_t misses() const { return runs_.stats().misses; }

  /// Write every run entry into `path` (atomically: temp file + rename),
  /// least recently used first. Returns false when the file cannot be
  /// written.
  bool save_snapshot(const std::string& path) const;

  /// Merge the entries of the snapshot at `path` into this cache through
  /// insert, in file order (capacity and eviction apply). Returns false --
  /// without touching the cache -- when the file is missing, truncated,
  /// corrupt (checksum) or from a different snapshot version.
  bool load_snapshot(const std::string& path);

 private:
  struct RunKeyHash {
    std::size_t operator()(const RunKey& key) const;
  };
  struct ReplayKeyHash {
    std::size_t operator()(const ReplayKey& key) const;
  };

  std::string persist_path_;
  common::LruMemo<RunKey, RunResult, RunKeyHash> runs_;
  common::LruMemo<ReplayKey, RankReplay, ReplayKeyHash> replays_;
};

}  // namespace scc::sim
