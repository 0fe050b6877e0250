// The tuning cache: content-keyed winners of the autotuner's exploration.
//
// One exploration prices a matrix's whole (format x reorder x core-count)
// grid through the engine; the winner is pinned here under the matrix's
// structural fingerprint plus a context hash (engine config + fast-path
// switch), so millions of requests -- and every serving layer sharing the
// pool -- amortize that single exploration. The cache is bounded (least recently
// used evicted first, deterministic), thread-safe (serve and cluster
// simulators consult it from concurrent sweeps), and snapshot-persistable (a
// common::framed_file) so warm tuning decisions survive across processes. It
// also carries the class winner table backing the Kimball-style fast path:
// structural class -> last winning candidate, letting familiar structure
// skip full exploration. Both tables are common::LruMemo maps.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/lru_memo.hpp"
#include "scc/mapping.hpp"
#include "sim/engine.hpp"

namespace scc::tune {

/// One point of the exploration grid / one pinned serving plan.
struct Candidate {
  sim::StorageFormat format = sim::StorageFormat::kCsr;
  sim::Reordering reorder = sim::Reordering::kNone;
  int ue_count = 1;
  chip::MappingPolicy policy = chip::MappingPolicy::kDistanceReduction;
  friend bool operator==(const Candidate&, const Candidate&) = default;
};

/// Content key of a tuning decision: the matrix's structural fingerprint and
/// the tuning context (engine config + fast-path switch), so one cache can
/// serve differently-configured tuners without collisions.
struct TuningKey {
  std::uint64_t matrix = 0;
  std::uint64_t context = 0;
  friend bool operator==(const TuningKey&, const TuningKey&) = default;
};

/// The pinned outcome of one decide() call.
struct TuningDecision {
  Candidate choice;
  double modeled_seconds = 0.0;   ///< engine steady-state seconds of the winner
  double baseline_seconds = 0.0;  ///< best CSR/no-reorder seconds for comparison
  std::uint64_t class_key = 0;    ///< structural class of the matrix
  bool predicted = false;         ///< fast path: classified, not fully explored
  int explored_runs = 0;          ///< engine evaluations this decision cost
};

struct TuningCacheConfig {
  std::size_t capacity = 256;  ///< decisions held (>= 1); least recently used evicted first
  /// Snapshot file: loaded on construction when present, rewritten on
  /// destruction. Empty disables persistence.
  std::string persist_path;
};

class TuningCache {
 public:
  /// Snapshot format version; bumped on any layout change so stale files
  /// are rejected, never misread. v2: the common::framed_file framing, with
  /// both tables written in eviction order, next victim first. v3: the
  /// context hash no longer covers the (now fixed) exploration grid.
  static constexpr std::uint32_t kSnapshotVersion = 3;

  explicit TuningCache(const TuningCacheConfig& config = {});
  ~TuningCache();
  TuningCache(const TuningCache&) = delete;
  TuningCache& operator=(const TuningCache&) = delete;

  std::optional<TuningDecision> lookup(const TuningKey& key) { return decisions_.find(key); }
  void insert(const TuningKey& key, const TuningDecision& decision) {
    decisions_.put(key, decision);
  }

  /// Class-winner table for the feature fast path: the last explored winner
  /// of a structural class (bounded alongside the decisions).
  std::optional<Candidate> class_winner(std::uint64_t class_key) {
    return class_winners_.find(class_key);
  }
  void note_class_winner(std::uint64_t class_key, const Candidate& candidate) {
    class_winners_.put(class_key, candidate);
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
    std::size_t class_entries = 0;
  };
  Stats stats() const;

  std::size_t size() const { return decisions_.stats().size; }
  std::size_t capacity() const { return decisions_.stats().capacity; }
  const std::string& persist_path() const { return persist_path_; }

  /// Atomic snapshot of every decision and class winner, each table least
  /// recently used first.
  bool save_snapshot(const std::string& path) const;
  /// All-or-nothing merge of a snapshot through the bounded insert path, in
  /// file order; false (cache untouched) on missing/corrupt/stale files.
  bool load_snapshot(const std::string& path);

 private:
  struct TuningKeyHash {
    std::size_t operator()(const TuningKey& key) const {
      // Both halves are already hashes; fold them.
      return static_cast<std::size_t>(key.matrix ^ (key.context * 0x9e3779b97f4a7c15ULL));
    }
  };

  std::string persist_path_;
  common::LruMemo<TuningKey, TuningDecision, TuningKeyHash> decisions_;
  common::LruMemo<std::uint64_t, Candidate> class_winners_;
};

}  // namespace scc::tune
