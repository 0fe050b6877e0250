// The tuning cache: content-keyed winners of the autotuner's exploration.
//
// One exploration prices a matrix's whole (format x reorder x core-count x
// mapping) grid through the engine; the winner is pinned here under the
// matrix's structural fingerprint plus a context hash (engine config + grid),
// so millions of requests -- and every serving layer sharing the pool --
// amortize that single exploration. The cache is bounded (FIFO eviction,
// deterministic), thread-safe (serve and cluster simulators consult it from
// concurrent sweeps), and snapshot-persistable (a common::framed_file) so
// warm tuning decisions survive across processes. It also carries the class
// winner table backing the Kimball-style fast path: structural class ->
// last winning candidate, letting familiar structure skip full exploration.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

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
/// the tuning context (engine config + exploration grid), so one cache can
/// serve differently-configured tuners without collisions.
struct TuningKey {
  std::uint64_t matrix = 0;
  std::uint64_t context = 0;
  friend bool operator==(const TuningKey&, const TuningKey&) = default;
  friend auto operator<=>(const TuningKey&, const TuningKey&) = default;
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
  std::size_t capacity = 256;  ///< decisions held (>= 1); FIFO eviction
  /// Snapshot file: loaded on construction when present, rewritten on
  /// destruction. Empty disables persistence.
  std::string persist_path;
};

class TuningCache {
 public:
  /// Snapshot format version; bumped on any layout change so stale files
  /// are rejected, never misread. v2: the common::framed_file framing, with
  /// both tables written in FIFO order.
  static constexpr std::uint32_t kSnapshotVersion = 2;

  explicit TuningCache(const TuningCacheConfig& config = {});
  ~TuningCache();
  TuningCache(const TuningCache&) = delete;
  TuningCache& operator=(const TuningCache&) = delete;

  std::optional<TuningDecision> lookup(const TuningKey& key);
  void insert(const TuningKey& key, const TuningDecision& decision);

  /// Class-winner table for the feature fast path: the last explored winner
  /// of a structural class (bounded alongside the decisions).
  std::optional<Candidate> class_winner(std::uint64_t class_key) const;
  void note_class_winner(std::uint64_t class_key, const Candidate& candidate);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
    std::size_t class_entries = 0;
  };
  Stats stats() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  const std::string& persist_path() const { return persist_path_; }

  /// Atomic snapshot of every decision and class winner, in FIFO order.
  bool save_snapshot(const std::string& path) const;
  /// All-or-nothing merge of a snapshot through the bounded insert path, in
  /// FIFO order; false (cache untouched) on missing/corrupt/stale files.
  bool load_snapshot(const std::string& path);

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::string persist_path_;
  std::map<TuningKey, TuningDecision> decisions_;
  std::deque<TuningKey> insertion_order_;  ///< FIFO eviction queue
  std::map<std::uint64_t, Candidate> class_winners_;
  std::deque<std::uint64_t> class_order_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
};

}  // namespace scc::tune
