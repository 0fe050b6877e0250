// A bounded, thread-safe memo table with least-recently-used eviction: the
// storage behind the engine's run cache (whole runs and per-rank replays)
// and the autotuner's tuning cache (decisions and class winners).
//
// One mutex guards one hash map and one recency list. The map holds each
// value together with its key's position in the list; the list holds
// pointers to the map's keys, least recently used first. A rehash moves no
// map node, so those pointers stay valid until their entry is erased. A
// find or a put makes its key the most recent, and a put of a new key into
// a full memo first evicts the least recent one. An entry costs one list
// node and one map node. The map is not reserved for the capacity up
// front: in `bench/perf` `tune_explore` (4-vCPU VM), a fresh run cache that
// reserved its 1,024-replay bucket array at construction raised peak RSS
// from about 22.5 to 24.3 MB on 6 of 20 seeds, through heap fragmentation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/error.hpp"

namespace scc::common {

/// Point-in-time counters of one LruMemo.
struct LruStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;  ///< put calls, replacements of a present key included
  std::uint64_t evictions = 0;
  std::size_t size = 0;
  std::size_t capacity = 0;
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruMemo {
 public:
  /// A memo of at most `capacity` (>= 1) entries.
  explicit LruMemo(std::size_t capacity) {
    SCC_REQUIRE(capacity >= 1, "cache capacity must be >= 1");
    stats_.capacity = capacity;
  }
  LruMemo(const LruMemo&) = delete;
  LruMemo& operator=(const LruMemo&) = delete;

  /// Copy of the value stored under `key`, which becomes the most recent;
  /// nullopt when absent. Counts a hit or a miss.
  std::optional<Value> find(const Key& key) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    order_.splice(order_.end(), order_, it->second.position);
    return it->second.value;
  }

  /// Store `value` under `key` as the most recent entry. A present key has
  /// its value replaced; a new key evicts the least recent entry of a full
  /// memo.
  void put(const Key& key, const Value& value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.insertions;
    if (const auto it = index_.find(key); it != index_.end()) {
      it->second.value = value;
      order_.splice(order_.end(), order_, it->second.position);
      return;
    }
    if (index_.size() == stats_.capacity) {
      index_.erase(*order_.front());
      order_.pop_front();
      ++stats_.evictions;
    }
    const auto it = index_.emplace(key, Slot{value, order_.end()}).first;
    it->second.position = order_.insert(order_.end(), &it->first);
  }

  /// Call `fn(key, value)` for every entry, least recent first, without
  /// touching recency. The lock is held throughout, so the walk sees one
  /// consistent state; `fn` must not call back into this memo.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Key* key : order_) fn(*key, index_.find(*key)->second.value);
  }

  LruStats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    LruStats stats = stats_;
    stats.size = index_.size();
    return stats;
  }

 private:
  /// Keys from least to most recently used, pointing into index_'s nodes.
  using Order = std::list<const Key*>;
  struct Slot {
    Value value;
    typename Order::iterator position;
  };

  mutable std::mutex mutex_;  ///< guards everything below
  std::unordered_map<Key, Slot, Hash> index_;
  Order order_;
  LruStats stats_;  ///< size is filled in by stats()
};

}  // namespace scc::common
