// common::LruMemo, the storage of the run cache and the tuning cache, checked
// against a naive reference: a vector kept in recency order (least recent
// first) with a linear search. Seeded random find/put streams at several
// capacities must agree on every find, every counter and the walk order.
#include "common/lru_memo.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace scc::common {
namespace {

/// The reference: the vector's order is the recency order.
class NaiveLru {
 public:
  explicit NaiveLru(std::size_t capacity) { stats_.capacity = capacity; }

  std::optional<int> find(std::uint64_t key) {
    const auto it = locate(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    const std::pair<std::uint64_t, int> entry = *it;
    entries_.erase(it);
    entries_.push_back(entry);
    return entry.second;
  }

  void put(std::uint64_t key, int value) {
    ++stats_.insertions;
    if (const auto it = locate(key); it != entries_.end()) {
      entries_.erase(it);
    } else if (entries_.size() == stats_.capacity) {
      entries_.erase(entries_.begin());
      ++stats_.evictions;
    }
    entries_.emplace_back(key, value);
  }

  LruStats stats() const {
    LruStats stats = stats_;
    stats.size = entries_.size();
    return stats;
  }

  const std::vector<std::pair<std::uint64_t, int>>& entries() const { return entries_; }

 private:
  std::vector<std::pair<std::uint64_t, int>>::iterator locate(std::uint64_t key) {
    auto it = entries_.begin();
    while (it != entries_.end() && it->first != key) ++it;
    return it;
  }

  std::vector<std::pair<std::uint64_t, int>> entries_;
  LruStats stats_;
};

void expect_same_stats(const LruStats& memo, const LruStats& naive, const std::string& where) {
  EXPECT_EQ(memo.hits, naive.hits) << where;
  EXPECT_EQ(memo.misses, naive.misses) << where;
  EXPECT_EQ(memo.insertions, naive.insertions) << where;
  EXPECT_EQ(memo.evictions, naive.evictions) << where;
  EXPECT_EQ(memo.size, naive.size) << where;
  EXPECT_EQ(memo.capacity, naive.capacity) << where;
}

TEST(LruMemo, RandomFindPutStreamsMatchANaiveReference) {
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                     std::size_t{128}}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      LruMemo<std::uint64_t, int> memo(capacity);
      NaiveLru naive(capacity);
      Rng rng(seed * 0x1000 + capacity);
      // Keys from twice the capacity plus a few: hits, misses, replacements
      // and evictions all occur.
      const std::uint64_t key_space = 2 * capacity + 3;
      for (int op = 0; op < 4000; ++op) {
        const std::uint64_t key = rng.uniform(key_space);
        const std::string where = "capacity " + std::to_string(capacity) + " seed " +
                                  std::to_string(seed) + " op " + std::to_string(op);
        if (rng.bernoulli(0.5)) {
          ASSERT_EQ(memo.find(key), naive.find(key)) << where;
        } else {
          const int value = static_cast<int>(rng.uniform(1000));
          memo.put(key, value);
          naive.put(key, value);
        }
        expect_same_stats(memo.stats(), naive.stats(), where);
        std::vector<std::pair<std::uint64_t, int>> walked;
        memo.for_each([&walked](std::uint64_t k, int v) { walked.emplace_back(k, v); });
        ASSERT_EQ(walked, naive.entries()) << where;
      }
    }
  }
}

TEST(LruMemo, ConcurrentFindsAndPutsStaySane) {
  // TSan-facing: threads race finds and puts over overlapping keys. A found
  // value is always one some thread stored for that key, and the counters
  // account for every call.
  constexpr std::size_t kCapacity = 16;
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  LruMemo<std::uint64_t, std::uint64_t> memo(kCapacity);
  std::atomic<bool> torn{false};
  std::atomic<std::uint64_t> finds{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x17e5 + static_cast<std::uint64_t>(t));
      std::uint64_t local_finds = 0;
      for (int op = 0; op < kOps; ++op) {
        const std::uint64_t key = rng.uniform(3 * kCapacity);
        if (rng.bernoulli(0.5)) {
          ++local_finds;
          const std::optional<std::uint64_t> value = memo.find(key);
          if (value.has_value() && *value != key * 7) torn = true;
        } else {
          memo.put(key, key * 7);
        }
      }
      finds += local_finds;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(torn.load());
  const LruStats stats = memo.stats();
  EXPECT_EQ(stats.hits + stats.misses, finds.load());
  EXPECT_EQ(stats.insertions, static_cast<std::uint64_t>(kThreads) * kOps - finds.load());
  EXPECT_LE(stats.size, kCapacity);
  std::size_t walked = 0;
  memo.for_each([&walked](std::uint64_t, std::uint64_t) { ++walked; });
  EXPECT_EQ(walked, stats.size);
}

}  // namespace
}  // namespace scc::common
