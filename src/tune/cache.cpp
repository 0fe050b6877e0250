#include "tune/cache.hpp"

#include <array>
#include <bit>
#include <vector>

#include "common/error.hpp"
#include "common/framed_file.hpp"

namespace scc::tune {

TuningCache::TuningCache(const TuningCacheConfig& config)
    : capacity_(config.capacity), persist_path_(config.persist_path) {
  SCC_REQUIRE(capacity_ >= 1, "TuningCache capacity must be >= 1");
  if (!persist_path_.empty()) {
    load_snapshot(persist_path_);  // missing/invalid snapshots start cold
  }
}

TuningCache::~TuningCache() {
  if (persist_path_.empty()) return;
  try {
    save_snapshot(persist_path_);
  } catch (...) {
    // Destructors must not throw; a failed exit snapshot only costs warmth.
  }
}

std::optional<TuningDecision> TuningCache::lookup(const TuningKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = decisions_.find(key);
  if (it == decisions_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void TuningCache::insert(const TuningKey& key, const TuningDecision& decision) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = decisions_.insert_or_assign(key, decision);
  ++insertions_;
  if (!inserted) return;  // refresh in place, order unchanged
  insertion_order_.push_back(key);
  while (decisions_.size() > capacity_) {
    decisions_.erase(insertion_order_.front());
    insertion_order_.pop_front();
  }
}

std::optional<Candidate> TuningCache::class_winner(std::uint64_t class_key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = class_winners_.find(class_key);
  if (it == class_winners_.end()) return std::nullopt;
  return it->second;
}

void TuningCache::note_class_winner(std::uint64_t class_key, const Candidate& candidate) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = class_winners_.insert_or_assign(class_key, candidate);
  if (!inserted) return;
  class_order_.push_back(class_key);
  while (class_winners_.size() > capacity_) {
    class_winners_.erase(class_order_.front());
    class_order_.pop_front();
  }
}

TuningCache::Stats TuningCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.insertions = insertions_;
  stats.size = decisions_.size();
  stats.capacity = capacity_;
  stats.class_entries = class_winners_.size();
  return stats;
}

std::size_t TuningCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return decisions_.size();
}

// ---- Snapshot persistence ----
//
// A snapshot is a common::framed_file whose payload holds the decisions
// (count, then key and fields of each) and then the class winners (count,
// then key and candidate of each), both in FIFO order, so a restored cache
// evicts the same keys as the cache that saved it.

namespace {

constexpr common::FrameFormat kSnapshotFormat{
    .magic = std::bit_cast<std::uint64_t>(std::array{'S', 'C', 'C', 'T', 'U', 'N', 'E', '\n'}),
    .version = TuningCache::kSnapshotVersion};
/// Every field is one word: a decision takes 11, a class winner 5.
constexpr std::size_t kDecisionBytes = 11 * sizeof(std::uint64_t);
constexpr std::size_t kWinnerBytes = 5 * sizeof(std::uint64_t);

/// The payload's two records, once for both directions: `io` is a
/// FrameWriter (save; the records are then const) or a FrameReader (load).
template <typename Io, typename C>
void transfer(Io& io, C& candidate) {
  io.bounded(candidate.format, sim::StorageFormat::kCsr, sim::StorageFormat::kHyb);
  io.bounded(candidate.reorder, sim::Reordering::kNone, sim::Reordering::kRcmRows);
  io.bounded(candidate.ue_count, 1, 48);
  io.bounded(candidate.policy, chip::MappingPolicy::kStandard,
             chip::MappingPolicy::kContentionAware);
}

template <typename Io, typename Key, typename D>
void transfer(Io& io, Key& key, D& decision) {
  io(key.matrix, key.context);
  transfer(io, decision.choice);
  io(decision.modeled_seconds, decision.baseline_seconds, decision.class_key, decision.predicted,
     decision.explored_runs);
}

}  // namespace

bool TuningCache::save_snapshot(const std::string& path) const {
  common::FrameWriter payload;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    payload(insertion_order_.size());
    for (const TuningKey& key : insertion_order_) transfer(payload, key, decisions_.at(key));
    payload(class_order_.size());
    for (const std::uint64_t key : class_order_) {
      payload(key);
      transfer(payload, class_winners_.at(key));
    }
  }
  return common::write_framed_file(path, kSnapshotFormat, {payload.data()});
}

bool TuningCache::load_snapshot(const std::string& path) {
  std::vector<std::pair<TuningKey, TuningDecision>> decisions;
  std::vector<std::pair<std::uint64_t, Candidate>> winners;
  const bool intact =
      common::read_framed_file(path, kSnapshotFormat, [&](common::FrameReader& in) {
        for (std::uint64_t n = in.count(kDecisionBytes); n > 0; --n) {
          auto& [key, decision] = decisions.emplace_back();
          transfer(in, key, decision);
        }
        for (std::uint64_t n = in.count(kWinnerBytes); n > 0; --n) {
          auto& [key, candidate] = winners.emplace_back();
          in(key);
          transfer(in, candidate);
        }
      });
  if (!intact) return false;

  for (const auto& [key, decision] : decisions) insert(key, decision);
  for (const auto& [key, candidate] : winners) note_class_winner(key, candidate);
  return true;
}

}  // namespace scc::tune
