#include "tune/cache.hpp"

#include <array>
#include <bit>
#include <utility>
#include <vector>

#include "common/framed_file.hpp"

namespace scc::tune {

TuningCache::TuningCache(const TuningCacheConfig& config)
    : persist_path_(config.persist_path),
      decisions_(config.capacity),
      class_winners_(config.capacity) {
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

TuningCache::Stats TuningCache::stats() const {
  const common::LruStats decisions = decisions_.stats();
  return Stats{.hits = decisions.hits,
               .misses = decisions.misses,
               .insertions = decisions.insertions,
               .size = decisions.size,
               .capacity = decisions.capacity,
               .class_entries = class_winners_.stats().size};
}

// ---- Snapshot persistence ----
//
// A snapshot is a common::framed_file whose payload holds the decisions
// (count, then key and fields of each) and then the class winners (count,
// then key and candidate of each), both least recently used first and
// loaded back in that order, so a restored cache evicts the same keys as
// the cache that saved it.

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
  std::uint64_t decision_count = 0;
  common::FrameWriter decisions;
  decisions_.for_each([&](const TuningKey& key, const TuningDecision& decision) {
    transfer(decisions, key, decision);
    ++decision_count;
  });
  std::uint64_t winner_count = 0;
  common::FrameWriter winners;
  class_winners_.for_each([&](std::uint64_t key, const Candidate& candidate) {
    winners(key);
    transfer(winners, candidate);
    ++winner_count;
  });
  common::FrameWriter decisions_header, winners_header;
  decisions_header(decision_count);
  winners_header(winner_count);
  return common::write_framed_file(
      path, kSnapshotFormat,
      {decisions_header.data(), decisions.data(), winners_header.data(), winners.data()});
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
