// Autotuner subsystem tests: format-equivalence of every candidate plan the
// tuner can emit (bit-identical to the CSR kernel on the full testbed mix),
// determinism of the decision log across thread counts and run-cache modes,
// the TuningCache's bounded/persistent/thread-safe contract, and the
// feature fast path.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "gen/generators.hpp"
#include "serve/loadgen.hpp"
#include "spmv/kernels.hpp"
#include "testbed/suite.hpp"
#include "tune/autotuner.hpp"
#include "tune/cache.hpp"
#include "tune/features.hpp"

namespace {

using namespace scc;

/// Deterministic strictly-positive x so ELL/HYB padding terms are +0.0 and
/// the canonical sums below exercise non-trivial values.
std::vector<real_t> positive_x(index_t cols) {
  std::vector<real_t> x(static_cast<std::size_t>(cols));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.25 + static_cast<real_t>(i % 17) * 0.125;
  }
  return x;
}

tune::TuningDecision stub_decision(double seconds) {
  tune::TuningDecision decision;
  decision.choice.format = sim::StorageFormat::kEll;
  decision.choice.ue_count = 12;
  decision.modeled_seconds = seconds;
  decision.baseline_seconds = seconds * 2.0;
  decision.class_key = 0x5ca1ab1e;
  decision.explored_runs = 40;
  return decision;
}

/// Temp snapshot path removed on destruction (mirrors test_sim_runcache).
struct SnapshotFile {
  std::string path;
  SnapshotFile() {
    path = (std::filesystem::temp_directory_path() /
            ("scc_tunecache_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++) + ".snap"))
               .string();
    std::filesystem::remove(path);
  }
  ~SnapshotFile() {
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".tmp");
  }
  static inline int counter = 0;
};

// --- Format equivalence: every candidate plan is bit-identical to CSR. ---

TEST(TuneFormatEquivalence, EveryCandidatePlanMatchesCsrBitExactOnTestbedMix) {
  const double scale = testbed::suite_scale_from_env();
  const std::vector<int> mix = serve::WorkloadSpec{}.matrix_mix;
  for (const int id : mix) {
    const testbed::SuiteEntry entry = testbed::build_entry(id, scale);
    const sparse::CsrMatrix& matrix = entry.matrix;
    const std::vector<real_t> x = positive_x(matrix.cols());
    std::vector<real_t> reference(static_cast<std::size_t>(matrix.rows()), 0.0);
    spmv::spmv_csr(matrix, x, reference);
    const bool square = matrix.rows() == matrix.cols();
    for (const sim::StorageFormat format :
         {sim::StorageFormat::kCsr, sim::StorageFormat::kEll, sim::StorageFormat::kBcsr2,
          sim::StorageFormat::kBcsr4, sim::StorageFormat::kHyb}) {
      for (const sim::Reordering reorder :
           {sim::Reordering::kNone, sim::Reordering::kRcmRows}) {
        if (reorder == sim::Reordering::kRcmRows && !square) continue;
        tune::Candidate candidate;
        candidate.format = format;
        candidate.reorder = reorder;
        const std::vector<real_t> product = tune::plan_product(matrix, candidate, x);
        ASSERT_EQ(product.size(), reference.size());
        for (std::size_t i = 0; i < product.size(); ++i) {
          ASSERT_EQ(product[i], reference[i])
              << "matrix " << id << " format " << sim::to_string(format) << " reorder "
              << sim::to_string(reorder) << " row " << i;
        }
      }
    }
  }
}

// --- Tuner determinism across threads and run-cache modes. ---

sparse::CsrMatrix tuning_matrix() { return gen::power_law(700, 9, 1.8, 41); }

/// Fresh caches every call, so each variant re-decides from scratch.
std::string decide_log(int threads, bool with_run_cache) {
  common::set_sim_threads(threads);
  auto cache = std::make_shared<tune::TuningCache>();
  std::shared_ptr<sim::RunCache> run_cache;
  if (with_run_cache) {
    run_cache = std::make_shared<sim::RunCache>(sim::RunCacheConfig{256, 4, ""});
  }
  tune::Autotuner tuner(sim::EngineConfig{}, tune::AutotuneConfig{}, cache, run_cache);
  tuner.decide(tuning_matrix(), 7);
  tuner.decide(gen::banded(500, 9, 0.8, 11), 8);
  common::set_sim_threads(0);
  return tuner.decision_log_text();
}

TEST(TuneAutotuner, DecisionLogIsByteIdenticalAcrossThreadsAndRunCacheModes) {
  const std::string reference = decide_log(1, false);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(decide_log(1, true), reference);
  EXPECT_EQ(decide_log(4, false), reference);
  EXPECT_EQ(decide_log(4, true), reference);
}

TEST(TuneAutotuner, SecondDecideIsServedFromTheTuningCache) {
  auto cache = std::make_shared<tune::TuningCache>();
  tune::Autotuner tuner(sim::EngineConfig{}, tune::AutotuneConfig{}, cache);
  const tune::TuningDecision first = tuner.decide(tuning_matrix());
  EXPECT_FALSE(first.predicted);
  EXPECT_GT(first.explored_runs, 1);
  const std::uint64_t runs_after_first = tuner.counters().explore_runs;
  const tune::TuningDecision second = tuner.decide(tuning_matrix());
  EXPECT_EQ(second.choice, first.choice);
  EXPECT_EQ(tuner.counters().cache_hits, 1u);
  EXPECT_EQ(tuner.counters().explore_runs, runs_after_first);
  // Cache hits are counted, not re-logged.
  EXPECT_EQ(tuner.log().size(), 1u);
}

TEST(TuneAutotuner, SharedRunCacheMakesExplorationReplayFree) {
  auto run_cache = std::make_shared<sim::RunCache>(sim::RunCacheConfig{512, 4, ""});
  auto cache_a = std::make_shared<tune::TuningCache>();
  tune::Autotuner first(sim::EngineConfig{}, tune::AutotuneConfig{}, cache_a, run_cache);
  first.decide(tuning_matrix());
  const std::uint64_t misses_after_first = run_cache->stats().total.misses;
  EXPECT_GT(misses_after_first, 0u);
  // A second tuner with a FRESH TuningCache re-explores the grid, but every
  // engine evaluation replays from the shared RunCache.
  auto cache_b = std::make_shared<tune::TuningCache>();
  tune::Autotuner second(sim::EngineConfig{}, tune::AutotuneConfig{}, cache_b, run_cache);
  second.decide(tuning_matrix());
  EXPECT_EQ(run_cache->stats().total.misses, misses_after_first);
  EXPECT_GT(run_cache->stats().total.hits, 0u);
  EXPECT_EQ(second.decision_log_text(), first.decision_log_text());
}

// --- Feature fast path. ---

TEST(TuneFastPath, SameClassDifferentFingerprintIsPredicted) {
  const sparse::CsrMatrix seed_a = gen::banded(600, 12, 0.7, 3);
  const sparse::CsrMatrix seed_b = gen::banded(600, 12, 0.7, 99);
  ASSERT_NE(seed_a.fingerprint(), seed_b.fingerprint());
  ASSERT_EQ(tune::class_key(tune::extract_features(seed_a)),
            tune::class_key(tune::extract_features(seed_b)));

  auto cache = std::make_shared<tune::TuningCache>();
  tune::Autotuner tuner(sim::EngineConfig{}, tune::AutotuneConfig{}, cache);
  const tune::TuningDecision explored = tuner.decide(seed_a);
  EXPECT_FALSE(explored.predicted);
  const tune::TuningDecision predicted = tuner.decide(seed_b);
  EXPECT_TRUE(predicted.predicted);
  EXPECT_LE(predicted.explored_runs, 2);
  EXPECT_EQ(predicted.choice, explored.choice);
  EXPECT_EQ(tuner.counters().predicted, 1u);
  EXPECT_EQ(tuner.counters().explored, 1u);
}

TEST(TuneFastPath, DisabledFastPathExploresEveryMatrix) {
  tune::AutotuneConfig config;
  config.feature_fastpath = false;
  auto cache = std::make_shared<tune::TuningCache>();
  tune::Autotuner tuner(sim::EngineConfig{}, config, cache);
  const tune::TuningDecision a = tuner.decide(gen::banded(600, 12, 0.7, 3));
  const tune::TuningDecision b = tuner.decide(gen::banded(600, 12, 0.7, 99));
  EXPECT_FALSE(a.predicted);
  EXPECT_FALSE(b.predicted);
  EXPECT_EQ(tuner.counters().explored, 2u);
}

TEST(TuneFeatures, ExtractionIsStructureOnlyAndDeterministic) {
  const sparse::CsrMatrix matrix = gen::circuit(800, 3.0, 0.05, 17);
  const tune::FeatureVector features = tune::extract_features(matrix);
  EXPECT_EQ(features.rows, matrix.rows());
  EXPECT_EQ(features.nnz, matrix.nnz());
  EXPECT_GT(features.nnz_per_row, 0.0);
  EXPECT_EQ(tune::class_key(features), tune::class_key(tune::extract_features(matrix)));
  // Same structure, different values: identical class (values never enter).
  std::vector<real_t> doubled(matrix.val().begin(), matrix.val().end());
  for (real_t& v : doubled) v *= 2.0;
  const sparse::CsrMatrix rescaled(
      matrix.rows(), matrix.cols(),
      std::vector<nnz_t>(matrix.ptr().begin(), matrix.ptr().end()),
      std::vector<index_t>(matrix.col().begin(), matrix.col().end()),
      std::move(doubled));
  EXPECT_EQ(tune::class_key(tune::extract_features(rescaled)), tune::class_key(features));
}

// --- TuningCache contract. ---

TEST(TuneCache, LookupMissThenInsertThenHit) {
  tune::TuningCache cache;
  const tune::TuningKey key{0xabc, 0xdef};
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, stub_decision(1.5e-3));
  const std::optional<tune::TuningDecision> hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->modeled_seconds, 1.5e-3);
  EXPECT_EQ(hit->choice.format, sim::StorageFormat::kEll);
  const tune::TuningCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(TuneCache, BoundedFifoEvictsOldestDecisionFirst) {
  tune::TuningCacheConfig config;
  config.capacity = 3;
  tune::TuningCache cache(config);
  for (std::uint64_t i = 0; i < 5; ++i) {
    cache.insert(tune::TuningKey{i, 0}, stub_decision(1e-3 * static_cast<double>(i + 1)));
  }
  EXPECT_EQ(cache.size(), 3u);
  // 0 and 1 were evicted FIFO; 2..4 survive.
  EXPECT_FALSE(cache.lookup(tune::TuningKey{0, 0}).has_value());
  EXPECT_FALSE(cache.lookup(tune::TuningKey{1, 0}).has_value());
  for (std::uint64_t i = 2; i < 5; ++i) {
    EXPECT_TRUE(cache.lookup(tune::TuningKey{i, 0}).has_value()) << i;
  }
}

TEST(TuneCache, SnapshotRoundTripKeepsFifoEvictionOrder) {
  SnapshotFile file;
  tune::TuningCacheConfig config;
  config.capacity = 2;
  tune::TuningCache live(config);
  for (const std::uint64_t key : {5u, 1u}) {
    live.insert(tune::TuningKey{key, 0}, stub_decision(1e-3));
    live.note_class_winner(key, tune::Candidate{});
  }
  ASSERT_TRUE(live.save_snapshot(file.path));
  tune::TuningCache restored(config);
  ASSERT_TRUE(restored.load_snapshot(file.path));
  // Both caches evict their oldest key, 5, not the smallest.
  for (tune::TuningCache* cache : {&live, &restored}) {
    cache->insert(tune::TuningKey{9, 0}, stub_decision(1e-3));
    cache->note_class_winner(9, tune::Candidate{});
    EXPECT_FALSE(cache->lookup(tune::TuningKey{5, 0}).has_value());
    EXPECT_TRUE(cache->lookup(tune::TuningKey{1, 0}).has_value());
    EXPECT_FALSE(cache->class_winner(5).has_value());
    EXPECT_TRUE(cache->class_winner(1).has_value());
  }
}

TEST(TuneCache, SnapshotRoundTripsDecisionsAndClassWinners) {
  SnapshotFile file;
  tune::TuningCache cache;
  cache.insert(tune::TuningKey{1, 2}, stub_decision(2e-3));
  tune::Candidate winner;
  winner.format = sim::StorageFormat::kBcsr2;
  winner.ue_count = 24;
  cache.note_class_winner(0x77, winner);
  ASSERT_TRUE(cache.save_snapshot(file.path));

  tune::TuningCache restored;
  ASSERT_TRUE(restored.load_snapshot(file.path));
  const std::optional<tune::TuningDecision> hit = restored.lookup(tune::TuningKey{1, 2});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->modeled_seconds, 2e-3);
  EXPECT_EQ(hit->class_key, 0x5ca1ab1eu);
  const std::optional<tune::Candidate> klass = restored.class_winner(0x77);
  ASSERT_TRUE(klass.has_value());
  EXPECT_EQ(*klass, winner);
}

TEST(TuneCache, PersistPathSavesOnDestructionAndLoadsOnConstruction) {
  SnapshotFile file;
  tune::TuningCacheConfig config;
  config.persist_path = file.path;
  {
    tune::TuningCache cache(config);
    cache.insert(tune::TuningKey{9, 9}, stub_decision(3e-3));
  }
  ASSERT_TRUE(std::filesystem::exists(file.path));
  tune::TuningCache warm(config);
  EXPECT_TRUE(warm.lookup(tune::TuningKey{9, 9}).has_value());
}

TEST(TuneCache, CorruptAndVersionMismatchedSnapshotsAreRejected) {
  SnapshotFile file;
  tune::TuningCache cache;
  cache.insert(tune::TuningKey{4, 4}, stub_decision(1e-3));
  ASSERT_TRUE(cache.save_snapshot(file.path));
  std::string bytes;
  {
    std::ifstream in(file.path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 12u);
  // Flip a version byte (right after the 8-byte magic).
  std::string bad = bytes;
  bad[8] = static_cast<char>(bad[8] ^ 0x7f);
  {
    std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
  }
  tune::TuningCache victim;
  EXPECT_FALSE(victim.load_snapshot(file.path));
  EXPECT_EQ(victim.size(), 0u);
  // Truncated file: also rejected, cache untouched.
  {
    std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(victim.load_snapshot(file.path));
  EXPECT_EQ(victim.size(), 0u);
  EXPECT_FALSE(victim.load_snapshot(file.path + ".does-not-exist"));
}

TEST(TuneCache, ConcurrentLookupsAndInsertsStaySane) {
  tune::TuningCacheConfig config;
  config.capacity = 64;
  tune::TuningCache cache(config);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  std::atomic<int> hits{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &hits, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto k = static_cast<std::uint64_t>((t * kOpsPerThread + i) % 32);
        const tune::TuningKey key{k, 1};
        if (const std::optional<tune::TuningDecision> hit = cache.lookup(key)) {
          if (hit->modeled_seconds > 0.0) hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          cache.insert(key, stub_decision(1e-4 * static_cast<double>(k + 1)));
        }
        if (i % 16 == 0) {
          cache.note_class_winner(k, tune::Candidate{});
          (void)cache.class_winner(k);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_GT(hits.load(), 0);
  EXPECT_LE(cache.size(), 64u);
  const tune::TuningCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

}  // namespace
