// sim::RunCache: content-keyed memoization of Engine::run. The contract is
// (a) the key covers exactly what the simulated numbers depend on -- matrix
// structure, effective core table, spec knobs, engine config -- and nothing
// else, (b) least-recently-used eviction with a hard capacity bound, also
// after a snapshot round trip, (c) a hit is a deep copy bit-exact versus
// the cold simulation that produced it -- also after a snapshot round trip
// through disk -- (d) hits and inserts stay sane under concurrent readers
// and writers, and (e) a whole-run miss serves every rank whose replay any
// same-size core set stored, bit-exact versus a cache-less engine, while
// every replay input forces a fresh replay.
#include "sim/run_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/simulator.hpp"
#include "common/parallel.hpp"
#include "gen/generators.hpp"
#include "integrity/integrity.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "scc/mapping.hpp"
#include "serve/loadgen.hpp"
#include "serve/simulator.hpp"
#include "sim/report.hpp"
#include "sparse/partition.hpp"
#include "sparse/reorder.hpp"

namespace scc::sim {
namespace {

sparse::CsrMatrix test_matrix() { return gen::banded(600, 12, 0.5, 7); }

RunResult stub_result(double seconds) {
  RunResult r;
  r.seconds = seconds;
  r.gflops = 1.0 / seconds;
  return r;
}

TEST(RunKey, PolicyAndExplicitCoresShareAnEntry) {
  const auto m = test_matrix();
  const EngineConfig config;
  const auto policy = chip::MappingPolicy::kDistanceReduction;
  RunSpec by_policy;
  by_policy.ue_count = 8;
  by_policy.policy = policy;
  RunSpec by_cores;
  by_cores.cores = chip::map_ues_to_cores(policy, 8);

  // Engine::run resolves the cores before keying, so both spellings hash the
  // same resolved table.
  const RunKey a = run_key(m, config, chip::map_ues_to_cores(policy, 8), by_policy);
  const RunKey b = run_key(m, config, by_cores.cores, by_cores);
  EXPECT_EQ(a, b);
}

TEST(RunKey, EverySpecKnobChangesTheKey) {
  const auto m = test_matrix();
  const EngineConfig config;
  const std::vector<int> cores = {0, 1, 2, 3};
  const RunSpec base;
  const RunKey key = run_key(m, config, cores, base);

  {
    RunSpec s;
    s.format = StorageFormat::kEll;
    EXPECT_NE(run_key(m, config, cores, s), key);
  }
  {
    RunSpec s;
    s.reorder = Reordering::kRcmRows;
    EXPECT_NE(run_key(m, config, cores, s), key);
  }
  {
    RunSpec s;
    s.variant = SpmvVariant::kCsrNoXMiss;
    EXPECT_NE(run_key(m, config, cores, s), key);
  }
  {
    RunSpec s;
    s.forced_hops = 2;
    EXPECT_NE(run_key(m, config, cores, s), key);
  }
  {
    RunSpec s;
    s.dead_ranks = {1};
    EXPECT_NE(run_key(m, config, cores, s), key);
  }
  {
    RunSpec s;
    s.detection_seconds = 0.5;
    EXPECT_NE(run_key(m, config, cores, s), key);
  }
  {
    RunSpec s;
    s.verify = integrity::VerifyMode::kDetect;
    EXPECT_NE(run_key(m, config, cores, s), key);
    RunSpec correct = s;
    correct.verify = integrity::VerifyMode::kCorrect;
    EXPECT_NE(run_key(m, config, cores, correct), run_key(m, config, cores, s));
  }
  {
    RunSpec s;
    s.sdc.rate = 0.5;
    EXPECT_NE(run_key(m, config, cores, s), key);
  }
  {
    RunSpec s;
    s.sdc.sticky_rate = 0.25;
    EXPECT_NE(run_key(m, config, cores, s), key);
  }
  {
    RunSpec s;
    s.sdc.seed = 0x1234;
    EXPECT_NE(run_key(m, config, cores, s), key);
  }
  {
    RunSpec s;
    s.sdc.min_bit = 40;
    EXPECT_NE(run_key(m, config, cores, s), key);
  }
  {
    RunSpec s;
    s.sdc.max_bit = 50;
    EXPECT_NE(run_key(m, config, cores, s), key);
  }
  {
    RunSpec s;
    s.sdc_site = 7;
    EXPECT_NE(run_key(m, config, cores, s), key);
  }
  EXPECT_NE(run_key(m, config, {0, 1, 2}, base), key);
}

TEST(RunKey, CorruptedRunNeverServedFromCleanEntryEitherOrder) {
  // Regression guard for the integrity layer: a run with live SDC injection
  // must never be answered from the clean entry (nor vice versa), and two
  // different injection sites must not collide.
  const auto m = test_matrix();
  RunSpec clean;
  clean.ue_count = 4;
  clean.verify = integrity::VerifyMode::kCorrect;
  RunSpec corrupted = clean;
  corrupted.sdc.rate = 1.0;
  RunSpec other_site = corrupted;
  other_site.sdc_site = 99;

  Engine engine;
  const auto cache = std::make_shared<RunCache>();
  engine.attach_run_cache(cache);
  const RunResult a = engine.run(m, clean);
  const RunResult b = engine.run(m, corrupted);
  const RunResult c = engine.run(m, other_site);
  EXPECT_EQ(cache->misses(), 3u);
  EXPECT_EQ(cache->hits(), 0u);
  EXPECT_EQ(a.outcome, integrity::Outcome::kClean);
  EXPECT_NE(b.outcome, integrity::Outcome::kClean);
  // Replays hit their own entries with identical classifications.
  EXPECT_EQ(engine.run(m, corrupted).outcome, b.outcome);
  EXPECT_EQ(engine.run(m, other_site).seconds, c.seconds);
  EXPECT_EQ(cache->hits(), 2u);
}

TEST(RunKey, EngineConfigAndMatrixArePartOfTheKey) {
  const auto m = test_matrix();
  const EngineConfig config;
  const std::vector<int> cores = {0, 1};
  const RunSpec spec;
  const RunKey key = run_key(m, config, cores, spec);

  EngineConfig faster;
  faster.freq = chip::FrequencyConfig::conf1();
  EXPECT_NE(run_key(m, faster, cores, spec), key);

  EngineConfig no_l2;
  no_l2.hierarchy.l2_enabled = false;
  EXPECT_NE(run_key(m, no_l2, cores, spec), key);

  EngineConfig cold;
  cold.measure_steady_state = false;
  EXPECT_NE(run_key(m, cold, cores, spec), key);

  const auto other = gen::banded(600, 12, 0.5, 8);  // different structure
  EXPECT_NE(run_key(other, config, cores, spec), key);

  // The recorder never affects the numbers, so it must not affect the key.
  obs::Recorder recorder;
  RunSpec observed;
  observed.recorder = &recorder;
  EXPECT_EQ(run_key(m, config, cores, observed), key);
}

TEST(RunKey, ValuesCountOnlyWhenVerificationIsLive) {
  const auto m = test_matrix();
  sparse::CsrMatrix scaled = m;
  for (real_t& v : scaled.val_mutable()) v *= 2.0;  // same structure, other values
  const EngineConfig config;
  const std::vector<int> cores = {0, 1, 2, 3};

  const RunSpec timing_only;
  EXPECT_EQ(run_key(m, config, cores, timing_only), run_key(scaled, config, cores, timing_only));

  RunSpec detect;
  detect.verify = integrity::VerifyMode::kDetect;
  EXPECT_NE(run_key(m, config, cores, detect), run_key(scaled, config, cores, detect));
}

TEST(RunKey, VerifyOffKeyIsPinned) {
  // Persisted RunCache snapshots and the TuningCache context hash (a
  // verify-off run_key) must keep hitting across builds: the verify-off key
  // of a fixed matrix and spec is part of the on-disk contract.
  const sparse::CsrMatrix m(3, 4, {0, 2, 3, 5}, {0, 3, 1, 0, 2}, {1.0, 2.0, 3.0, 4.0, 5.0});
  const RunKey key = run_key(m, EngineConfig{}, {0, 1, 10, 11}, RunSpec{});
  EXPECT_EQ(key.matrix, 0xf99f63749295c8e7ULL);
  EXPECT_EQ(key.spec, 0x2953e20cb5bef2efULL);
}

TEST(RunCache, LookupMissesThenHitsAndCounts) {
  RunCache cache(RunCacheConfig{.capacity = 4});
  const RunKey key{1, 2};
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, stub_result(0.5));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->seconds, 0.5);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RunCache, EvictsLeastRecentlyUsedAndLookupRefreshesRecency) {
  RunCache cache(RunCacheConfig{.capacity = 2});
  const RunKey k1{1, 0}, k2{2, 0}, k3{3, 0};
  cache.insert(k1, stub_result(1.0));
  cache.insert(k2, stub_result(2.0));
  // Touch k1 so k2 becomes the LRU entry.
  EXPECT_TRUE(cache.lookup(k1).has_value());
  cache.insert(k3, stub_result(3.0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup(k1).has_value());
  EXPECT_TRUE(cache.lookup(k3).has_value());
  EXPECT_FALSE(cache.lookup(k2).has_value());
}

TEST(RunCache, CapacityBoundHoldsUnderManyInserts) {
  RunCache cache(RunCacheConfig{.capacity = 3});
  for (std::uint64_t i = 0; i < 50; ++i) {
    cache.insert(RunKey{i, i}, stub_result(static_cast<double>(i + 1)));
    EXPECT_LE(cache.size(), 3u);
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.capacity(), 3u);
  // The three newest survive.
  EXPECT_TRUE(cache.lookup(RunKey{49, 49}).has_value());
  EXPECT_TRUE(cache.lookup(RunKey{47, 47}).has_value());
  EXPECT_FALSE(cache.lookup(RunKey{0, 0}).has_value());
}

TEST(RunCache, ReinsertRefreshesInsteadOfDuplicating) {
  RunCache cache(RunCacheConfig{.capacity = 2});
  const RunKey key{7, 7};
  cache.insert(key, stub_result(1.0));
  cache.insert(key, stub_result(4.0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(key)->seconds, 4.0);
}

TEST(RunCache, RejectsZeroCapacity) {
  EXPECT_THROW(RunCache cache(RunCacheConfig{.capacity = 0}), std::invalid_argument);
}

TEST(RunCache, RejectsNonZeroPlaceholderFields) {
  EXPECT_THROW(RunCache cache(RunCacheConfig{.capacity = 4, .shards = 2}),
               std::invalid_argument);
  EXPECT_THROW(RunCache cache(RunCacheConfig{.capacity = 4, .max_snapshot_bytes = 1}),
               std::invalid_argument);
}

TEST(RunCache, EngineHitIsBitExactVersusColdRun) {
  const auto m = test_matrix();
  Engine cached;
  const auto cache = std::make_shared<RunCache>();
  cached.attach_run_cache(cache);
  const Engine plain;

  RunSpec spec;
  spec.ue_count = 6;
  spec.policy = chip::MappingPolicy::kContentionAware;

  const RunResult cold = cached.run(m, spec);   // miss, fills the cache
  const RunResult warm = cached.run(m, spec);   // hit, deep copy
  const RunResult truth = plain.run(m, spec);   // never memoized
  EXPECT_EQ(cache->hits(), 1u);
  EXPECT_EQ(cache->misses(), 1u);

  const std::string cold_json = run_report_json(cached, spec, cold).dump(2);
  EXPECT_EQ(cold_json, run_report_json(cached, spec, warm).dump(2));
  EXPECT_EQ(run_report_json(plain, spec, cold).dump(2),
            run_report_json(plain, spec, truth).dump(2));
}

TEST(RunCache, DegradedRunsMemoizeUnderTheirOwnKey) {
  const auto m = test_matrix();
  Engine engine;
  const auto cache = std::make_shared<RunCache>();
  engine.attach_run_cache(cache);

  RunSpec healthy;
  healthy.ue_count = 4;
  RunSpec degraded = healthy;
  degraded.dead_ranks = {2};

  const RunResult h = engine.run(m, healthy);
  const RunResult d = engine.run(m, degraded);
  EXPECT_EQ(cache->misses(), 2u);  // distinct keys, no false sharing
  EXPECT_NE(h.seconds, d.seconds);
  EXPECT_EQ(engine.run(m, degraded).seconds, d.seconds);
  EXPECT_EQ(cache->hits(), 1u);
}

TEST(RunCache, DegradedRunNeverServedFromHealthyEntryEitherOrder) {
  // Regression guard for the cluster's failover path: a request restated to
  // the degraded dead-rank protocol must never be answered from the healthy
  // run's cache entry (nor vice versa), regardless of which was run first.
  const auto m = test_matrix();
  RunSpec healthy;
  healthy.ue_count = 4;
  RunSpec degraded = healthy;
  degraded.dead_ranks = {1, 3};

  const Engine plain;
  const RunResult healthy_truth = plain.run(m, healthy);
  const RunResult degraded_truth = plain.run(m, degraded);
  ASSERT_NE(healthy_truth.seconds, degraded_truth.seconds);

  for (const bool healthy_first : {true, false}) {
    Engine engine;
    const auto cache = std::make_shared<RunCache>();
    engine.attach_run_cache(cache);
    const RunResult first =
        engine.run(m, healthy_first ? healthy : degraded);
    const RunResult second =
        engine.run(m, healthy_first ? degraded : healthy);
    EXPECT_EQ(cache->misses(), 2u) << "order healthy_first=" << healthy_first;
    EXPECT_EQ(cache->hits(), 0u);
    EXPECT_EQ((healthy_first ? first : second).seconds, healthy_truth.seconds);
    EXPECT_EQ((healthy_first ? second : first).seconds, degraded_truth.seconds);
  }
}

TEST(RunCache, ReorderedRunNeverServedFromUnreorderedEntryEitherOrder) {
  // Regression guard for the autotuner's reorder candidates: a kRcmRows run
  // must never be answered from the kNone entry (nor vice versa), whichever
  // was priced first -- the reorder knob is part of the key.
  const auto m = gen::power_law(600, 8, 1.9, 5);
  RunSpec plain_spec;
  plain_spec.ue_count = 4;
  RunSpec reordered = plain_spec;
  reordered.reorder = Reordering::kRcmRows;

  const Engine plain;
  const RunResult plain_truth = plain.run(m, plain_spec);
  const RunResult reordered_truth = plain.run(m, reordered);
  ASSERT_NE(plain_truth.seconds, reordered_truth.seconds);

  for (const bool plain_first : {true, false}) {
    Engine engine;
    const auto cache = std::make_shared<RunCache>();
    engine.attach_run_cache(cache);
    const RunResult first = engine.run(m, plain_first ? plain_spec : reordered);
    const RunResult second = engine.run(m, plain_first ? reordered : plain_spec);
    EXPECT_EQ(cache->misses(), 2u) << "order plain_first=" << plain_first;
    EXPECT_EQ(cache->hits(), 0u);
    EXPECT_EQ((plain_first ? first : second).seconds, plain_truth.seconds);
    EXPECT_EQ((plain_first ? second : first).seconds, reordered_truth.seconds);
    // Replays hit their own entries bit-exactly.
    EXPECT_EQ(engine.run(m, reordered).seconds, reordered_truth.seconds);
    EXPECT_EQ(cache->hits(), 1u);
  }
}

TEST(RunCache, ColdAndSteadyStateEnginesShareACacheWithoutCollisions) {
  // The cluster's warm-up transient prices first-touch jobs through a second
  // cold-cache engine that shares the pool's RunCache with the steady-state
  // engine; measure_steady_state is part of the key, so the two populations
  // must coexist with no cross-talk.
  const auto m = test_matrix();
  EngineConfig warm_config;
  EngineConfig cold_config;
  cold_config.measure_steady_state = false;

  const auto cache = std::make_shared<RunCache>();
  Engine warm(warm_config);
  Engine cold(cold_config);
  warm.attach_run_cache(cache);
  cold.attach_run_cache(cache);

  RunSpec spec;
  spec.ue_count = 6;
  const RunResult w = warm.run(m, spec);
  const RunResult c = cold.run(m, spec);
  EXPECT_EQ(cache->misses(), 2u);
  EXPECT_EQ(cache->hits(), 0u);
  // A cold first traversal is strictly slower than the steady-state window.
  EXPECT_GT(c.seconds, w.seconds);
  // Replays hit their own entries bit-exactly.
  EXPECT_EQ(warm.run(m, spec).seconds, w.seconds);
  EXPECT_EQ(cold.run(m, spec).seconds, c.seconds);
  EXPECT_EQ(cache->hits(), 2u);
  EXPECT_EQ(cache->misses(), 2u);
}

TEST(RunCache, ConcurrentHitsAndInsertsStaySane) {
  // TSan-facing hammer: readers race writers inserting fresh and
  // overlapping keys. Values must never tear -- every hit returns one of the
  // exact payloads some writer published.
  RunCache cache(RunCacheConfig{.capacity = 32});
  constexpr int kWriters = 2, kReaders = 4, kRounds = 400;

  std::vector<std::thread> threads;
  std::atomic<bool> torn{false};
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&cache, w] {
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t i = static_cast<std::size_t>(round % 48);
        cache.insert(RunKey{i, i * 31 + static_cast<std::size_t>(w)},
                     stub_result(static_cast<double>(i + 1)));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&cache, &torn, r] {
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t i = static_cast<std::size_t>((round + r) % 48);
        for (std::size_t w = 0; w < kWriters; ++w) {
          const auto hit = cache.lookup(RunKey{i, i * 31 + w});
          if (hit.has_value() && hit->seconds != static_cast<double>(i + 1)) torn = true;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(torn.load());
  EXPECT_LE(cache.size(), cache.capacity());
}

// ---- Persistence ----

/// Temp snapshot path unique per test; removed on destruction.
struct SnapshotFile {
  explicit SnapshotFile(const char* name)
      : path((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove(path);
  }
  ~SnapshotFile() {
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".tmp");
  }
  std::string path;
};

TEST(RunCachePersist, SnapshotRoundTripsBitExactEngineResults) {
  const auto m = test_matrix();
  Engine engine;
  auto cache = std::make_shared<RunCache>(RunCacheConfig{.capacity = 8});
  engine.attach_run_cache(cache);
  RunSpec spec;
  spec.ue_count = 6;
  const RunResult truth = engine.run(m, spec);

  RunSpec degraded = spec;
  degraded.ue_count = 8;
  degraded.dead_ranks = {3};
  const RunResult degraded_truth = engine.run(m, degraded);

  const SnapshotFile file("scc_runcache_roundtrip.snapshot");
  ASSERT_TRUE(cache->save_snapshot(file.path));

  const auto restored = std::make_shared<RunCache>(RunCacheConfig{.capacity = 8});
  ASSERT_TRUE(restored->load_snapshot(file.path));
  EXPECT_EQ(restored->size(), cache->size());

  Engine replay;
  replay.attach_run_cache(restored);
  const RunResult warm = replay.run(m, spec);
  const RunResult warm_degraded = replay.run(m, degraded);
  EXPECT_EQ(restored->hits(), 2u);
  EXPECT_EQ(restored->misses(), 0u);
  // Bit-exact through serialization: the full report, not just the headline.
  EXPECT_EQ(run_report_json(replay, spec, warm).dump(2),
            run_report_json(replay, spec, truth).dump(2));
  EXPECT_EQ(warm_degraded.seconds, degraded_truth.seconds);
  EXPECT_EQ(warm_degraded.reshipped_bytes, degraded_truth.reshipped_bytes);
  EXPECT_EQ(warm_degraded.recovery_seconds, degraded_truth.recovery_seconds);
}

TEST(RunCachePersist, ConfigPathLoadsOnConstructionAndSavesOnDestruction) {
  const SnapshotFile file("scc_runcache_lifecycle.snapshot");
  const RunKey key{42, 43};
  {
    RunCache cache(RunCacheConfig{.capacity = 4, .persist_path = file.path});
    cache.insert(key, stub_result(0.25));
  }  // destructor snapshots
  ASSERT_TRUE(std::filesystem::exists(file.path));
  {
    RunCache cache(RunCacheConfig{.capacity = 4, .persist_path = file.path});
    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->seconds, 0.25);
  }
}

TEST(RunCachePersist, MissingCorruptTruncatedAndStaleSnapshotsAreRejected) {
  const SnapshotFile file("scc_runcache_invalid.snapshot");
  RunCache cache(RunCacheConfig{.capacity = 4});

  // Missing file: clean refusal, cache untouched.
  EXPECT_FALSE(cache.load_snapshot(file.path));

  cache.insert(RunKey{7, 8}, stub_result(0.5));
  ASSERT_TRUE(cache.save_snapshot(file.path));

  const auto slurp = [&file] {
    std::ifstream in(file.path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  const auto dump = [&file](const std::string& bytes) {
    std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const std::string good = slurp();
  ASSERT_GT(good.size(), 24u);

  // Bad magic.
  std::string bad = good;
  bad[0] ^= 0x5a;
  dump(bad);
  RunCache victim(RunCacheConfig{.capacity = 4});
  EXPECT_FALSE(victim.load_snapshot(file.path));
  EXPECT_EQ(victim.size(), 0u);

  // Version mismatch (u32 after the 8-byte magic).
  bad = good;
  bad[8] = static_cast<char>(bad[8] + 1);
  dump(bad);
  EXPECT_FALSE(victim.load_snapshot(file.path));
  EXPECT_EQ(victim.size(), 0u);

  // Payload corruption: flip one byte past the header, checksum catches it.
  bad = good;
  bad[good.size() - 3] ^= 0x5a;
  dump(bad);
  EXPECT_FALSE(victim.load_snapshot(file.path));
  EXPECT_EQ(victim.size(), 0u);

  // Truncation.
  dump(good.substr(0, good.size() / 2));
  EXPECT_FALSE(victim.load_snapshot(file.path));
  EXPECT_EQ(victim.size(), 0u);

  // The intact snapshot still loads after all the rejections.
  dump(good);
  EXPECT_TRUE(victim.load_snapshot(file.path));
  EXPECT_EQ(victim.size(), 1u);
  EXPECT_EQ(victim.lookup(RunKey{7, 8})->seconds, 0.5);
}

TEST(RunCachePersist, SnapshotRoundTripKeepsLruEvictionOrder) {
  const SnapshotFile file("scc_runcache_recency.snapshot");
  RunCache live(RunCacheConfig{.capacity = 3});
  for (const std::uint64_t key : {2u, 7u, 4u}) live.insert(RunKey{key, 0}, stub_result(1.0));
  ASSERT_TRUE(live.lookup(RunKey{2, 0}).has_value());  // 7 is now the least recent
  ASSERT_TRUE(live.save_snapshot(file.path));
  RunCache restored(RunCacheConfig{.capacity = 3});
  ASSERT_TRUE(restored.load_snapshot(file.path));
  // Both caches evict 7 -- neither the oldest insert nor the smallest key --
  // and then 4.
  for (RunCache* cache : {&live, &restored}) {
    cache->insert(RunKey{9, 0}, stub_result(2.0));
    EXPECT_FALSE(cache->lookup(RunKey{7, 0}).has_value());
    cache->insert(RunKey{8, 0}, stub_result(2.0));
    EXPECT_FALSE(cache->lookup(RunKey{4, 0}).has_value());
    for (const std::uint64_t key : {2u, 9u, 8u}) {
      EXPECT_TRUE(cache->lookup(RunKey{key, 0}).has_value()) << key;
    }
  }
}

TEST(RunCachePersist, UnboundedCapKeepsEveryEntry) {
  const SnapshotFile file("scc_runcache_uncapped.snapshot");
  RunCache cache(RunCacheConfig{.capacity = 64});
  for (std::uint64_t i = 0; i < 20; ++i) cache.insert(RunKey{i, i}, stub_result(1.0));
  ASSERT_TRUE(cache.save_snapshot(file.path));
  RunCache restored(RunCacheConfig{.capacity = 64});
  ASSERT_TRUE(restored.load_snapshot(file.path));
  EXPECT_EQ(restored.size(), 20u);
}


// ---- Per-rank replay reuse ----

/// Restores the environment's host thread count on scope exit.
struct ThreadGuard {
  explicit ThreadGuard(int threads) { common::set_sim_threads(threads); }
  ~ThreadGuard() { common::set_sim_threads(0); }
};

/// A trace kind the replay table must serve: format, variant and reorder.
struct ReplayCase {
  const char* name;
  StorageFormat format;
  SpmvVariant variant;
  Reordering reorder;
};

constexpr ReplayCase kReplayCases[] = {
    {"CSR", StorageFormat::kCsr, SpmvVariant::kCsr, Reordering::kNone},
    {"CSR no-x-miss", StorageFormat::kCsr, SpmvVariant::kCsrNoXMiss, Reordering::kNone},
    {"ELL", StorageFormat::kEll, SpmvVariant::kCsr, Reordering::kNone},
    {"BCSR 2", StorageFormat::kBcsr2, SpmvVariant::kCsr, Reordering::kNone},
    {"BCSR 4", StorageFormat::kBcsr4, SpmvVariant::kCsr, Reordering::kNone},
    {"HYB", StorageFormat::kHyb, SpmvVariant::kCsr, Reordering::kNone},
    {"RCM", StorageFormat::kCsr, SpmvVariant::kCsr, Reordering::kRcmRows},
};

/// Square, irregular rows: every format and the RCM reorder apply.
sparse::CsrMatrix replay_matrix() { return gen::power_law(600, 8, 1.9, 5); }

RunSpec spec_on(const ReplayCase& c, std::vector<int> cores) {
  RunSpec spec;
  spec.cores = std::move(cores);
  spec.format = c.format;
  spec.variant = c.variant;
  spec.reorder = c.reorder;
  return spec;
}

/// `result` serialized against a cache-less engine of `config`, as
/// SimParallel.CacheHitMatchesAnyThreadCount does: the report embeds live
/// cache counters, and only the simulated numbers are under test.
std::string report_of(const EngineConfig& config, const RunSpec& spec, const RunResult& result) {
  const Engine plain(config);
  return run_report_json(plain, spec, result).dump(2);
}

std::string truth_of(const EngineConfig& config, const sparse::CsrMatrix& m,
                     const RunSpec& spec) {
  const Engine plain(config);
  return run_report_json(plain, spec, plain.run(m, spec)).dump(2);
}

TEST(ReplayReuse, OtherSameSizeCoreSetsReuseEveryRankBitExactly) {
  const auto m = replay_matrix();
  const std::vector<int> primed = {0, 1, 2, 3, 4, 5};
  const std::vector<int> other = {47, 30, 12, 9, 40, 22};
  const std::vector<int> seven = {8, 19, 27, 33, 41, 44, 46};  // rank 3 dies: 6 survive
  for (const bool steady_state : {true, false}) {
    EngineConfig base;
    base.measure_steady_state = steady_state;
    EngineConfig conf1 = base;
    conf1.freq = chip::FrequencyConfig::conf1();
    EngineConfig costly = base;
    costly.kernel.cycles_per_nnz = 21.0;
    costly.kernel.cycles_per_row = 5.0;
    costly.kernel.cycles_per_ell_slot = 11.0;
    costly.kernel.cycles_per_bcsr_element = 17.0;
    costly.kernel.l2_hit_cycles = 30.0;

    for (const ReplayCase& c : kReplayCases) {
      auto cache = std::make_shared<RunCache>();
      Engine primer(base);
      primer.attach_run_cache(cache);
      primer.run(m, spec_on(c, primed));
      ASSERT_EQ(cache->stats().replays.misses, 6u) << c.name;

      struct Variant {
        const char* what;
        EngineConfig config;
        RunSpec spec;
      };
      RunSpec forced = spec_on(c, other);
      forced.forced_hops = 2;
      std::vector<Variant> variants = {{"healthy", base, spec_on(c, other)},
                                       {"forced_hops", base, forced},
                                       {"conf1", conf1, spec_on(c, other)},
                                       {"cost model", costly, spec_on(c, other)}};
      if (c.format == StorageFormat::kCsr && c.reorder == Reordering::kNone) {
        RunSpec degraded = spec_on(c, seven);
        degraded.dead_ranks = {3};
        variants.push_back({"degraded", base, degraded});
      }
      for (const Variant& v : variants) {
        Engine engine(v.config);
        engine.attach_run_cache(cache);
        const RunCache::Stats before = cache->stats();
        const RunResult result = engine.run(m, v.spec);
        const RunCache::Stats after = cache->stats();
        const std::string where =
            std::string(c.name) + " / " + v.what + (steady_state ? " / warm" : " / cold");
        EXPECT_EQ(after.runs.misses, before.runs.misses + 1) << where;
        EXPECT_EQ(after.replays.hits, before.replays.hits + 6) << where;
        EXPECT_EQ(after.replays.misses, before.replays.misses) << where;
        EXPECT_EQ(report_of(v.config, v.spec, result), truth_of(v.config, m, v.spec)) << where;
      }
    }
  }
}

TEST(ReplayReuse, PartlyStoredRunsMixHitsAndReplaysInRankOrder) {
  // A capacity-1 cache keeps 8 replays: the last 8 ranks of a 48-rank run.
  // A 48-rank run elsewhere then serves those 8 and replays 40, and a
  // traced one still emits one core_trace span per rank, in rank order.
  const auto m = replay_matrix();
  auto cache = std::make_shared<RunCache>(RunCacheConfig{.capacity = 1});
  Engine engine;
  engine.attach_run_cache(cache);
  RunSpec spec;
  spec.ue_count = 48;
  engine.run(m, spec);
  EXPECT_EQ(cache->stats().replays.size, RunCache::kReplaysPerEntry);

  for (const int threads : {1, 3}) {
    const ThreadGuard guard(threads);
    RunSpec moved = spec;
    moved.policy = threads == 1 ? chip::MappingPolicy::kDistanceReduction
                                : chip::MappingPolicy::kContentionAware;
    obs::Recorder recorder;
    moved.recorder = &recorder;
    const RunCache::Stats before = cache->stats();
    const RunResult result = engine.run(m, moved);
    const RunCache::Stats after = cache->stats();
    EXPECT_EQ(after.replays.hits - before.replays.hits, 8u);
    EXPECT_EQ(after.replays.misses - before.replays.misses, 40u);
    moved.recorder = nullptr;
    EXPECT_EQ(report_of(EngineConfig{}, moved, result), truth_of(EngineConfig{}, m, moved));

    std::size_t rank = 0;
    std::size_t served = 0;
    for (const obs::TraceEvent& e : recorder.events()) {
      if (e.name != "engine.core_trace") continue;
      ASSERT_GE(e.attrs.size(), 2u);
      EXPECT_EQ(e.attrs[1].second, std::to_string(rank));
      if (e.attrs.size() == 3 && e.attrs[2].first == "memo") ++served;
      ++rank;
    }
    EXPECT_EQ(rank, 48u);
    EXPECT_EQ(served, 8u);
  }
}

/// `n` x `n` with the nonzeros of row r at columns (r + offset) mod n:
/// every row holds the same count, so any row permutation -- RCM's too --
/// has the same nnz-balanced blocks, and only the key's reorder field tells
/// a reordered replay from a plain one.
sparse::CsrMatrix uniform_rows(index_t n, const std::vector<index_t>& offsets) {
  std::vector<nnz_t> ptr = {0};
  std::vector<index_t> col;
  for (index_t r = 0; r < n; ++r) {
    std::vector<index_t> cols;
    for (const index_t offset : offsets) cols.push_back((r + offset) % n);
    std::sort(cols.begin(), cols.end());
    col.insert(col.end(), cols.begin(), cols.end());
    ptr.push_back(static_cast<nnz_t>(col.size()));
  }
  std::vector<real_t> val(col.size(), 1.0);
  return sparse::CsrMatrix(n, n, std::move(ptr), std::move(col), std::move(val));
}

TEST(ReplayReuse, EveryReplayInputForcesAReplay) {
  const auto m = uniform_rows(600, {0, 17, 150, 411});
  ASSERT_EQ(sparse::partition_rows_balanced_nnz(
                m.permute_rows(sparse::reverse_cuthill_mckee(m)), 4),
            sparse::partition_rows_balanced_nnz(m, 4));
  const std::vector<int> primed = {0, 1, 2, 3};
  const std::vector<int> other = {10, 11, 12, 13};
  struct Change {
    const char* what;
    EngineConfig base_config;
    RunSpec base_spec;
    EngineConfig config;
    RunSpec spec;
    sparse::CsrMatrix matrix;
  };
  const EngineConfig config;
  RunSpec base;
  base.cores = primed;
  RunSpec moved = base;
  moved.cores = other;
  std::vector<Change> changes;
  changes.push_back({"matrix structure", config, base, config, moved,
                     uniform_rows(600, {0, 17, 150, 412})});
  {
    RunSpec five = moved;
    five.cores.push_back(14);
    changes.push_back({"row block", config, base, config, five, m});
  }
  {
    RunSpec b2 = base;
    b2.format = StorageFormat::kBcsr2;
    RunSpec b4 = moved;
    b4.format = StorageFormat::kBcsr4;
    changes.push_back({"BCSR 2 vs 4", config, b2, config, b4, m});
  }
  {
    RunSpec no_x = moved;
    no_x.variant = SpmvVariant::kCsrNoXMiss;
    changes.push_back({"CSR vs no-x-miss", config, base, config, no_x, m});
  }
  {
    RunSpec rcm = moved;
    rcm.reorder = Reordering::kRcmRows;
    changes.push_back({"RCM reorder", config, base, config, rcm, m});
  }
  const auto with = [&](const char* what, auto&& mutate) {
    EngineConfig changed = config;
    mutate(changed);
    changes.push_back({what, config, base, changed, moved, m});
  };
  with("warm-pass flag", [](EngineConfig& c) { c.measure_steady_state = false; });
  with("L1 size", [](EngineConfig& c) { c.hierarchy.l1.size_bytes = 8 * 1024; });
  with("L1 ways", [](EngineConfig& c) { c.hierarchy.l1.ways = 2; });
  with("L2 size", [](EngineConfig& c) { c.hierarchy.l2.size_bytes = 128 * 1024; });
  with("L2 ways", [](EngineConfig& c) { c.hierarchy.l2.ways = 8; });
  with("line size", [](EngineConfig& c) {
    c.hierarchy.l1.line_bytes = 64;  // the hierarchy needs equal lines
    c.hierarchy.l2.line_bytes = 64;
  });
  with("l2_enabled", [](EngineConfig& c) { c.hierarchy.l2_enabled = false; });
  with("model_tlb", [](EngineConfig& c) { c.memory.model_tlb = false; });

  for (const Change& change : changes) {
    auto cache = std::make_shared<RunCache>();
    Engine primer(change.base_config);
    primer.attach_run_cache(cache);
    primer.run(m, change.base_spec);
    Engine engine(change.config);
    engine.attach_run_cache(cache);
    const RunCache::Stats before = cache->stats();
    const RunResult result = engine.run(change.matrix, change.spec);
    const RunCache::Stats after = cache->stats();
    EXPECT_EQ(after.replays.hits, before.replays.hits) << change.what;
    EXPECT_EQ(after.replays.misses - before.replays.misses, change.spec.cores.size())
        << change.what;
    EXPECT_EQ(report_of(change.config, change.spec, result),
              truth_of(change.config, change.matrix, change.spec))
        << change.what;
  }
}

TEST(ReplayReuse, KeyCoversEachCacheGeometryWordAndNothingCoreDependent) {
  const auto m = replay_matrix();
  const EngineConfig config;
  const RunSpec spec;
  const sparse::RowBlock block{0, 100, 0};
  const ReplayKey key = replay_key(m, config, spec, block, true);
  for (std::size_t word = 0; word < 6; ++word) {
    EngineConfig changed = config;
    cache::CacheConfig& level = word < 3 ? changed.hierarchy.l1 : changed.hierarchy.l2;
    if (word % 3 == 0) level.size_bytes *= 2;
    if (word % 3 == 1) level.line_bytes *= 2;
    if (word % 3 == 2) level.ways *= 2;
    EXPECT_NE(replay_key(m, changed, spec, block, true), key) << "geometry word " << word;
  }
  EXPECT_NE(replay_key(m, config, spec, block, false), key);
  EXPECT_NE(replay_key(m, config, spec, sparse::RowBlock{0, 101, 0}, true), key);

  // Priced after the replay, so shared by every core set and cost model.
  EngineConfig priced = config;
  priced.freq = chip::FrequencyConfig::conf1();
  priced.kernel.cycles_per_nnz = 99.0;
  priced.memory.miss_stall_fraction = 0.5;
  priced.memory.model_contention = false;
  RunSpec placed = spec;
  placed.cores = {5, 6, 7};
  placed.forced_hops = 3;
  placed.dead_ranks = {1};
  placed.verify = integrity::VerifyMode::kCorrect;
  placed.sdc.rate = 0.5;
  EXPECT_EQ(replay_key(m, priced, placed, block, true), key);
}

TEST(ReplayReuse, TableStaysWithinItsBoundAndEvictsLeastRecentlyUsed) {
  RunCache cache(RunCacheConfig{.capacity = 2});
  const std::size_t bound = 2 * RunCache::kReplaysPerEntry;
  EXPECT_EQ(cache.replay_capacity(), bound);
  const auto key = [](std::uint64_t i) { return ReplayKey{.matrix = i + 1}; };
  const auto replay = [](std::uint64_t rows) {
    return RankReplay{.trace = {}, .elements = 0.0, .rows = static_cast<double>(rows)};
  };
  for (std::uint64_t i = 0; i < 50; ++i) {
    cache.insert_replay(key(i), replay(i));
    EXPECT_LE(cache.stats().replays.size, bound);
  }
  EXPECT_EQ(cache.stats().replays.size, bound);
  EXPECT_FALSE(cache.lookup_replay(key(50 - bound - 1)).has_value());
  const std::uint64_t oldest = 50 - bound;
  const auto oldest_kept = cache.lookup_replay(key(oldest));  // now the most recent
  ASSERT_TRUE(oldest_kept.has_value());
  EXPECT_EQ(oldest_kept->rows, static_cast<double>(oldest));

  // A present key is replaced, not stored twice; a new key then evicts the
  // least recent one, which the lookup above made oldest + 1.
  cache.insert_replay(key(49), replay(7));
  EXPECT_EQ(cache.stats().replays.size, bound);
  EXPECT_EQ(cache.lookup_replay(key(49))->rows, 7.0);
  cache.insert_replay(key(50), replay(50));
  EXPECT_TRUE(cache.lookup_replay(key(oldest)).has_value());
  EXPECT_FALSE(cache.lookup_replay(key(oldest + 1)).has_value());
  EXPECT_EQ(cache.stats().replays.evictions, 50 - bound + 1);
}

TEST(ReplayReuse, SnapshotsNeitherWriteNorNeedTheReplayTable) {
  static_assert(RunCache::kSnapshotVersion == 5);
  const auto m = test_matrix();
  auto cache = std::make_shared<RunCache>(RunCacheConfig{.capacity = 8});
  Engine engine;
  engine.attach_run_cache(cache);
  RunSpec spec;
  spec.ue_count = 6;
  const RunResult truth = engine.run(m, spec);
  ASSERT_EQ(cache->stats().replays.size, 6u);

  const auto bytes_of = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  };
  const SnapshotFile first("scc_runcache_replay_first.snapshot");
  const SnapshotFile second("scc_runcache_replay_second.snapshot");
  ASSERT_TRUE(cache->save_snapshot(first.path));
  cache->insert_replay(ReplayKey{.matrix = 1}, RankReplay{});
  ASSERT_TRUE(cache->save_snapshot(second.path));
  EXPECT_EQ(bytes_of(first.path), bytes_of(second.path));

  const auto restored = std::make_shared<RunCache>(RunCacheConfig{.capacity = 8});
  ASSERT_TRUE(restored->load_snapshot(first.path));
  EXPECT_EQ(restored->stats().replays.size, 0u);
  Engine replay;
  replay.attach_run_cache(restored);
  EXPECT_EQ(report_of(EngineConfig{}, spec, replay.run(m, spec)),
            report_of(EngineConfig{}, spec, truth));
  EXPECT_EQ(restored->hits(), 1u);
  EXPECT_EQ(restored->stats().replays.hits + restored->stats().replays.misses, 0u);
}

TEST(ReplayReuse, ConcurrentEnginesOnDifferentCoreSetsShareOneTable) {
  // TSan-facing: 4 host threads, each with its own engine on the shared
  // cache, price 6-rank core sets no other thread uses.
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  constexpr std::size_t kRanks = 6;
  const auto m = replay_matrix();
  const auto spec_of = [](int thread, int round) {
    RunSpec spec;
    const int first = thread * 12 + round;
    for (std::size_t k = 0; k < kRanks; ++k) {
      spec.cores.push_back((first + 7 * static_cast<int>(k)) % chip::kCoreCount);
    }
    spec.format = round == 1 ? StorageFormat::kEll : StorageFormat::kCsr;
    return spec;
  };
  const ThreadGuard guard(2);
  auto cache = std::make_shared<RunCache>();
  std::vector<std::vector<RunResult>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Engine engine;
      engine.attach_run_cache(cache);
      for (int round = 0; round < kRounds; ++round) {
        results[static_cast<std::size_t>(t)].push_back(engine.run(m, spec_of(t, round)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int round = 0; round < kRounds; ++round) {
      const RunSpec spec = spec_of(t, round);
      EXPECT_EQ(report_of(EngineConfig{}, spec,
                          results[static_cast<std::size_t>(t)][static_cast<std::size_t>(round)]),
                truth_of(EngineConfig{}, m, spec))
          << "thread " << t << " round " << round;
    }
  }
  const RunCache::Stats stats = cache->stats();
  EXPECT_EQ(stats.runs.misses, static_cast<std::uint64_t>(kThreads * kRounds));
  EXPECT_EQ(stats.replays.hits + stats.replays.misses, kThreads * kRounds * kRanks);
  // Two trace kinds of kRanks blocks each; racing first runs may replay a
  // rank more than once, but each thread's later CSR run finds its own.
  EXPECT_EQ(stats.replays.size, 2 * kRanks);
  EXPECT_LE(stats.replays.misses, 2 * kThreads * kRanks);
  EXPECT_GE(stats.replays.hits, static_cast<std::uint64_t>(kThreads) * kRanks);
}

TEST(ReplayReuse, RunReportCarriesTheReplayCounters) {
  const auto m = test_matrix();
  Engine engine;
  engine.attach_run_cache(std::make_shared<RunCache>());
  RunSpec spec;
  spec.ue_count = 4;
  const RunResult result = engine.run(m, spec);
  const obs::Json report = run_report_json(engine, spec, result);
  const obs::Json& section = report.at("run_cache");
  EXPECT_EQ(section.at("replay_hits").as_int(), 0);
  EXPECT_EQ(section.at("replay_misses").as_int(), 4);
  EXPECT_EQ(section.at("replay_size").as_int(), 4);
  EXPECT_TRUE(obs::validate_report(report).empty());

  obs::Json broken = report;
  obs::Json broken_section = section;
  broken_section.set("replay_size", obs::Json("four"));
  broken.set("run_cache", std::move(broken_section));
  EXPECT_FALSE(obs::validate_report(broken).empty());

  // Without a cache the section stays the bare `enabled: false`.
  const Engine plain;
  const obs::Json bare = run_report_json(plain, spec, plain.run(m, spec));
  EXPECT_EQ(bare.at("run_cache").dump(), R"({"enabled":false})");
}

/// Value of the `key` attribute of the run_cache.stats event.
std::string stats_event_attr(const obs::Recorder& recorder, const std::string& key) {
  for (const obs::TraceEvent& e : recorder.events()) {
    if (e.name != "run_cache.stats") continue;
    for (const auto& [name, value] : e.attrs) {
      if (name == key) return value;
    }
  }
  return "missing";
}

void expect_replay_exports(const obs::Recorder& recorder, const RunCache& cache) {
  const RunCache::Stats stats = cache.stats();
  const obs::Json gauges = recorder.metrics().to_json().at("gauges");
  EXPECT_GT(stats.replays.misses, 0u);
  EXPECT_EQ(gauges.at("run_cache.replay_hits").as_double(),
            static_cast<double>(stats.replays.hits));
  EXPECT_EQ(gauges.at("run_cache.replay_misses").as_double(),
            static_cast<double>(stats.replays.misses));
  EXPECT_EQ(gauges.at("run_cache.replay_size").as_double(),
            static_cast<double>(stats.replays.size));
  EXPECT_EQ(stats_event_attr(recorder, "replay_hits"), std::to_string(stats.replays.hits));
  EXPECT_EQ(stats_event_attr(recorder, "replay_misses"), std::to_string(stats.replays.misses));
  EXPECT_EQ(stats_event_attr(recorder, "replay_size"), std::to_string(stats.replays.size));
}

TEST(ReplayReuse, TracedServeAndClusterRunsExportTheReplayCounters) {
  serve::WorkloadSpec workload;
  workload.request_count = 60;
  const std::vector<serve::Request> requests = serve::generate_workload(workload);
  {
    serve::MatrixPool pool(0.05);
    ASSERT_NE(pool.run_cache(), nullptr);
    serve::Simulator simulator(serve::ServeConfig{}, pool);
    obs::Recorder recorder;
    simulator.run(requests, &recorder);
    expect_replay_exports(recorder, *pool.run_cache());
  }
  {
    serve::MatrixPool pool(0.05);
    ASSERT_NE(pool.run_cache(), nullptr);
    cluster::ClusterConfig config;
    config.chip_count = 2;
    cluster::ClusterSimulator simulator(config, pool);
    obs::Recorder recorder;
    simulator.run(requests, &recorder);
    expect_replay_exports(recorder, *pool.run_cache());
  }
}

}  // namespace
}  // namespace scc::sim
