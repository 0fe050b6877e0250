// Seeded mutational fuzzing of every input the program loads from disk:
// the RunCache and TuningCache snapshots, the testbed matrix cache and the
// fault-plan JSON. Each suite mutates one valid file by truncation, byte
// flips, splices and inflated lengths or counts. A mutant either loads or
// is rejected cleanly -- false, nullopt, or for the JSON std::invalid_argument
// or SimulationError -- never a crash, another exception or an allocation
// sized by a count the file does not back; and a rejected snapshot leaves
// the cache as it was. Half of the binary mutants are re-sealed (payload
// length and checksum recomputed), so they pass the framing and reach the
// payload decoders.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/fault_plan.hpp"
#include "common/error.hpp"
#include "common/framed_file.hpp"
#include "common/rng.hpp"
#include "gen/generators.hpp"
#include "sim/engine.hpp"
#include "sim/run_cache.hpp"
#include "testbed/cache.hpp"
#include "testbed/suite.hpp"
#include "tune/cache.hpp"

namespace scc {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void put(std::string& out, T value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

/// Temp file path unique per test; removed on destruction.
struct TempFile {
  explicit TempFile(const char* name)
      : path((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove(path);
  }
  ~TempFile() { std::filesystem::remove(path); }
  std::string path;
};

/// Points the testbed cache at a fresh directory for one test.
struct ScopedCacheDir {
  explicit ScopedCacheDir(const char* name) : dir(::testing::TempDir() + "/" + name) {
    std::filesystem::remove_all(dir);
    setenv("SCC_SPMV_CACHE_DIR", dir.c_str(), 1);
  }
  ~ScopedCacheDir() {
    unsetenv("SCC_SPMV_CACHE_DIR");
    std::filesystem::remove_all(dir);
  }
  std::string dir;
};

/// Recompute a framed file's payload length and checksum.
void reseal(std::string& bytes) {
  if (bytes.size() < common::kFrameHeaderBytes) return;
  const std::uint64_t length = bytes.size() - common::kFrameHeaderBytes;
  common::FrameChecksum checksum;
  checksum.update(bytes.data() + common::kFrameHeaderBytes, length);
  const std::uint64_t sum = checksum.value();
  std::memcpy(bytes.data() + 16, &length, sizeof length);
  std::memcpy(bytes.data() + 24, &sum, sizeof sum);
}

/// One to three seeded mutations of a binary file: truncation, a byte flip,
/// a splice of a slice of the file into itself, or an 8-byte word replaced
/// by an inflated length or count (half the time among the leading words,
/// where the header and the first counts live).
std::string mutate(std::string bytes, Rng& rng) {
  constexpr std::uint64_t kInflated[] = {std::uint64_t{1} << 22, std::uint64_t{1} << 31,
                                         std::uint64_t{1} << 32, std::uint64_t{1} << 40,
                                         std::uint64_t{1} << 62, ~std::uint64_t{0}};
  const auto mutations = rng.uniform_in(1, 3);
  for (std::int64_t m = 0; m < mutations && !bytes.empty(); ++m) {
    const auto at = static_cast<std::size_t>(rng.uniform(bytes.size()));
    switch (rng.uniform(4)) {
      case 0:
        bytes.resize(at);
        break;
      case 1:
        bytes[at] = static_cast<char>(rng.uniform(256));
        break;
      case 2: {
        const auto from = static_cast<std::size_t>(rng.uniform(bytes.size()));
        const auto length = std::min<std::size_t>(64, bytes.size() - from);
        bytes.insert(at, bytes.substr(from, 1 + static_cast<std::size_t>(rng.uniform(length))));
        break;
      }
      default: {
        const std::size_t reach = rng.uniform(2) == 0 ? std::min<std::size_t>(bytes.size(), 96)
                                                      : bytes.size();
        const std::size_t word = static_cast<std::size_t>(rng.uniform(reach)) & ~std::size_t{7};
        if (word + sizeof(std::uint64_t) > bytes.size()) break;
        const std::uint64_t value = kInflated[rng.uniform(std::size(kInflated))];
        std::memcpy(bytes.data() + word, &value, sizeof value);
        break;
      }
    }
  }
  return bytes;
}

constexpr int kMutants = 2000;

sim::RunResult stub_result(double seconds) {
  sim::RunResult result;
  result.seconds = seconds;
  return result;
}

TEST(LoaderFuzz, RunCacheSnapshotMutantsLoadOrLeaveTheCacheAsItWas) {
  const TempFile file("scc_loader_fuzz.runcache");
  {
    auto cache = std::make_shared<sim::RunCache>(sim::RunCacheConfig{.capacity = 8});
    sim::Engine engine;
    engine.attach_run_cache(cache);
    const sparse::CsrMatrix matrix = gen::banded(300, 8, 0.5, 3);
    sim::RunSpec spec;
    spec.ue_count = 3;
    engine.run(matrix, spec);
    spec.ue_count = 4;
    spec.dead_ranks = {1};
    engine.run(matrix, spec);
    ASSERT_TRUE(cache->save_snapshot(file.path));
  }
  const std::string seed = slurp(file.path);
  const sim::RunKey sentinel{0x5e, 0x17};
  Rng rng(0xf022'0001);
  int loaded = 0;
  for (int mutant = 0; mutant < kMutants; ++mutant) {
    std::string bytes = mutate(seed, rng);
    if (mutant % 2 == 0) reseal(bytes);
    dump(file.path, bytes);
    sim::RunCache cache(sim::RunCacheConfig{.capacity = 8});
    cache.insert(sentinel, stub_result(0.5));
    if (cache.load_snapshot(file.path)) {
      ++loaded;
      continue;
    }
    ASSERT_EQ(cache.size(), 1u) << "mutant " << mutant;
    EXPECT_EQ(cache.lookup(sentinel)->seconds, 0.5);
  }
  // A re-sealed flip inside a timing field still decodes; most do not.
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kMutants);
}

TEST(LoaderFuzz, TuningSnapshotMutantsLoadOrLeaveTheCacheAsItWas) {
  const TempFile file("scc_loader_fuzz.tuning");
  {
    tune::TuningCache cache;
    for (std::uint64_t i = 0; i < 4; ++i) {
      tune::TuningDecision decision;
      decision.choice.format = sim::StorageFormat::kEll;
      decision.choice.ue_count = static_cast<int>(8 + i);
      decision.modeled_seconds = 1e-3 * static_cast<double>(i + 1);
      decision.explored_runs = 40;
      cache.insert(tune::TuningKey{i, 7}, decision);
      cache.note_class_winner(100 + i, decision.choice);
    }
    ASSERT_TRUE(cache.save_snapshot(file.path));
  }
  const std::string seed = slurp(file.path);
  Rng rng(0xf022'0002);
  int loaded = 0;
  for (int mutant = 0; mutant < kMutants; ++mutant) {
    std::string bytes = mutate(seed, rng);
    if (mutant % 2 == 0) reseal(bytes);
    dump(file.path, bytes);
    tune::TuningCache cache;
    cache.insert(tune::TuningKey{0x5e, 0x17}, tune::TuningDecision{});
    cache.note_class_winner(0x5e, tune::Candidate{});
    if (cache.load_snapshot(file.path)) {
      ++loaded;
      continue;
    }
    ASSERT_EQ(cache.size(), 1u) << "mutant " << mutant;
    EXPECT_EQ(cache.stats().class_entries, 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);
  }
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kMutants);
}

TEST(LoaderFuzz, TestbedCacheMutantsLoadValidMatricesOrAreRejected) {
  const ScopedCacheDir cache_dir("scc_loader_fuzz_testbed");
  const sparse::CsrMatrix matrix = gen::banded(200, 6, 0.5, 11);
  testbed::store_cached("fuzz", 1.0, matrix);
  const std::string path = testbed::cache_directory() + "/" + testbed::cache_key("fuzz", 1.0);
  const std::string seed = slurp(path);
  ASSERT_FALSE(seed.empty());
  Rng rng(0xf022'0003);
  int loaded = 0;
  for (int mutant = 0; mutant < kMutants; ++mutant) {
    std::string bytes = mutate(seed, rng);
    if (mutant % 2 == 0) reseal(bytes);
    dump(path, bytes);
    if (const auto back = testbed::load_cached("fuzz", 1.0)) {
      back->validate();
      ++loaded;
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kMutants);
}

TEST(LoaderFuzz, FaultPlanJsonMutantsParseOrThrowCleanly) {
  cluster::FaultPlan plan;
  plan.seed = 31;
  plan.chips_per_domain = 2;
  plan.crash_rate = 0.15;
  plan.job_failure_rate = 0.1;
  plan.sdc_rate = 0.02;
  plan.chip_crashes = {{1, 0.1}};
  plan.chip_restarts = {{1, 0.2}};
  plan.chip_flaps = {{2, 0.05, 3, 0.04}};
  plan.tile_kills = {{0, 11, 0.12}};
  plan.brownouts = {{1, 2, 0.06, 0.09, 2.5}};
  plan.domain_outages = {{1, 0.3}};
  plan.domain_brownouts = {{0, 0.15, 0.1, 3.0}};
  plan.bad_dram = {{2, 0.4, 0.7}};
  const std::string seed = cluster::fault_plan_json(plan);
  const std::vector<std::string> tokens = {
      "4294967297", "-1",   "1e999", "99999999999999999999", "2147483648", "0.5",
      "null",       "true", "\"\"",  "\"chip\":",             "{",          "}",
      "[",          "]",    ",",     "\"kind\": \"chip_crash\","};
  Rng rng(0xf022'0004);
  int parsed = 0;
  for (int mutant = 0; mutant < kMutants; ++mutant) {
    std::string text = seed;
    const auto mutations = rng.uniform_in(1, 3);
    for (std::int64_t m = 0; m < mutations && !text.empty(); ++m) {
      const auto at = static_cast<std::size_t>(rng.uniform(text.size()));
      switch (rng.uniform(3)) {
        case 0:
          text.resize(at);
          break;
        case 1:
          text[at] = static_cast<char>(rng.uniform(256));
          break;
        default:
          text.insert(at, tokens[static_cast<std::size_t>(rng.uniform(tokens.size()))]);
          break;
      }
    }
    try {
      (void)cluster::parse_fault_plan_json(text);
      ++parsed;
    } catch (const std::invalid_argument&) {
    } catch (const SimulationError&) {
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutants);
}

TEST(LoaderFuzz, InflatedCountSnapshotIsRejectedBeforeAllocating) {
  // A version-3 snapshot of 36 bytes claiming 4,194,304 entries over an
  // empty payload whose checksum (FNV-1a of no bytes) matched, and the same
  // claim in the current framing with a valid checksum. Sized from the
  // count, the entry table would take about 1 GB.
  const TempFile file("scc_loader_fuzz_inflated.runcache");
  constexpr std::uint64_t kClaimed = std::uint64_t{1} << 22;
  std::string v3 = "SCCRUNC\n";
  put(v3, std::uint32_t{3});
  put(v3, kClaimed);
  put(v3, std::uint64_t{0});
  put(v3, std::uint64_t{0xcbf29ce484222325ULL});
  ASSERT_EQ(v3.size(), 36u);
  std::string framed = "SCCRUNC\n";
  put(framed, sim::RunCache::kSnapshotVersion);
  put(framed, std::uint32_t{0});
  put(framed, std::uint64_t{0});
  put(framed, std::uint64_t{0});
  put(framed, kClaimed);
  reseal(framed);

  for (const std::string& bytes : {v3, framed}) {
    dump(file.path, bytes);
    sim::RunCache cache(sim::RunCacheConfig{.capacity = 4});
    cache.insert(sim::RunKey{1, 2}, stub_result(0.25));
    EXPECT_FALSE(cache.load_snapshot(file.path));
    EXPECT_EQ(cache.size(), 1u);
  }
}

TEST(LoaderFuzz, EditedColumnIndexIsRejectedAndRebuilt) {
  const ScopedCacheDir cache_dir("scc_loader_fuzz_edit");
  constexpr double kScale = 0.05;
  const testbed::SuiteEntry clean = testbed::build_entry(3, kScale);  // generates and stores
  const sparse::CsrMatrix& m = clean.matrix;
  const std::string path =
      testbed::cache_directory() + "/" + testbed::cache_key(clean.name, kScale);
  std::string bytes = slurp(path);

  // Move row 0's last column one to the right: the arrays still form a
  // valid CSR matrix, so only the checksum can tell.
  const auto last = static_cast<std::size_t>(m.ptr()[1] - 1);
  const index_t edited = m.col()[last] + 1;
  std::vector<index_t> col(m.col().begin(), m.col().end());
  col[last] = edited;
  ASSERT_NO_THROW(sparse::CsrMatrix(m.rows(), m.cols(),
                                    std::vector<nnz_t>(m.ptr().begin(), m.ptr().end()), col,
                                    std::vector<real_t>(m.val().begin(), m.val().end())));
  // The col and val arrays end the file.
  const std::size_t nnz = static_cast<std::size_t>(m.nnz());
  const std::size_t offset =
      bytes.size() - nnz * (sizeof(index_t) + sizeof(real_t)) + last * sizeof(index_t);
  index_t stored = 0;
  std::memcpy(&stored, bytes.data() + offset, sizeof stored);
  ASSERT_EQ(stored, m.col()[last]);
  std::memcpy(bytes.data() + offset, &edited, sizeof edited);
  dump(path, bytes);

  EXPECT_FALSE(testbed::load_cached(clean.name, kScale).has_value());
  EXPECT_EQ(testbed::build_entry(3, kScale).matrix, m);  // rebuilt, not the edit
  const auto reloaded = testbed::load_cached(clean.name, kScale);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(*reloaded, m);
}

}  // namespace
}  // namespace scc
