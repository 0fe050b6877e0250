#include "testbed/suite.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "common/framed_file.hpp"
#include "testbed/cache.hpp"

namespace scc::testbed {
namespace {

// Tests use a small scale so the whole suite builds in a couple of seconds.
constexpr double kTestScale = 0.05;

class TestbedSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Isolate the cache from (and for) other test runs.
    cache_dir_ = ::testing::TempDir() + "/scc_testbed_cache";
    setenv("SCC_SPMV_CACHE_DIR", cache_dir_.c_str(), 1);
    suite_ = new std::vector<SuiteEntry>(build_suite(kTestScale));
  }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
    unsetenv("SCC_SPMV_CACHE_DIR");
  }
  static std::vector<SuiteEntry>* suite_;
  static std::string cache_dir_;
};

std::vector<SuiteEntry>* TestbedSuite::suite_ = nullptr;
std::string TestbedSuite::cache_dir_;

TEST_F(TestbedSuite, ThirtyTwoMatrices) {
  EXPECT_EQ(suite_->size(), 32u);
  EXPECT_EQ(table1_specs().size(), 32u);
}

TEST_F(TestbedSuite, IdsSequentialNamesUnique) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < suite_->size(); ++i) {
    EXPECT_EQ((*suite_)[i].id, static_cast<int>(i) + 1);
    names.insert((*suite_)[i].name);
  }
  EXPECT_EQ(names.size(), 32u);
}

TEST_F(TestbedSuite, AllMatricesSquareAndNonEmpty) {
  for (const auto& e : *suite_) {
    EXPECT_EQ(e.matrix.rows(), e.matrix.cols()) << e.name;
    EXPECT_GT(e.matrix.nnz(), 0) << e.name;
  }
}

TEST_F(TestbedSuite, WorkingSetColumnMatchesFormula) {
  for (const auto& e : *suite_) {
    EXPECT_EQ(e.working_set, sparse::working_set_bytes(e.matrix)) << e.name;
  }
}

TEST_F(TestbedSuite, ShortRowOutliersAre24And25) {
  // The paper's discussion hinges on matrices 24/25 having very short rows.
  const double len24 = (*suite_)[23].nnz_per_row;
  const double len25 = (*suite_)[24].nnz_per_row;
  EXPECT_LT(len24, 3.5);
  EXPECT_LT(len25, 3.5);
  // And they must be the *shortest* rows in the suite.
  for (const auto& e : *suite_) {
    if (e.id != 24 && e.id != 25) {
      EXPECT_GT(e.nnz_per_row, std::max(len24, len25) - 0.5) << e.name;
    }
  }
}

TEST_F(TestbedSuite, FamiliesCoverAllClasses) {
  std::set<std::string> families;
  for (const auto& e : *suite_) families.insert(e.family);
  EXPECT_TRUE(families.count("fem"));
  EXPECT_TRUE(families.count("banded"));
  EXPECT_TRUE(families.count("random"));
  EXPECT_TRUE(families.count("power-law"));
  EXPECT_TRUE(families.count("circuit"));
}

TEST_F(TestbedSuite, WorkingSetSpreadExists) {
  bytes_t smallest = suite_->front().working_set;
  bytes_t largest = suite_->front().working_set;
  for (const auto& e : *suite_) {
    smallest = std::min(smallest, e.working_set);
    largest = std::max(largest, e.working_set);
  }
  // The suite must span at least ~6x in working set even at test scale.
  EXPECT_GT(static_cast<double>(largest), 4.0 * static_cast<double>(smallest));
}

TEST_F(TestbedSuite, BuildEntryMatchesSuite) {
  const SuiteEntry e7 = build_entry(7, kTestScale);
  EXPECT_EQ(e7.name, (*suite_)[6].name);
  EXPECT_EQ(e7.matrix, (*suite_)[6].matrix);
}

TEST_F(TestbedSuite, DeterministicAcrossBuilds) {
  const SuiteEntry a = build_entry(14, kTestScale, /*use_cache=*/false);
  const SuiteEntry b = build_entry(14, kTestScale, /*use_cache=*/false);
  EXPECT_EQ(a.matrix, b.matrix);
}

TEST_F(TestbedSuite, CacheRoundTripsExactly) {
  const SuiteEntry fresh = build_entry(22, kTestScale, /*use_cache=*/false);
  store_cached(fresh.name, kTestScale, fresh.matrix);
  const auto loaded = load_cached(fresh.name, kTestScale);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, fresh.matrix);
}

TEST_F(TestbedSuite, CacheMissReturnsNullopt) {
  EXPECT_FALSE(load_cached("no-such-matrix", 1.0).has_value());
}

TEST_F(TestbedSuite, CacheIgnoresCorruptFile) {
  const std::string dir = cache_directory();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + cache_key("corrupt-test", 1.0);
  // A well-formed, correctly checksummed frame (magic, version 4) whose
  // payload claims 4x4 with 10^15 nonzeros after a valid ptr array: must be
  // a rebuild, not an allocation.
  std::string payload;
  const auto put = [](std::string& out, auto value) {
    out.append(reinterpret_cast<const char*>(&value), sizeof value);
  };
  put(payload, std::int64_t{4});
  put(payload, std::int64_t{4});
  put(payload, std::int64_t{1'000'000'000'000'000});
  for (int i = 0; i < 5; ++i) put(payload, std::int64_t{0});
  common::FrameChecksum checksum;
  checksum.update(payload.data(), payload.size());
  std::string huge_nnz;
  put(huge_nnz, std::uint64_t{0x5cc5bedf11e00001ULL});
  put(huge_nnz, std::uint32_t{4});
  put(huge_nnz, std::uint32_t{0});
  put(huge_nnz, std::uint64_t{payload.size()});
  put(huge_nnz, checksum.value());
  huge_nnz += payload;
  for (const std::string& bytes : {std::string("garbage"), huge_nnz}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    EXPECT_FALSE(load_cached("corrupt-test", 1.0).has_value());
  }
}

TEST_F(TestbedSuite, ScaleKeysDistinctCacheFiles) {
  EXPECT_NE(cache_key("F1", 1.0), cache_key("F1", 0.5));
  EXPECT_NE(cache_key("F1", 1.0), cache_key("F2", 1.0));
}

TEST(TestbedSpec, SpecByIdValidates) {
  EXPECT_THROW(spec_by_id(0), std::invalid_argument);
  EXPECT_THROW(spec_by_id(33), std::invalid_argument);
  EXPECT_EQ(spec_by_id(24).name, "rajat15");
  EXPECT_EQ(spec_by_id(25).name, "ncvxbqp1");
  EXPECT_EQ(spec_by_id(2).name, "F1");
}

TEST(TestbedSpec, ScaleFromEnvParsing) {
  setenv("SCC_TESTBED_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(suite_scale_from_env(), 0.25);
  setenv("SCC_TESTBED_SCALE", "9.0", 1);
  EXPECT_THROW(suite_scale_from_env(), std::invalid_argument);
  unsetenv("SCC_TESTBED_SCALE");
  EXPECT_DOUBLE_EQ(suite_scale_from_env(), 1.0);
}

}  // namespace
}  // namespace scc::testbed
