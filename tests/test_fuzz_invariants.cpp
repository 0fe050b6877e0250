// Randomized property and failure-injection tests: corrupt inputs must be
// rejected, and structural invariants must hold for arbitrary generated
// workloads. All randomness is seeded -- failures reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "cache/hierarchy.hpp"
#include "common/rng.hpp"
#include "gen/generators.hpp"
#include "sim/engine.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"
#include "spmv/kernels.hpp"

namespace scc {
namespace {

/// CSR corruption fuzz: mutate one raw array entry and require validate() to
/// reject the result (or, for value mutations, accept -- values carry no
/// invariants).
class CsrCorruptionFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrCorruptionFuzz, StructuralCorruptionDetected) {
  Rng rng(GetParam());
  const auto m = gen::power_law(200, 6, 1.2, 4);
  std::vector<nnz_t> ptr(m.ptr().begin(), m.ptr().end());
  std::vector<index_t> col(m.col().begin(), m.col().end());
  std::vector<real_t> val(m.val().begin(), m.val().end());

  for (int trial = 0; trial < 50; ++trial) {
    auto ptr2 = ptr;
    auto col2 = col;
    const int kind = static_cast<int>(rng.uniform(3));
    bool must_fail = true;
    switch (kind) {
      case 0: {  // push a ptr entry beyond nnz: breaks monotonicity or the tail
        const auto i = 1 + rng.uniform(ptr2.size() - 1);
        ptr2[i] += m.nnz() + 1;
        break;
      }
      case 1: {  // out-of-range column
        if (col2.empty()) continue;
        const auto i = rng.uniform(col2.size());
        col2[i] = static_cast<index_t>(m.cols() + rng.uniform_in(0, 5));
        break;
      }
      default: {  // negative column
        if (col2.empty()) continue;
        const auto i = rng.uniform(col2.size());
        col2[i] = static_cast<index_t>(-1 - rng.uniform_in(0, 5));
        break;
      }
    }
    if (must_fail) {
      EXPECT_THROW(sparse::CsrMatrix(m.rows(), m.cols(), ptr2, col2, val),
                   std::invalid_argument)
          << "kind " << kind << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrCorruptionFuzz, ::testing::Values(1u, 2u, 3u));

/// Cache invariant fuzz: random access streams never violate the basic
/// accounting identities, and residency never exceeds capacity.
class CacheFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheFuzz, AccountingIdentitiesHold) {
  Rng rng(GetParam());
  cache::CacheConfig cfg{.size_bytes = 2048, .line_bytes = 32, .ways = 4};
  cache::Cache cache(cfg);
  std::vector<std::uint64_t> touched;
  const int accesses = 20000;
  for (int i = 0; i < accesses; ++i) {
    // Skewed address distribution: hot region + cold tail.
    const std::uint64_t addr = rng.bernoulli(0.7) ? rng.uniform(4096) : rng.uniform(1 << 20);
    const bool write = rng.bernoulli(0.3);
    cache.access(addr, write);
    touched.push_back((addr / 32) * 32);
  }
  const auto& s = cache.stats();
  EXPECT_EQ(s.accesses(), static_cast<std::uint64_t>(accesses));
  EXPECT_EQ(s.hits() + s.misses(), s.accesses());
  EXPECT_LE(s.dirty_writebacks, s.evictions);
  // Residency bound: at most size/line lines can answer contains().
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  std::uint64_t resident = 0;
  for (std::uint64_t line : touched) {
    if (cache.contains(line)) ++resident;
  }
  EXPECT_LE(resident, cfg.size_bytes / cfg.line_bytes);
  // Misses at least cover the distinct lines ever touched... bounded below
  // by compulsory misses of resident lines:
  EXPECT_GE(s.misses(), resident);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheFuzz, ::testing::Values(11u, 12u, 13u, 14u));

/// Hierarchy fuzz: the per-level service counts always partition accesses,
/// for random configs and streams.
class HierarchyFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HierarchyFuzz, ServiceLevelsPartitionAccesses) {
  Rng rng(GetParam());
  cache::HierarchyConfig cfg;
  cfg.l1 = {.size_bytes = 512u << rng.uniform(3), .line_bytes = 32, .ways = 2};
  cfg.l2 = {.size_bytes = 8192u << rng.uniform(3), .line_bytes = 32, .ways = 4};
  cfg.l2_enabled = rng.bernoulli(0.8);
  cache::Hierarchy h(cfg);
  std::uint64_t l1_hits = 0, l2_hits = 0, mem = 0;
  const int accesses = 20000;
  for (int i = 0; i < accesses; ++i) {
    const auto e = h.access(rng.uniform(1 << 18), rng.bernoulli(0.25));
    switch (e.level) {
      case cache::ServicedBy::kL1: ++l1_hits; break;
      case cache::ServicedBy::kL2: ++l2_hits; break;
      case cache::ServicedBy::kMemory: ++mem; break;
    }
    if (e.level != cache::ServicedBy::kMemory) {
      EXPECT_EQ(e.memory_read_bytes, 0u);
    } else {
      EXPECT_EQ(e.memory_read_bytes, 32u);
    }
  }
  EXPECT_EQ(l1_hits + l2_hits + mem, static_cast<std::uint64_t>(accesses));
  if (!cfg.l2_enabled) {
    EXPECT_EQ(l2_hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyFuzz, ::testing::Values(21u, 22u, 23u, 24u));

/// Kernel equivalence fuzz: random matrices from a random family, random x;
/// every kernel and every partitioning agrees with the dense reference.
class KernelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelFuzz, AllPathsAgree) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 6; ++trial) {
    const auto n = static_cast<index_t>(rng.uniform_in(50, 800));
    sparse::CsrMatrix m;
    switch (rng.uniform(4)) {
      case 0: m = gen::banded(n, std::min<index_t>(9, n - 1), 0.4, rng.next()); break;
      case 1: m = gen::random_uniform(n, std::min<index_t>(6, n - 1), rng.next()); break;
      case 2: m = gen::power_law(n, std::min<index_t>(6, n / 2), 1.2, rng.next()); break;
      default: m = gen::circuit(n, 2.0, 0.5, rng.next()); break;
    }
    std::vector<real_t> x(static_cast<std::size_t>(n));
    for (auto& v : x) v = rng.uniform_real(-2.0, 2.0);
    const auto ref = sparse::dense_reference_spmv(m, x);

    std::vector<real_t> y(static_cast<std::size_t>(n));
    spmv::spmv_csr(m, x, y);
    for (std::size_t i = 0; i < y.size(); ++i) ASSERT_NEAR(y[i], ref[i], 1e-9);

    const int parts = static_cast<int>(rng.uniform_in(1, 48));
    std::fill(y.begin(), y.end(), 0.0);
    for (const auto& block : sparse::partition_rows_balanced_nnz(m, parts)) {
      spmv::spmv_csr_range(m, block.row_begin, block.row_end, x, y);
    }
    for (std::size_t i = 0; i < y.size(); ++i) ASSERT_NEAR(y[i], ref[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzz, ::testing::Values(31u, 32u, 33u, 34u, 35u));

/// Engine property fuzz: runtime is finite/positive and monotone in the
/// core-clock for random suite-like matrices.
class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, RuntimePositiveAndClockMonotone) {
  Rng rng(GetParam());
  const auto m = gen::power_law(static_cast<index_t>(rng.uniform_in(2000, 20000)), 8, 1.2,
                                rng.next());
  const int ues = static_cast<int>(rng.uniform_in(1, 48));
  sim::EngineConfig slow;
  slow.freq = chip::FrequencyConfig(400, 800, 800);
  sim::EngineConfig fast;
  fast.freq = chip::FrequencyConfig(800, 800, 800);
  const sim::RunSpec spec{.ue_count = ues, .policy = chip::MappingPolicy::kDistanceReduction};
  const double t_slow = sim::Engine(slow).run(m, spec).seconds;
  const double t_fast = sim::Engine(fast).run(m, spec).seconds;
  EXPECT_GT(t_slow, 0.0);
  EXPECT_TRUE(std::isfinite(t_slow));
  EXPECT_LE(t_fast, t_slow);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Values(41u, 42u, 43u));

}  // namespace
}  // namespace scc
