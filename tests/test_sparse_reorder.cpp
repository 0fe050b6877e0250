#include "sparse/reorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "sim/engine.hpp"
#include "sim/report.hpp"
#include "sparse/properties.hpp"

namespace scc::sparse {
namespace {

bool is_permutation_of_identity(const std::vector<index_t>& perm) {
  std::vector<index_t> sorted(perm);
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] != static_cast<index_t>(i)) return false;
  }
  return true;
}

TEST(Rcm, ReturnsValidPermutation) {
  const auto m = gen::stencil_2d(12, 12);
  const auto perm = reverse_cuthill_mckee(m);
  EXPECT_EQ(perm.size(), static_cast<std::size_t>(m.rows()));
  EXPECT_TRUE(is_permutation_of_identity(perm));
}

TEST(Rcm, RequiresSquareMatrix) {
  CooMatrix coo(2, 3);
  coo.add(0, 2, 1.0);
  const auto m = CsrMatrix::from_coo(std::move(coo));
  EXPECT_THROW(reverse_cuthill_mckee(m), std::invalid_argument);
}

TEST(Rcm, ReducesBandwidthOfShuffledBandedMatrix) {
  // Take a banded matrix, scramble it with a random permutation, and check
  // RCM recovers (most of) the band.
  const auto original = gen::banded(400, 6, 0.8, 42);
  std::vector<index_t> shuffle(400);
  std::iota(shuffle.begin(), shuffle.end(), 0);
  // Deterministic Fisher-Yates.
  std::uint64_t state = 12345;
  for (std::size_t i = shuffle.size() - 1; i > 0; --i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(shuffle[i], shuffle[state % (i + 1)]);
  }
  const auto scrambled = original.permute_symmetric(shuffle);
  ASSERT_GT(bandwidth(scrambled), 4 * bandwidth(original));

  const auto perm = reverse_cuthill_mckee(scrambled);
  const auto restored = scrambled.permute_symmetric(perm);
  EXPECT_LT(bandwidth(restored), bandwidth(scrambled) / 4);
}

TEST(Rcm, HandlesDisconnectedComponents) {
  // Two disjoint chains.
  CooMatrix coo(10, 10);
  for (index_t i = 0; i < 4; ++i) coo.add(i, i + 1, 1.0);
  for (index_t i = 5; i < 9; ++i) coo.add(i, i + 1, 1.0);
  for (index_t i = 0; i < 10; ++i) coo.add(i, i, 1.0);
  const auto m = CsrMatrix::from_coo(std::move(coo));
  const auto perm = reverse_cuthill_mckee(m);
  EXPECT_TRUE(is_permutation_of_identity(perm));
}

TEST(Rcm, HandlesIsolatedVertices) {
  CooMatrix coo(6, 6);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  const auto m = CsrMatrix::from_coo(std::move(coo));
  const auto perm = reverse_cuthill_mckee(m);
  EXPECT_TRUE(is_permutation_of_identity(perm));
}

TEST(Rcm, WorksOnUnsymmetricPattern) {
  // Pattern is symmetrized internally, so a one-directional chain works.
  CooMatrix coo(8, 8);
  for (index_t i = 0; i < 7; ++i) coo.add(i, i + 1, 1.0);
  for (index_t i = 0; i < 8; ++i) coo.add(i, i, 1.0);
  const auto m = CsrMatrix::from_coo(std::move(coo));
  const auto perm = reverse_cuthill_mckee(m);
  EXPECT_TRUE(is_permutation_of_identity(perm));
  const auto reordered = m.permute_symmetric(perm);
  EXPECT_LE(bandwidth(reordered), bandwidth(m));
}

TEST(Rcm, PermutedSpmvEquivalence) {
  // RCM changes data layout, not the operator: P A P^T (P x) == P (A x).
  const auto m = gen::power_law(200, 6, 1.1, 7);
  const auto perm = reverse_cuthill_mckee(m);
  const auto reordered = m.permute_symmetric(perm);
  std::vector<real_t> x(200);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::sin(static_cast<double>(i));
  std::vector<real_t> px(200);
  for (std::size_t i = 0; i < px.size(); ++i) px[i] = x[static_cast<std::size_t>(perm[i])];
  const auto y = dense_reference_spmv(m, x);
  const auto py = dense_reference_spmv(reordered, px);
  for (std::size_t i = 0; i < py.size(); ++i) {
    EXPECT_NEAR(py[i], y[static_cast<std::size_t>(perm[i])], 1e-9);
  }
}

/// Property sweep: RCM output is always a permutation, for several families.
class RcmSweep : public ::testing::TestWithParam<int> {};

TEST_P(RcmSweep, AlwaysPermutation) {
  CsrMatrix m;
  switch (GetParam()) {
    case 0: m = gen::banded(300, 9, 0.5, 3); break;
    case 1: m = gen::random_uniform(300, 4, 3); break;
    case 2: m = gen::power_law(300, 5, 1.3, 3); break;
    case 3: m = gen::circuit(300, 2.0, 0.4, 3); break;
    default: m = gen::stencil_2d(17, 18); break;
  }
  EXPECT_TRUE(is_permutation_of_identity(reverse_cuthill_mckee(m)));
}

INSTANTIATE_TEST_SUITE_P(Families, RcmSweep, ::testing::Values(0, 1, 2, 3, 4));

// --- CsrMatrix::rcm_order, the memoized order ---

void expect_direct_order(const CsrMatrix& m, const std::string& what) {
  const std::vector<index_t> direct = reverse_cuthill_mckee(m);
  const auto memo = m.rcm_order();
  EXPECT_TRUE(std::equal(memo.begin(), memo.end(), direct.begin(), direct.end())) << what;
}

TEST(RcmMemo, EqualsTheDirectOrder) {
  const std::vector<CsrMatrix> matrices = {
      gen::stencil_2d(13, 9), gen::random_uniform(301, 5, 3), gen::power_law(257, 6, 1.2, 4),
      gen::circuit(403, 1.5, 0.3, 5), gen::banded(300, 7, 0.4, 6)};
  for (std::size_t i = 0; i < matrices.size(); ++i) {
    expect_direct_order(matrices[i], "matrix " + std::to_string(i));
    // Later calls read the stored order.
    EXPECT_EQ(matrices[i].rcm_order().data(), matrices[i].rcm_order().data());
  }
  CooMatrix coo(2, 3);
  coo.add(0, 2, 1.0);
  const auto wide = CsrMatrix::from_coo(std::move(coo));
  EXPECT_THROW(wide.rcm_order(), std::invalid_argument);
  EXPECT_THROW(wide.rcm_order(), std::invalid_argument);  // a failure stores nothing
}

TEST(RcmMemo, SurvivesValMutableCopyAndMove) {
  CsrMatrix m = gen::random_uniform(301, 5, 7);
  const index_t* stored = m.rcm_order().data();

  for (real_t& v : m.val_mutable()) v *= -2.0;  // values only: the order stays
  EXPECT_EQ(m.rcm_order().data(), stored);
  expect_direct_order(m, "after val_mutable");

  const CsrMatrix copied(m);  // copies share the one order
  EXPECT_EQ(copied.rcm_order().data(), stored);

  CsrMatrix copy_assigned = gen::banded(200, 4, 0.5, 8);
  copy_assigned.rcm_order();
  copy_assigned = copied;
  EXPECT_EQ(copy_assigned.rcm_order().data(), stored);
  expect_direct_order(copy_assigned, "copy-assigned");

  CsrMatrix moved(std::move(m));
  EXPECT_EQ(moved.rcm_order().data(), stored);

  CsrMatrix move_assigned = gen::banded(200, 4, 0.5, 9);
  move_assigned.rcm_order();
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.rcm_order().data(), stored);
  expect_direct_order(move_assigned, "move-assigned");

  // A fresh matrix of the same structure computes its own, equal order.
  const CsrMatrix rebuilt = gen::random_uniform(301, 5, 7);
  EXPECT_NE(rebuilt.rcm_order().data(), stored);
  EXPECT_TRUE(std::equal(rebuilt.rcm_order().begin(), rebuilt.rcm_order().end(),
                         copied.rcm_order().begin(), copied.rcm_order().end()));
}

TEST(RcmMemo, ConcurrentFirstCallsAgree) {
  const CsrMatrix m = gen::power_law(3000, 9, 1.2, 5);
  constexpr std::size_t kThreads = 4;
  std::array<std::span<const index_t>, kThreads> seen{};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m, &seen, t] { seen[t] = m.rcm_order(); });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& order : seen) EXPECT_EQ(order.data(), seen.front().data());
  expect_direct_order(m, "after concurrent first calls");
}

TEST(RcmMemo, ReorderedEngineRunIsBitIdenticalColdOrWarm) {
  const CsrMatrix m = gen::power_law(2000, 8, 1.1, 21);
  const CsrMatrix untouched(m);  // copied before any order exists: cold
  const sim::Engine engine;
  for (const sim::StorageFormat format :
       {sim::StorageFormat::kCsr, sim::StorageFormat::kBcsr2, sim::StorageFormat::kHyb}) {
    sim::RunSpec spec;
    spec.ue_count = 8;
    spec.format = format;
    spec.reorder = sim::Reordering::kRcmRows;
    const CsrMatrix fresh = gen::power_law(2000, 8, 1.1, 21);
    const std::string cold = sim::run_report_json(engine, spec, engine.run(fresh, spec)).dump();
    const std::string warm = sim::run_report_json(engine, spec, engine.run(fresh, spec)).dump();
    EXPECT_EQ(warm, cold) << sim::to_string(format);
    EXPECT_EQ(sim::run_report_json(engine, spec, engine.run(untouched, spec)).dump(), cold)
        << sim::to_string(format);

    // And equal to replaying the explicitly permuted matrix.
    sim::RunSpec plain = spec;
    plain.reorder = sim::Reordering::kNone;
    const sim::RunResult reordered = engine.run(fresh, spec);
    const sim::RunResult explicit_order =
        engine.run(m.permute_rows(reverse_cuthill_mckee(m)), plain);
    EXPECT_EQ(reordered.seconds, explicit_order.seconds) << sim::to_string(format);
    ASSERT_EQ(reordered.cores.size(), explicit_order.cores.size());
    for (std::size_t rank = 0; rank < reordered.cores.size(); ++rank) {
      EXPECT_EQ(reordered.cores[rank].trace.l1.accesses(),
                explicit_order.cores[rank].trace.l1.accesses());
      EXPECT_EQ(reordered.cores[rank].trace.memory_accesses,
                explicit_order.cores[rank].trace.memory_accesses);
      EXPECT_EQ(reordered.cores[rank].trace.tlb_misses,
                explicit_order.cores[rank].trace.tlb_misses);
    }
  }
}

}  // namespace
}  // namespace scc::sparse
