#include "sparse/csr.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "gen/generators.hpp"
#include "testbed/suite.hpp"

namespace scc::sparse {
namespace {

/// The 5x5 example matrix of the paper's Figure 2 style illustrations.
CsrMatrix example_matrix() {
  CooMatrix coo(5, 5);
  coo.add(0, 0, 1.0);
  coo.add(0, 3, 2.0);
  coo.add(1, 1, 3.0);
  coo.add(2, 2, 4.0);
  coo.add(2, 4, 5.0);
  coo.add(3, 0, 6.0);
  coo.add(3, 3, 7.0);
  coo.add(4, 4, 8.0);
  return CsrMatrix::from_coo(std::move(coo));
}

TEST(Csr, FromCooShapesAndCounts) {
  const CsrMatrix m = example_matrix();
  EXPECT_EQ(m.rows(), 5);
  EXPECT_EQ(m.cols(), 5);
  EXPECT_EQ(m.nnz(), 8);
}

TEST(Csr, PtrIsPrefixSumOfRowLengths) {
  const CsrMatrix m = example_matrix();
  const auto ptr = m.ptr();
  EXPECT_EQ(ptr[0], 0);
  EXPECT_EQ(ptr[1], 2);
  EXPECT_EQ(ptr[2], 3);
  EXPECT_EQ(ptr[3], 5);
  EXPECT_EQ(ptr[4], 7);
  EXPECT_EQ(ptr[5], 8);
}

TEST(Csr, RowAccessors) {
  const CsrMatrix m = example_matrix();
  EXPECT_EQ(m.row_length(0), 2);
  EXPECT_EQ(m.row_length(1), 1);
  const auto cols = m.row_cols(2);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], 2);
  EXPECT_EQ(cols[1], 4);
  const auto vals = m.row_vals(2);
  EXPECT_DOUBLE_EQ(vals[0], 4.0);
  EXPECT_DOUBLE_EQ(vals[1], 5.0);
}

TEST(Csr, RowAccessorsBoundsChecked) {
  const CsrMatrix m = example_matrix();
  EXPECT_THROW(m.row_length(5), std::invalid_argument);
  EXPECT_THROW(m.row_cols(-1), std::invalid_argument);
}

TEST(Csr, RoundTripThroughCoo) {
  const CsrMatrix m = example_matrix();
  const CsrMatrix round = CsrMatrix::from_coo(m.to_coo());
  EXPECT_EQ(m, round);
}

TEST(Csr, FromCooMergesDuplicates) {
  CooMatrix coo(2, 2);
  coo.add(0, 1, 1.0);
  coo.add(0, 1, 2.0);
  const CsrMatrix m = CsrMatrix::from_coo(std::move(coo));
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_DOUBLE_EQ(m.row_vals(0)[0], 3.0);
}

TEST(Csr, ValidateRejectsBadPtr) {
  // ptr[n] != nnz
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1, 3}, {0, 1}, {1.0, 2.0}), std::invalid_argument);
  // ptr not starting at zero
  EXPECT_THROW(CsrMatrix(2, 2, {1, 1, 2}, {0, 1}, {1.0, 2.0}), std::invalid_argument);
  // non-monotone ptr
  EXPECT_THROW(CsrMatrix(2, 2, {0, 2, 1}, {0, 1}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Csr, ValidateRejectsBadColumns) {
  // out of range column
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1, 2}, {0, 2}, {1.0, 2.0}), std::invalid_argument);
  // duplicate column in one row
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {1, 1}, {1.0, 2.0}), std::invalid_argument);
  // decreasing columns in a row
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {2, 1}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Csr, ValidConstructionAccepted) {
  EXPECT_NO_THROW(CsrMatrix(2, 3, {0, 2, 3}, {0, 2, 1}, {1.0, 2.0, 3.0}));
}

TEST(Csr, TransposeInvolution) {
  const CsrMatrix m = example_matrix();
  EXPECT_EQ(m.transpose().transpose(), m);
}

TEST(Csr, TransposeMovesEntry) {
  const CsrMatrix m = example_matrix();
  const CsrMatrix t = m.transpose();
  // m(0,3)=2.0 must appear as t(3,0)=2.0.
  const auto cols = t.row_cols(3);
  const auto vals = t.row_vals(3);
  bool found = false;
  for (std::size_t k = 0; k < cols.size(); ++k) {
    if (cols[k] == 0) {
      found = true;
      EXPECT_DOUBLE_EQ(vals[k], 2.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Csr, TransposeRectangular) {
  CooMatrix coo(2, 4);
  coo.add(0, 3, 1.0);
  coo.add(1, 0, 2.0);
  const CsrMatrix m = CsrMatrix::from_coo(std::move(coo));
  const CsrMatrix t = m.transpose();
  EXPECT_EQ(t.rows(), 4);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_EQ(t.nnz(), 2);
}

TEST(Csr, PermuteIdentityIsNoop) {
  const CsrMatrix m = example_matrix();
  const std::vector<index_t> id{0, 1, 2, 3, 4};
  EXPECT_EQ(m.permute_symmetric(id), m);
}

TEST(Csr, PermuteReversalPreservesSpmvUpToPermutation) {
  const CsrMatrix m = example_matrix();
  const std::vector<index_t> rev{4, 3, 2, 1, 0};
  const CsrMatrix p = m.permute_symmetric(rev);
  std::vector<real_t> x{1.0, 2.0, 3.0, 4.0, 5.0};
  // permuted x: px[new] = x[perm[new]]
  std::vector<real_t> px(5);
  for (std::size_t i = 0; i < 5; ++i) px[i] = x[static_cast<std::size_t>(rev[i])];
  const auto y = dense_reference_spmv(m, x);
  const auto py = dense_reference_spmv(p, px);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(py[i], y[static_cast<std::size_t>(rev[i])]) << i;
  }
}

TEST(Csr, PermuteRejectsNonBijection) {
  const CsrMatrix m = example_matrix();
  const std::vector<index_t> bad{0, 0, 2, 3, 4};
  EXPECT_THROW(m.permute_symmetric(bad), std::invalid_argument);
}

TEST(Csr, PermuteRejectsWrongSize) {
  const CsrMatrix m = example_matrix();
  const std::vector<index_t> bad{0, 1, 2};
  EXPECT_THROW(m.permute_symmetric(bad), std::invalid_argument);
}

TEST(Csr, DenseReferenceMatchesHandComputation) {
  const CsrMatrix m = example_matrix();
  const std::vector<real_t> x{1.0, 1.0, 1.0, 1.0, 1.0};
  const auto y = dense_reference_spmv(m, x);
  EXPECT_DOUBLE_EQ(y[0], 3.0);   // 1 + 2
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 9.0);   // 4 + 5
  EXPECT_DOUBLE_EQ(y[3], 13.0);  // 6 + 7
  EXPECT_DOUBLE_EQ(y[4], 8.0);
}

TEST(Csr, DenseReferenceRejectsWrongXSize) {
  const CsrMatrix m = example_matrix();
  const std::vector<real_t> x{1.0};
  EXPECT_THROW(dense_reference_spmv(m, x), std::invalid_argument);
}

TEST(CsrFingerprint, IgnoresValuesButNotStructure) {
  const CsrMatrix a = example_matrix();
  CsrMatrix b = example_matrix();
  for (real_t& v : b.val_mutable()) v *= -3.5;
  // The timing model never reads values, so the fingerprint must not either.
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(CsrFingerprint, DistinguishesColPtrAndDims) {
  const CsrMatrix base(2, 3, {0, 2, 3}, {0, 2, 1}, {1.0, 2.0, 3.0});
  const CsrMatrix col_moved(2, 3, {0, 2, 3}, {0, 1, 1}, {1.0, 2.0, 3.0});
  const CsrMatrix row_moved(2, 3, {0, 1, 3}, {0, 0, 2}, {1.0, 2.0, 3.0});
  const CsrMatrix wider(2, 4, {0, 2, 3}, {0, 2, 1}, {1.0, 2.0, 3.0});
  const std::uint64_t fp = base.fingerprint();
  EXPECT_NE(fp, col_moved.fingerprint());
  EXPECT_NE(fp, row_moved.fingerprint());
  EXPECT_NE(fp, wider.fingerprint());
  EXPECT_NE(col_moved.fingerprint(), row_moved.fingerprint());
}

TEST(CsrFingerprint, StableAcrossConstructionPaths) {
  const auto m = gen::random_uniform(300, 7, 42);
  EXPECT_EQ(m.fingerprint(), m.fingerprint());
  EXPECT_EQ(CsrMatrix::from_coo(m.to_coo()).fingerprint(), m.fingerprint());
}

// A digest memo member without noexcept copy/move would make
// std::vector<SuiteEntry> copy every matrix when it reallocates.
static_assert(std::is_nothrow_move_constructible_v<CsrMatrix>);
static_assert(std::is_nothrow_move_assignable_v<CsrMatrix>);
static_assert(std::is_nothrow_move_constructible_v<testbed::SuiteEntry>);

/// The digests recomputed from the matrix's current arrays, bypassing the memo.
std::uint64_t direct_fingerprint(const CsrMatrix& m) {
  common::Fnv1a hash;
  hash.i64(m.rows());
  hash.i64(m.cols());
  hash.array(m.ptr());
  hash.array(m.col());
  return hash.value();
}

std::uint64_t direct_value_digest(const CsrMatrix& m) {
  common::Fnv1a hash;
  hash.array(m.val());
  return hash.value();
}

void expect_digests_match_contents(const CsrMatrix& m, const char* which) {
  EXPECT_EQ(m.fingerprint(), direct_fingerprint(m)) << which;
  EXPECT_EQ(m.value_digest(), direct_value_digest(m)) << which;
}

/// A matrix whose memos are already populated, so a stale copy would show.
CsrMatrix digested(CsrMatrix m) {
  m.fingerprint();
  m.value_digest();
  return m;
}

TEST(CsrFingerprint, MemoFollowsCopiesAndMoves) {
  CsrMatrix source = digested(example_matrix());

  const CsrMatrix copied(source);
  expect_digests_match_contents(copied, "copy-constructed");
  expect_digests_match_contents(source, "copy source");

  CsrMatrix moved(std::move(source));
  expect_digests_match_contents(moved, "move-constructed");
  expect_digests_match_contents(source, "moved-from (construct)");

  CsrMatrix copy_assigned = digested(gen::random_uniform(40, 3, 11));
  copy_assigned = copied;
  expect_digests_match_contents(copy_assigned, "copy-assigned");
  expect_digests_match_contents(copied, "copy-assign source");

  CsrMatrix move_assigned = digested(gen::random_uniform(40, 3, 12));
  move_assigned = std::move(moved);
  expect_digests_match_contents(move_assigned, "move-assigned");
  expect_digests_match_contents(moved, "moved-from (assign)");
  EXPECT_EQ(move_assigned.fingerprint(), copied.fingerprint());
}

TEST(CsrFingerprint, ValMutableResetsOnlyTheValueDigest) {
  CsrMatrix m = example_matrix();
  const std::uint64_t fp = m.fingerprint();
  const std::uint64_t values = m.value_digest();
  for (real_t& v : m.val_mutable()) v += 1.0;
  EXPECT_EQ(m.fingerprint(), fp);
  EXPECT_NE(m.value_digest(), values);
  expect_digests_match_contents(m, "after val_mutable");
}

TEST(CsrFingerprint, ConcurrentFirstCallsAgree) {
  const CsrMatrix m = gen::random_uniform(3000, 9, 5);
  constexpr std::size_t kThreads = 4;
  std::array<std::pair<std::uint64_t, std::uint64_t>, kThreads> seen{};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m, &seen, t] { seen[t] = {m.fingerprint(), m.value_digest()}; });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& [fp, values] : seen) {
    EXPECT_EQ(fp, direct_fingerprint(m));
    EXPECT_EQ(values, direct_value_digest(m));
  }
}

/// Property sweep over generated matrices: COO<->CSR round trips.
class CsrRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrRoundTrip, GeneratedMatrixRoundTrips) {
  const auto m = gen::random_uniform(200, 8, GetParam());
  EXPECT_EQ(CsrMatrix::from_coo(m.to_coo()), m);
  EXPECT_EQ(m.transpose().transpose(), m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrRoundTrip, ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace scc::sparse
