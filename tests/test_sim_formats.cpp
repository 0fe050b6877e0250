#include "sim/format_traces.hpp"

#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "sim/engine.hpp"

namespace scc::sim {
namespace {

cache::Hierarchy fresh_hierarchy() { return cache::Hierarchy(cache::HierarchyConfig{}); }

sparse::RowBlock whole(const sparse::CsrMatrix& m) {
  return sparse::RowBlock{0, m.rows(), m.nnz()};
}

TEST(EllTrace, ExecutedElementsAreWidthTimesRows) {
  const auto m = gen::random_uniform(500, 7, 1);  // uniform 8-entry rows
  auto h = fresh_hierarchy();
  const auto r = run_ell_trace(m, whole(m), h, nullptr);
  EXPECT_DOUBLE_EQ(r.executed_elements, 8.0 * 500.0);
  // 5 accesses per slot (idx, val, x, y read, y write).
  EXPECT_EQ(h.l1().stats().accesses(), 5u * 8u * 500u);
}

TEST(EllTrace, PaddingExecutesOnSkewedRows) {
  sparse::CooMatrix coo(100, 100);
  for (index_t i = 0; i < 100; ++i) coo.add(i, i, 1.0);
  for (index_t j = 1; j < 50; ++j) coo.add(0, j, 1.0);
  const auto m = sparse::CsrMatrix::from_coo(std::move(coo));
  auto h = fresh_hierarchy();
  const auto r = run_ell_trace(m, whole(m), h, nullptr);
  // Width = 50, so 100*50 slots executed for 149 nonzeros.
  EXPECT_DOUBLE_EQ(r.executed_elements, 5000.0);
}

TEST(EllTrace, BlockLocalWidth) {
  // Per-UE slabs use the *local* maximum row length: a block without the
  // long row must not pay its padding.
  sparse::CooMatrix coo(100, 100);
  for (index_t i = 0; i < 100; ++i) coo.add(i, i, 1.0);
  for (index_t j = 1; j < 50; ++j) coo.add(0, j, 1.0);
  const auto m = sparse::CsrMatrix::from_coo(std::move(coo));
  auto h = fresh_hierarchy();
  const sparse::RowBlock tail{50, 100, 50};
  const auto r = run_ell_trace(m, tail, h, nullptr);
  EXPECT_DOUBLE_EQ(r.executed_elements, 50.0);  // width 1
}

TEST(BcsrTrace, PerfectBlocksNoFill) {
  const auto m = gen::fem_blocks(50, 4, 0, 2);  // pure 4x4 diagonal blocks
  auto h = fresh_hierarchy();
  const auto r = run_bcsr_trace(m, whole(m), 4, h, nullptr);
  EXPECT_DOUBLE_EQ(r.executed_elements, static_cast<double>(m.nnz()));
  EXPECT_DOUBLE_EQ(r.rows_iterated, 50.0);
}

TEST(BcsrTrace, FillInflatesExecutedElements) {
  const auto m = gen::circuit(1000, 1.5, 0.5, 3);  // sparse scattered rows
  auto h = fresh_hierarchy();
  const auto r = run_bcsr_trace(m, whole(m), 4, h, nullptr);
  EXPECT_GT(r.executed_elements, 2.0 * static_cast<double>(m.nnz()));
}

TEST(BcsrTrace, ValidatesBlockSize) {
  const auto m = gen::stencil_2d(4, 4);
  auto h = fresh_hierarchy();
  EXPECT_THROW(run_bcsr_trace(m, whole(m), 0, h, nullptr), std::invalid_argument);
  EXPECT_THROW(run_bcsr_trace(m, whole(m), 17, h, nullptr), std::invalid_argument);
}

TEST(HybTrace, ExecutedBetweenNnzAndEll) {
  const auto m = gen::power_law(800, 8, 1.2, 4);
  auto h1 = fresh_hierarchy();
  const auto ell = run_ell_trace(m, whole(m), h1, nullptr);
  auto h2 = fresh_hierarchy();
  const auto hyb = run_hyb_trace(m, whole(m), 0.33, h2, nullptr);
  EXPECT_GE(hyb.executed_elements, static_cast<double>(m.nnz()) * 0.99);
  EXPECT_LE(hyb.executed_elements, ell.executed_elements + 1e-9);
}

TEST(HybTrace, ZeroSpillEqualsEll) {
  const auto m = gen::power_law(400, 6, 1.1, 5);
  auto h1 = fresh_hierarchy();
  const auto ell = run_ell_trace(m, whole(m), h1, nullptr);
  auto h2 = fresh_hierarchy();
  const auto hyb = run_hyb_trace(m, whole(m), 0.0, h2, nullptr);
  EXPECT_DOUBLE_EQ(hyb.executed_elements, ell.executed_elements);
}

TEST(HybTrace, ValidatesSpill) {
  const auto m = gen::stencil_2d(4, 4);
  auto h = fresh_hierarchy();
  EXPECT_THROW(run_hyb_trace(m, whole(m), 1.0, h, nullptr), std::invalid_argument);
}

TEST(FormatTraces, BlocksOutOfRangeRejected) {
  const auto m = gen::stencil_2d(5, 5);
  auto h = fresh_hierarchy();
  const sparse::RowBlock bad{0, 26, 0};
  EXPECT_THROW(run_ell_trace(m, bad, h, nullptr), std::invalid_argument);
  EXPECT_THROW(run_bcsr_trace(m, bad, 2, h, nullptr), std::invalid_argument);
  EXPECT_THROW(run_hyb_trace(m, bad, 0.3, h, nullptr), std::invalid_argument);
}

TEST(EngineFormats, CsrPassthroughMatchesRun) {
  const Engine engine;
  const auto m = gen::banded(5000, 10, 0.5, 6);
  RunSpec spec{.ue_count = 8, .policy = chip::MappingPolicy::kDistanceReduction};
  const double a = engine.run(m, spec).seconds;
  spec.format = StorageFormat::kCsr;
  const double b = engine.run(m, spec).seconds;
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(EngineFormats, AllFormatsProducePositivePerformance) {
  const Engine engine;
  const auto m = gen::power_law(3000, 8, 1.2, 7);
  RunSpec spec{.ue_count = 8, .policy = chip::MappingPolicy::kDistanceReduction};
  for (auto format : {StorageFormat::kCsr, StorageFormat::kEll, StorageFormat::kBcsr2,
                      StorageFormat::kBcsr4, StorageFormat::kHyb}) {
    spec.format = format;
    const auto r = engine.run(m, spec);
    EXPECT_GT(r.gflops, 0.0) << to_string(format);
  }
}

TEST(EngineFormats, EllPenalizedOnSkewedRows) {
  const Engine engine;
  const auto m = gen::power_law(5000, 12, 0.9, 8);  // heavy-tailed rows
  RunSpec spec{.ue_count = 8, .policy = chip::MappingPolicy::kDistanceReduction};
  const double csr = engine.run(m, spec).gflops;
  spec.format = StorageFormat::kEll;
  const double ell = engine.run(m, spec).gflops;
  EXPECT_LT(ell, csr);
}

TEST(EngineFormats, BcsrWinsOnPerfectBlocks) {
  const Engine engine;
  auto m = gen::fem_blocks(3000, 4, 0, 9);  // pure 4x4 blocks, ~192k nnz
  RunSpec spec{.ue_count = 8, .policy = chip::MappingPolicy::kDistanceReduction};
  const double csr = engine.run(m, spec).gflops;
  spec.format = StorageFormat::kBcsr4;
  const double bcsr = engine.run(m, spec).gflops;
  EXPECT_GT(bcsr, csr);
}

TEST(EngineFormats, ToStringNames) {
  EXPECT_EQ(to_string(StorageFormat::kCsr), "CSR");
  EXPECT_EQ(to_string(StorageFormat::kEll), "ELL");
  EXPECT_EQ(to_string(StorageFormat::kBcsr2), "BCSR b=2");
  EXPECT_EQ(to_string(StorageFormat::kBcsr4), "BCSR b=4");
  EXPECT_EQ(to_string(StorageFormat::kHyb), "HYB");
}

}  // namespace
}  // namespace scc::sim
