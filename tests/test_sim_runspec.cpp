// The RunSpec contract: Engine::run(matrix, RunSpec) is the engine's one
// entry point, so every knob's validation and accounting is pinned here.
#include <gtest/gtest.h>

#include <vector>

#include "gen/generators.hpp"
#include "obs/trace.hpp"
#include "scc/mapping.hpp"
#include "sim/engine.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"

namespace scc::sim {
namespace {

sparse::CsrMatrix test_matrix() { return gen::banded(800, 16, 0.5, 11); }

TEST(RunSpec, DegradedRunPricesSurvivorsPlusRecovery) {
  const auto m = test_matrix();
  const Engine engine;
  const std::vector<int> dead = {1, 3};
  const RunSpec spec{.ue_count = 8,
                     .policy = chip::MappingPolicy::kDistanceReduction,
                     .dead_ranks = dead,
                     .detection_seconds = 0.002};
  const RunResult degraded = engine.run(m, spec);

  // The survivors redo the whole product: a healthy run on their cores.
  const std::vector<int> cores = chip::map_ues_to_cores(spec.policy, spec.ue_count);
  std::vector<int> survivor_cores;
  for (std::size_t rank = 0; rank < cores.size(); ++rank) {
    if (rank != 1 && rank != 3) survivor_cores.push_back(cores[rank]);
  }
  const RunResult survivors = engine.run(m, {.cores = survivor_cores});
  ASSERT_EQ(degraded.cores.size(), survivor_cores.size());
  for (std::size_t i = 0; i < degraded.cores.size(); ++i) {
    const CoreResult& got = degraded.cores[i];
    const CoreResult& want = survivors.cores[i];
    EXPECT_EQ(got.core, survivor_cores[i]);
    EXPECT_EQ(got.core, want.core);
    EXPECT_EQ(got.hops, want.hops);
    EXPECT_EQ(got.trace.memory_accesses, want.trace.memory_accesses);
    EXPECT_EQ(got.trace.l2_hit_accesses, want.trace.l2_hit_accesses);
    EXPECT_EQ(got.trace.tlb_misses, want.trace.tlb_misses);
    EXPECT_EQ(got.trace.nnz, want.trace.nnz);
    EXPECT_EQ(got.isolated_seconds, want.isolated_seconds);
  }

  // Recovery re-ships the dead ranks' CSR slices of the 8-way partition
  // (rebased ptr + col + val) after one detection window per dead rank.
  const auto blocks = sparse::partition_rows_balanced_nnz(m, spec.ue_count);
  bytes_t reshipped = 0;
  for (const int rank : dead) {
    const sparse::RowBlock& b = blocks[static_cast<std::size_t>(rank)];
    reshipped += static_cast<bytes_t>(b.row_count() + 1) * sizeof(nnz_t) +
                 static_cast<bytes_t>(b.nnz) * (sizeof(index_t) + sizeof(real_t));
  }
  EXPECT_EQ(degraded.dead_count, 2);
  EXPECT_EQ(degraded.reshipped_bytes, reshipped);
  EXPECT_EQ(degraded.recovery_seconds,
            spec.detection_seconds * 2.0 +
                static_cast<double>(reshipped) / engine.mc_bandwidth_bytes_per_second());
  EXPECT_EQ(degraded.seconds, survivors.seconds + degraded.recovery_seconds);
  EXPECT_EQ(degraded.gflops, 2.0 * static_cast<double>(m.nnz()) / degraded.seconds / 1e9);
}

TEST(RunSpec, InvalidSpecsAreRejected) {
  const auto m = test_matrix();
  const Engine engine;
  // The mesh diameter caps forced hops at 3.
  EXPECT_THROW(engine.run(m, {.cores = {0}, .forced_hops = 4}), std::invalid_argument);
  // An explicit core table must not repeat a core or leave the chip.
  EXPECT_THROW(engine.run(m, {.cores = {0, 0}}), std::invalid_argument);
  EXPECT_THROW(engine.run(m, {.cores = {48}}), std::invalid_argument);
  // Rank 0 owns the matrix and must survive.
  EXPECT_THROW(engine.run(m, {.ue_count = 4, .dead_ranks = {0}}), std::invalid_argument);
  // The degraded path models CSR only.
  EXPECT_THROW(engine.run(m, {.ue_count = 4, .format = StorageFormat::kEll, .dead_ranks = {1}}),
               std::invalid_argument);
}

TEST(RunSpec, RecorderNeverChangesTheNumbers) {
  const auto m = test_matrix();
  const Engine engine;
  RunSpec plain;
  plain.ue_count = 8;
  plain.policy = chip::MappingPolicy::kDistanceReduction;
  RunSpec observed = plain;
  obs::Recorder recorder;
  observed.recorder = &recorder;
  const auto a = engine.run(m, plain);
  const auto b = engine.run(m, observed);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.gflops, b.gflops);
  EXPECT_FALSE(recorder.events().empty());
  EXPECT_FALSE(recorder.metrics().empty());
}

}  // namespace
}  // namespace scc::sim
