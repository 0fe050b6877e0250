// Cross-module property tests: relations that must hold *between* components
// (engine vs topology, routes vs coordinates, power vs frequency domains,
// locality metrics vs structural families), complementing the per-module
// suites.
#include <gtest/gtest.h>

#include <sstream>

#include "archcmp/machines.hpp"
#include "common/table.hpp"
#include "gen/generators.hpp"
#include "noc/mesh.hpp"
#include "rcce/rcce.hpp"
#include "scc/power.hpp"
#include "sim/comm_model.hpp"
#include "sim/engine.hpp"
#include "sparse/properties.hpp"

namespace scc {
namespace {

TEST(CrossEngine, ForcedZeroHopsEqualsCoreZero) {
  // Core 0 sits on the MC tile (0 hops), so the forced-hops API at 0 must
  // reproduce a plain single-core run on core 0 exactly.
  sim::Engine engine;
  const auto m = gen::banded(20000, 10, 0.5, 1);
  const auto forced = engine.run(m, {.cores = {0}, .forced_hops = 0});
  const auto natural = engine.run(m, {.cores = {0}});
  EXPECT_DOUBLE_EQ(forced.seconds, natural.seconds);
}

TEST(CrossEngine, RuntimeRatioBoundedByLatencyRatio) {
  // Fig 3 structure: the 0->3-hop runtime ratio can never exceed the raw
  // Equation-1 latency ratio (compute dilutes, never amplifies).
  sim::Engine engine;
  const auto m = gen::random_uniform(30000, 10, 2);
  const double t0 = engine.run(m, {.cores = {0}, .forced_hops = 0}).seconds;
  const double t3 = engine.run(m, {.cores = {0}, .forced_hops = 3}).seconds;
  const auto freq = chip::FrequencyConfig::conf0();
  const double lat_ratio = chip::memory_latency_ns(freq, 0, 3) /
                           chip::memory_latency_ns(freq, 0, 0);
  EXPECT_LE(t3 / t0, lat_ratio + 1e-9);
  EXPECT_GE(t3 / t0, 1.0);
}

TEST(CrossEngine, PerCoreNnzMatchesPartition) {
  sim::Engine engine;
  const auto m = gen::power_law(10000, 8, 1.2, 3);
  const auto blocks = sparse::partition_rows_balanced_nnz(m, 12);
  const auto r = engine.run(m, {.ue_count = 12, .policy = chip::MappingPolicy::kStandard});
  ASSERT_EQ(r.cores.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(r.cores[i].trace.nnz, blocks[i].nnz) << i;
    EXPECT_EQ(r.cores[i].trace.rows, blocks[i].row_count()) << i;
  }
}

TEST(CrossEngine, HopsFieldMatchesTopology) {
  sim::Engine engine;
  const auto m = gen::banded(5000, 5, 0.5, 4);
  const auto r = engine.run(m, {.ue_count = 48, .policy = chip::MappingPolicy::kStandard});
  for (const auto& cr : r.cores) {
    EXPECT_EQ(cr.hops, chip::hops_to_memory(cr.core));
  }
}

TEST(CrossNoc, RouteStepsAreUnitXYMoves) {
  noc::Mesh mesh(chip::kMeshWidth, chip::kMeshHeight);
  for (int a = 0; a < chip::kTileCount; ++a) {
    for (int b = 0; b < chip::kTileCount; b += 5) {
      const auto from = chip::coord_of_tile(a);
      const auto to = chip::coord_of_tile(b);
      bool y_started = false;
      for (const auto& link : mesh.route(from, to)) {
        const int dx = std::abs(link.to.x - link.from.x);
        const int dy = std::abs(link.to.y - link.from.y);
        EXPECT_EQ(dx + dy, 1);  // one unit step
        if (dy == 1) y_started = true;
        if (y_started) {
          EXPECT_EQ(dx, 0);  // X strictly before Y
        }
      }
    }
  }
}

TEST(CrossNoc, EngineMeshTotalEqualsPerCoreHopWeightedBytes) {
  sim::Engine engine;
  const auto m = gen::random_uniform(20000, 8, 5);
  const auto r = engine.run(m, {.ue_count = 16, .policy = chip::MappingPolicy::kStandard});
  bytes_t expected = 0;
  for (const auto& cr : r.cores) {
    expected += static_cast<bytes_t>(cr.hops) *
                (cr.trace.memory_read_bytes + cr.trace.memory_write_bytes);
  }
  EXPECT_EQ(r.mesh.total_link_bytes, expected);
}

TEST(CrossPower, MonotoneInEachFrequencyDomain) {
  const chip::PowerModel model;
  const double base = model.full_system_watts(chip::FrequencyConfig(533, 800, 800));
  EXPECT_GT(model.full_system_watts(chip::FrequencyConfig(800, 800, 800)), base);
  EXPECT_GT(model.full_system_watts(chip::FrequencyConfig(533, 1600, 800)), base);
  EXPECT_GT(model.full_system_watts(chip::FrequencyConfig(533, 800, 1066)), base);
}

TEST(CrossPower, PerTilePowerApiConsistentWithRcce) {
  // Frequencies requested through the RCCE power API must price identically
  // to setting them directly on a FrequencyConfig.
  rcce::RuntimeOptions opts;
  const auto report = rcce::run(2, [](rcce::Comm& comm) {
    if (comm.rank() == 0) comm.set_tile_core_mhz(800);
    comm.barrier();
  }, opts);
  auto direct = chip::FrequencyConfig::conf0();
  direct.set_tile_core_mhz(0, 800);
  const chip::PowerModel model;
  EXPECT_DOUBLE_EQ(model.full_system_watts(report.frequencies),
                   model.full_system_watts(direct));
}

TEST(CrossLocality, FamiliesOrderByLineReuseOnSuiteSizedMatrices) {
  const auto banded = gen::banded(20000, 20, 0.5, 6);
  const auto fem = gen::fem_blocks(1000, 12, 3, 6);
  const auto random = gen::random_uniform(20000, 12, 6);
  const double reuse_banded = sparse::x_line_reuse_fraction(banded);
  const double reuse_fem = sparse::x_line_reuse_fraction(fem);
  const double reuse_random = sparse::x_line_reuse_fraction(random);
  EXPECT_GT(reuse_banded, reuse_random);
  EXPECT_GT(reuse_fem, reuse_random);
}

TEST(CrossLocality, LineReusePredictsNoXMissSpeedupDirection) {
  // The structural metric and the simulator must agree on which of two
  // matrices benefits more from removing x misses.
  sim::Engine engine;
  const auto local = gen::banded(20000, 8, 0.8, 7);
  const auto scattered = gen::random_uniform(20000, 8, 7);
  auto speedup = [&](const sparse::CsrMatrix& m) {
    sim::RunSpec spec{.ue_count = 8, .policy = chip::MappingPolicy::kDistanceReduction};
    const double base = engine.run(m, spec).seconds;
    spec.variant = sim::SpmvVariant::kCsrNoXMiss;
    const double noxm = engine.run(m, spec).seconds;
    return base / noxm;
  };
  ASSERT_GT(sparse::x_line_reuse_fraction(local), sparse::x_line_reuse_fraction(scattered));
  EXPECT_GT(speedup(scattered), speedup(local));
}

TEST(CrossComm, BarrierCostDominatedByPollingNotHops) {
  // The barrier's cost is polling-dominated: mapping choice (which changes
  // member-to-master hop distances) moves it by only a few percent. This is
  // why the engine can charge a mapping-independent barrier.
  const auto freq = chip::FrequencyConfig::conf0();
  for (int ues : {8, 16, 32}) {
    const double std_cost =
        sim::barrier_ns(freq, chip::map_ues_to_cores(chip::MappingPolicy::kStandard, ues));
    const double dr_cost = sim::barrier_ns(
        freq, chip::map_ues_to_cores(chip::MappingPolicy::kDistanceReduction, ues));
    EXPECT_NEAR(dr_cost / std_cost, 1.0, 0.10) << ues;
  }
}

TEST(CrossArchcmp, PredictionMonotoneInBandwidth) {
  archcmp::MachineSpec spec = archcmp::machine_by_name("Xeon X5570");
  const double base = archcmp::predicted_spmv_gflops(spec);
  spec.sustained_bw_gbs *= 1.5;
  EXPECT_GT(archcmp::predicted_spmv_gflops(spec), base);
}

TEST(CrossArchcmp, SccSimulationLandsBetweenItaniumAndXeon) {
  // The architectural-comparison conclusion as one executable assertion.
  sim::Engine engine;
  const auto m = gen::banded(40000, 20, 0.5, 8);  // a mid-size suite-like load
  const double scc =
      engine.run(m, {.ue_count = 48, .policy = chip::MappingPolicy::kDistanceReduction}).gflops;
  EXPECT_GT(scc, archcmp::predicted_spmv_gflops(archcmp::machine_by_name("Itanium2 Montvale")) *
                     0.5);
  EXPECT_LT(scc, archcmp::predicted_spmv_gflops(archcmp::machine_by_name("Xeon X5570")));
}

TEST(CrossTable, NumericCellsRightAligned) {
  Table t;
  t.set_header({"name", "value"});
  t.add_row({"a", "7"});
  std::ostringstream oss;
  t.print(oss);
  // "value" column width 5: numeric cell padded from the left.
  EXPECT_NE(oss.str().find("|     7 |"), std::string::npos) << oss.str();
}

TEST(CrossRcce, CollectivesWithNonZeroRoots) {
  rcce::run(5, [](rcce::Comm& comm) {
    double v = comm.rank() == 4 ? 3.25 : 0.0;
    comm.bcast(&v, sizeof v, 4);
    EXPECT_DOUBLE_EQ(v, 3.25);
    const double sum = comm.reduce_sum(1.0, 2);
    if (comm.rank() == 2) {
      EXPECT_DOUBLE_EQ(sum, 5.0);
    }
  });
}

TEST(CrossRcce, AllreduceMaxHandlesNegatives) {
  rcce::run(4, [](rcce::Comm& comm) {
    const double max = comm.allreduce_max(-1.0 - comm.rank());
    EXPECT_DOUBLE_EQ(max, -1.0);
  });
}

}  // namespace
}  // namespace scc
