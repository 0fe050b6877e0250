#include "scc/topology.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <vector>

namespace scc::chip {
namespace {

TEST(Topology, Constants) {
  EXPECT_EQ(kCoreCount, 48);
  EXPECT_EQ(kTileCount, 24);
  EXPECT_EQ(kMeshWidth * kMeshHeight, kTileCount);
}

TEST(Topology, TileOfCore) {
  EXPECT_EQ(tile_of_core(0), 0);
  EXPECT_EQ(tile_of_core(1), 0);
  EXPECT_EQ(tile_of_core(2), 1);
  EXPECT_EQ(tile_of_core(47), 23);
  EXPECT_THROW(tile_of_core(48), std::invalid_argument);
  EXPECT_THROW(tile_of_core(-1), std::invalid_argument);
}

TEST(Topology, CoordOfTileRowMajor) {
  EXPECT_EQ(coord_of_tile(0), (noc::Coord{0, 0}));
  EXPECT_EQ(coord_of_tile(5), (noc::Coord{5, 0}));
  EXPECT_EQ(coord_of_tile(6), (noc::Coord{0, 1}));
  EXPECT_EQ(coord_of_tile(23), (noc::Coord{5, 3}));
}

TEST(Topology, CoresOfTileInverse) {
  for (int tile = 0; tile < kTileCount; ++tile) {
    for (int core : cores_of_tile(tile)) {
      EXPECT_EQ(tile_of_core(core), tile);
    }
  }
}

TEST(Topology, McAssignmentIsQuadrants) {
  // The paper: the lower-left quadrant contains cores 0-5 and 12-17 and is
  // served by MC 0.
  for (int core : {0, 1, 2, 3, 4, 5, 12, 13, 14, 15, 16, 17}) {
    EXPECT_EQ(memory_controller_of_core(core), 0) << "core " << core;
  }
  // Lower-right quadrant: cores 6-11, 18-23 on MC 1.
  for (int core : {6, 7, 8, 9, 10, 11, 18, 19, 20, 21, 22, 23}) {
    EXPECT_EQ(memory_controller_of_core(core), 1) << "core " << core;
  }
}

TEST(Topology, EachMcServesTwelveCores) {
  std::map<int, int> counts;
  for (int core = 0; core < kCoreCount; ++core) {
    ++counts[memory_controller_of_core(core)];
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [mc, count] : counts) {
    EXPECT_EQ(count, 12) << "mc " << mc;
  }
}

TEST(Topology, CoresOfMemoryControllerConsistent) {
  std::set<int> seen;
  for (int mc = 0; mc < kMemoryControllerCount; ++mc) {
    for (int core : cores_of_memory_controller(mc)) {
      EXPECT_EQ(memory_controller_of_core(core), mc);
      EXPECT_TRUE(seen.insert(core).second) << "core " << core << " duplicated";
    }
  }
  EXPECT_EQ(seen.size(), 48u);
}

TEST(Topology, HopDistancesCoverZeroToThree) {
  // The paper's Fig 3 sweeps distances 0..3, "all the possible distances in
  // the default configuration".
  std::set<int> distances;
  for (int core = 0; core < kCoreCount; ++core) {
    const int h = hops_to_memory(core);
    EXPECT_GE(h, 0);
    EXPECT_LE(h, 3);
    distances.insert(h);
  }
  EXPECT_EQ(distances.size(), 4u);
}

TEST(Topology, McAdjacentCoresHaveZeroHops) {
  // Tiles holding MCs: (0,0)=tile 0, (5,0)=tile 5, (0,2)=tile 12, (5,2)=tile 17.
  for (int core : {0, 1, 10, 11, 24, 25, 34, 35}) {
    EXPECT_EQ(hops_to_memory(core), 0) << "core " << core;
  }
}

TEST(Topology, HopHistogramMatchesQuadrantGeometry) {
  // In each 3x2 quadrant with the MC at a corner: distances 0,1,1,2,2,3.
  std::map<int, int> histogram;
  for (int core = 0; core < kCoreCount; ++core) ++histogram[hops_to_memory(core)];
  EXPECT_EQ(histogram[0], 8);   // 4 tiles x 2 cores
  EXPECT_EQ(histogram[1], 16);
  EXPECT_EQ(histogram[2], 16);
  EXPECT_EQ(histogram[3], 8);
}

TEST(Topology, TablesMatchGeometricDefinitions) {
  // Differential check of the precomputed per-core tables against the
  // definitions they encode: the quadrant rule, XY-routing hop counts on the
  // mesh, and each MC's cores as the ascending filter of the quadrant rule.
  const noc::Mesh mesh(kMeshWidth, kMeshHeight);
  for (int core = 0; core < kCoreCount; ++core) {
    const noc::Coord c = coord_of_core(core);
    const int mc_col = c.x < kMeshWidth / 2 ? 0 : 1;
    const int mc_row = c.y < kMeshHeight / 2 ? 0 : 1;
    const int mc = mc_row * 2 + mc_col;
    EXPECT_EQ(memory_controller_of_core(core), mc) << "core " << core;
    EXPECT_EQ(hops_to_memory(core), mesh.hops(c, kMcCoords[static_cast<std::size_t>(mc)]))
        << "core " << core;
  }
  for (int mc = 0; mc < kMemoryControllerCount; ++mc) {
    std::vector<int> expected;
    for (int core = 0; core < kCoreCount; ++core) {
      if (memory_controller_of_core(core) == mc) expected.push_back(core);
    }
    const auto table = cores_of_memory_controller(mc);
    EXPECT_EQ(std::vector<int>(table.begin(), table.end()), expected) << "mc " << mc;
  }
}

TEST(Topology, TableLookupsRejectOutOfRangeIds) {
  for (int core : {-1, kCoreCount}) {
    EXPECT_THROW(memory_controller_of_core(core), std::invalid_argument) << core;
    EXPECT_THROW(hops_to_memory(core), std::invalid_argument) << core;
  }
  for (int mc : {-1, kMemoryControllerCount}) {
    EXPECT_THROW(cores_of_memory_controller(mc), std::invalid_argument) << mc;
  }
}

TEST(Topology, McCoordsAreOnChipEdges) {
  for (const noc::Coord& c : kMcCoords) {
    EXPECT_TRUE(c.x == 0 || c.x == kMeshWidth - 1);
  }
}

}  // namespace
}  // namespace scc::chip
