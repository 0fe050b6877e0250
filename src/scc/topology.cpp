#include "scc/topology.hpp"

#include "common/error.hpp"

namespace scc::chip {

namespace {

void check_core(int core) {
  SCC_REQUIRE(core >= 0 && core < kCoreCount, "core id " << core << " out of range [0,48)");
}

void check_tile(int tile) {
  SCC_REQUIRE(tile >= 0 && tile < kTileCount, "tile id " << tile << " out of range [0,24)");
}

constexpr noc::Coord tile_coord(int tile) { return {tile % kMeshWidth, tile / kMeshWidth}; }

// The serving loop asks for a core's memory controller and hop distance
// millions of times per run, so the quadrant rule and the Manhattan hop
// count are evaluated once, at compile time, into per-core tables.
struct CoreTables {
  std::array<int, kCoreCount> mc_of_core{};
  std::array<int, kCoreCount> hops_of_core{};
  std::array<std::array<int, kCoresPerMemoryController>, kMemoryControllerCount> cores_of_mc{};
};

constexpr CoreTables build_core_tables() {
  CoreTables t;
  std::array<std::size_t, kMemoryControllerCount> filled{};
  for (int core = 0; core < kCoreCount; ++core) {
    const noc::Coord c = tile_coord(core / kCoresPerTile);
    // Quadrant assignment: x<3 selects the left MC column, y<2 the bottom row.
    const int mc_col = c.x < kMeshWidth / 2 ? 0 : 1;
    const int mc_row = c.y < kMeshHeight / 2 ? 0 : 1;
    const int mc = mc_row * 2 + mc_col;
    const noc::Coord home = kMcCoords[static_cast<std::size_t>(mc)];
    // Manhattan distance == router hops under XY routing (noc::Mesh::hops).
    const int hops = (c.x > home.x ? c.x - home.x : home.x - c.x) +
                     (c.y > home.y ? c.y - home.y : home.y - c.y);
    t.mc_of_core[static_cast<std::size_t>(core)] = mc;
    t.hops_of_core[static_cast<std::size_t>(core)] = hops;
    // Ascending by loop order. An overfull quadrant makes `at` throw, which
    // fails the constant evaluation below; 48 cores in four rows of 12 with
    // none overfull leaves every row exactly full.
    t.cores_of_mc[static_cast<std::size_t>(mc)].at(filled[static_cast<std::size_t>(mc)]++) = core;
  }
  return t;
}

constexpr CoreTables kTables = build_core_tables();

}  // namespace

int tile_of_core(int core) {
  check_core(core);
  return core / kCoresPerTile;
}

noc::Coord coord_of_tile(int tile) {
  check_tile(tile);
  return tile_coord(tile);
}

noc::Coord coord_of_core(int core) { return coord_of_tile(tile_of_core(core)); }

std::array<int, kCoresPerTile> cores_of_tile(int tile) {
  check_tile(tile);
  return {tile * kCoresPerTile, tile * kCoresPerTile + 1};
}

int memory_controller_of_core(int core) {
  check_core(core);
  return kTables.mc_of_core[static_cast<std::size_t>(core)];
}

int hops_to_memory(int core) {
  check_core(core);
  return kTables.hops_of_core[static_cast<std::size_t>(core)];
}

std::array<int, kCoresPerMemoryController> cores_of_memory_controller(int mc) {
  SCC_REQUIRE(mc >= 0 && mc < kMemoryControllerCount, "mc id " << mc << " out of range [0,4)");
  return kTables.cores_of_mc[static_cast<std::size_t>(mc)];
}

}  // namespace scc::chip
