// Physical layout of the Single-chip Cloud Computer.
//
// 48 P54C cores in 24 tiles (2 cores/tile) on a 6x4 mesh. Four DDR3 memory
// controllers hang off the routers of the edge tiles at (x,y) = (0,0), (5,0),
// (0,2) and (5,2); each serves the six tiles (12 cores) of its quadrant as
// their private-memory home (Section II of the paper). Core numbering follows
// the chip: tile t = y*6+x holds cores 2t and 2t+1, which makes the lower-left
// quadrant contain cores 0-5 and 12-17 exactly as the paper's Figure 1(a)
// describes.
#pragma once

#include <array>

#include "noc/mesh.hpp"

namespace scc::chip {

inline constexpr int kMeshWidth = 6;
inline constexpr int kMeshHeight = 4;
inline constexpr int kTileCount = kMeshWidth * kMeshHeight;  // 24
inline constexpr int kCoresPerTile = 2;
inline constexpr int kCoreCount = kTileCount * kCoresPerTile;  // 48
inline constexpr int kMemoryControllerCount = 4;
inline constexpr int kCoresPerMemoryController = kCoreCount / kMemoryControllerCount;  // 12

/// Tiles whose routers carry a memory controller, indexed by MC id.
inline constexpr std::array<noc::Coord, kMemoryControllerCount> kMcCoords = {
    noc::Coord{0, 0}, noc::Coord{5, 0}, noc::Coord{0, 2}, noc::Coord{5, 2}};

/// Tile index of a core (0..23).
int tile_of_core(int core);

/// Mesh coordinate of a tile / of a core's tile.
noc::Coord coord_of_tile(int tile);
noc::Coord coord_of_core(int core);

/// The two core ids living on a tile.
std::array<int, kCoresPerTile> cores_of_tile(int tile);

/// Memory controller serving a core's private memory (quadrant assignment:
/// x<3 selects the left MC column, y<2 the bottom MC row).
int memory_controller_of_core(int core);

/// Mesh hops from a core's router to its memory controller's router -- the
/// `n` of the paper's Equation 1. In the default quadrant assignment this is
/// 0..3, the four distances the paper's Figure 3 sweeps.
int hops_to_memory(int core);

/// All cores assigned to one memory controller, ascending core id.
std::array<int, kCoresPerMemoryController> cores_of_memory_controller(int mc);

}  // namespace scc::chip
