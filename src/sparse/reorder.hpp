// Bandwidth-reducing reordering (reverse Cuthill-McKee).
//
// Not part of the paper's measured configurations, but its conclusions point
// straight at it: locality of the indirect `x` accesses dominates SpMV on the
// SCC (Section IV-C), and RCM is the classic way to buy that locality. The
// ablation bench uses it to show how much of the "no-x-miss" headroom a real
// reordering recovers.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace scc::sparse {

/// Reverse Cuthill-McKee ordering of the symmetrized pattern of a square
/// matrix. Returns `perm` with perm[new] = old, suitable for
/// `CsrMatrix::permute_symmetric`. Each connected component is seeded from a
/// pseudo-peripheral vertex: the last one a BFS from its lowest vertex reaches.
std::vector<index_t> reverse_cuthill_mckee(const CsrMatrix& matrix);

}  // namespace scc::sparse
