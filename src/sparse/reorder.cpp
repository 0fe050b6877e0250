#include "sparse/reorder.hpp"

#include <algorithm>
#include <queue>

#include "common/error.hpp"

namespace scc::sparse {

namespace {

/// Symmetrized adjacency (union of pattern and its transpose, diagonal
/// dropped) in CSR-like arrays.
struct Adjacency {
  std::vector<nnz_t> ptr;
  std::vector<index_t> adj;
};

Adjacency build_symmetric_adjacency(const CsrMatrix& matrix) {
  const index_t n = matrix.rows();
  std::vector<nnz_t> degree(static_cast<std::size_t>(n) + 1, 0);
  const CsrMatrix t = matrix.transpose();
  auto count = [&](const CsrMatrix& m) {
    for (index_t r = 0; r < n; ++r) {
      for (index_t c : m.row_cols(r)) {
        if (c != r) ++degree[static_cast<std::size_t>(r) + 1];
      }
    }
  };
  count(matrix);
  count(t);
  Adjacency out;
  out.ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (index_t r = 0; r < n; ++r) {
    out.ptr[static_cast<std::size_t>(r) + 1] =
        out.ptr[static_cast<std::size_t>(r)] + degree[static_cast<std::size_t>(r) + 1];
  }
  out.adj.resize(static_cast<std::size_t>(out.ptr.back()));
  std::vector<nnz_t> cursor(out.ptr.begin(), out.ptr.end() - 1);
  auto fill = [&](const CsrMatrix& m) {
    for (index_t r = 0; r < n; ++r) {
      for (index_t c : m.row_cols(r)) {
        if (c != r) out.adj[static_cast<std::size_t>(cursor[static_cast<std::size_t>(r)]++)] = c;
      }
    }
  };
  fill(matrix);
  fill(t);
  // Deduplicate neighbours per vertex (an entry present in both A and A^T).
  std::vector<nnz_t> new_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::size_t write = 0;
  for (index_t r = 0; r < n; ++r) {
    const auto begin = static_cast<std::size_t>(out.ptr[static_cast<std::size_t>(r)]);
    const auto end = static_cast<std::size_t>(out.ptr[static_cast<std::size_t>(r) + 1]);
    std::sort(out.adj.begin() + static_cast<std::ptrdiff_t>(begin),
              out.adj.begin() + static_cast<std::ptrdiff_t>(end));
    std::size_t row_start = write;
    for (std::size_t k = begin; k < end; ++k) {
      if (write == row_start || out.adj[write - 1] != out.adj[k]) {
        out.adj[write++] = out.adj[k];
      }
    }
    new_ptr[static_cast<std::size_t>(r) + 1] = static_cast<nnz_t>(write);
  }
  out.adj.resize(write);
  out.ptr = std::move(new_ptr);
  return out;
}

/// BFS from `start`; returns the last vertex visited (a vertex of maximal
/// level) and fills `order` with visited vertices in BFS order.
index_t bfs(const Adjacency& g, index_t start, std::vector<bool>& visited,
            std::vector<index_t>& order) {
  std::queue<index_t> frontier;
  frontier.push(start);
  visited[static_cast<std::size_t>(start)] = true;
  index_t last = start;
  while (!frontier.empty()) {
    const index_t v = frontier.front();
    frontier.pop();
    order.push_back(v);
    last = v;
    const auto begin = static_cast<std::size_t>(g.ptr[static_cast<std::size_t>(v)]);
    const auto end = static_cast<std::size_t>(g.ptr[static_cast<std::size_t>(v) + 1]);
    for (std::size_t k = begin; k < end; ++k) {
      const index_t w = g.adj[k];
      if (!visited[static_cast<std::size_t>(w)]) {
        visited[static_cast<std::size_t>(w)] = true;
        frontier.push(w);
      }
    }
  }
  return last;
}

}  // namespace

std::vector<index_t> reverse_cuthill_mckee(const CsrMatrix& matrix) {
  SCC_REQUIRE(matrix.rows() == matrix.cols(), "RCM requires a square matrix");
  const index_t n = matrix.rows();
  const Adjacency g = build_symmetric_adjacency(matrix);

  auto degree = [&](index_t v) {
    return g.ptr[static_cast<std::size_t>(v) + 1] - g.ptr[static_cast<std::size_t>(v)];
  };

  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<bool> placed(static_cast<std::size_t>(n), false);

  for (index_t seed = 0; seed < n; ++seed) {
    if (placed[static_cast<std::size_t>(seed)]) continue;
    // Pseudo-peripheral start: the last vertex one BFS sweep from the
    // component's seed reaches.
    std::vector<bool> visited(placed);
    std::vector<index_t> scratch;
    const index_t far = bfs(g, seed, visited, scratch);
    index_t start = far;

    // Cuthill-McKee: BFS expanding each vertex's unplaced neighbours in
    // increasing-degree order.
    std::queue<index_t> frontier;
    frontier.push(start);
    placed[static_cast<std::size_t>(start)] = true;
    std::vector<index_t> neighbours;
    while (!frontier.empty()) {
      const index_t v = frontier.front();
      frontier.pop();
      order.push_back(v);
      neighbours.clear();
      const auto begin = static_cast<std::size_t>(g.ptr[static_cast<std::size_t>(v)]);
      const auto end = static_cast<std::size_t>(g.ptr[static_cast<std::size_t>(v) + 1]);
      for (std::size_t k = begin; k < end; ++k) {
        const index_t w = g.adj[k];
        if (!placed[static_cast<std::size_t>(w)]) {
          placed[static_cast<std::size_t>(w)] = true;
          neighbours.push_back(w);
        }
      }
      std::sort(neighbours.begin(), neighbours.end(),
                [&](index_t a, index_t b) { return degree(a) < degree(b); });
      for (index_t w : neighbours) frontier.push(w);
    }
  }
  SCC_ASSERT(order.size() == static_cast<std::size_t>(n), "RCM did not place every vertex");
  std::reverse(order.begin(), order.end());
  return order;
}

}  // namespace scc::sparse
