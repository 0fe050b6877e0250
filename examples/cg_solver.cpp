// Conjugate-gradient solver on the emulated SCC.
//
// The paper motivates SpMV as the workhorse of scientific computing; this
// example shows the workhorse at work: solving the 2D Poisson equation with
// CG, where every iteration is one distributed SpMV plus dot products --
// all running as a real RCCE message-passing program on the emulated
// 48-core chip (each UE owns a row block; scalars travel by allreduce).
//
// Usage:
//   cg_solver [--grid N] [--ues K] [--tol T] [--max-iters M]
#include <cmath>
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "gen/generators.hpp"
#include "rcce/rcce.hpp"
#include "sparse/partition.hpp"
#include "spmv/kernels.hpp"

int main(int argc, char** argv) {
  using namespace scc;
  const CliArgs args(argc, argv);
  const auto grid = args.get_int_or("grid", 64);
  const int ues = args.get_int_or("ues", 8);
  const double tol = args.get_double_or("tol", 1e-8);
  const int max_iters = args.get_int_or("max-iters", 2000);

  const sparse::CsrMatrix a = gen::stencil_2d(grid, grid);
  const auto n = static_cast<std::size_t>(a.rows());
  std::cout << "2D Poisson " << grid << "x" << grid << " (" << a.rows() << " unknowns, "
            << a.nnz() << " nonzeros), CG on " << ues << " RCCE UEs\n";

  // Right-hand side: a point source in the middle of the domain.
  std::vector<real_t> b(n, 0.0);
  b[n / 2 + static_cast<std::size_t>(grid) / 2] = 1.0;

  const auto blocks = sparse::partition_rows_balanced_nnz(a, ues);
  std::vector<real_t> solution(n, 0.0);
  int iterations = 0;
  double final_residual = 0.0;

  rcce::RuntimeOptions options;
  options.mapping = chip::MappingPolicy::kDistanceReduction;

  rcce::run(ues, [&](rcce::Comm& comm) {
    const auto& my = blocks[static_cast<std::size_t>(comm.rank())];

    // Every UE keeps full copies of the CG vectors and owns the rows of its
    // block; after the local SpMV, block results are exchanged all-to-all
    // (x must be complete for the next product -- the SCC has no coherence
    // to share it implicitly).
    std::vector<real_t> x(n, 0.0), r = b, p = b, ap(n, 0.0);

    auto exchange_blocks = [&](std::vector<real_t>& v) {
      for (int ue = 0; ue < comm.size(); ++ue) {
        const auto& bl = blocks[static_cast<std::size_t>(ue)];
        if (bl.row_count() == 0) continue;
        const auto bytes = static_cast<std::size_t>(bl.row_count()) * sizeof(real_t);
        // Linear all-gather: each UE broadcasts its block in rank order.
        if (ue == comm.rank()) {
          for (int dest = 0; dest < comm.size(); ++dest) {
            if (dest != ue) comm.send(v.data() + bl.row_begin, bytes, dest);
          }
        } else {
          comm.recv(v.data() + bl.row_begin, bytes, ue);
        }
      }
    };

    auto local_dot = [&](const std::vector<real_t>& u, const std::vector<real_t>& v) {
      double acc = 0.0;
      for (index_t i = my.row_begin; i < my.row_end; ++i) {
        acc += u[static_cast<std::size_t>(i)] * v[static_cast<std::size_t>(i)];
      }
      return comm.allreduce_sum(acc);
    };

    double rr = local_dot(r, r);
    const double rr0 = rr;
    int it = 0;
    for (; it < max_iters && std::sqrt(rr / rr0) > tol; ++it) {
      spmv::spmv_csr_range(a, my.row_begin, my.row_end, p, ap);
      exchange_blocks(ap);
      const double pap = local_dot(p, ap);
      const double alpha = rr / pap;
      for (std::size_t i = 0; i < n; ++i) {
        x[i] += alpha * p[i];
        r[i] -= alpha * ap[i];
      }
      const double rr_new = local_dot(r, r);
      const double beta = rr_new / rr;
      rr = rr_new;
      for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    }
    comm.barrier();
    if (comm.rank() == 0) {
      solution = x;
      iterations = it;
      final_residual = std::sqrt(rr / rr0);
    }
  }, options);

  std::cout << "converged in " << iterations << " iterations, relative residual "
            << final_residual << '\n';

  // Independent verification on the host: ||A*x - b|| must be tiny.
  std::vector<real_t> check(n, 0.0);
  spmv::spmv_csr(a, solution, check);
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) err += (check[i] - b[i]) * (check[i] - b[i]);
  err = std::sqrt(err);
  std::cout << "host-side check ||A*x - b||_2 = " << err << '\n';
  return err < 1e-6 ? 0 : 1;
}
