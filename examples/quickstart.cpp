// Quickstart: the smallest end-to-end tour of the library.
//
//   1. build a sparse matrix (or load a Matrix Market file),
//   2. run the paper's CSR SpMV kernel on the host and check it,
//   3. ask the SCC simulator what the same product costs on the 48-core
//      chip under the default and the distance-reduction mapping.
//
// Usage:
//   quickstart [--matrix file.mtx] [--cores N]
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "gen/generators.hpp"
#include "sim/engine.hpp"
#include "sparse/io.hpp"
#include "sparse/properties.hpp"
#include "spmv/kernels.hpp"

int main(int argc, char** argv) {
  using namespace scc;
  const CliArgs args(argc, argv);
  const int cores = static_cast<int>(args.get_int_or("cores", 24));

  // 1. A matrix: a 3D Poisson problem by default, or any .mtx file.
  sparse::CsrMatrix a;
  if (const auto path = args.get("matrix")) {
    a = sparse::read_matrix_market_file(*path);
    std::cout << "loaded " << *path << ": ";
  } else {
    a = gen::stencil_3d(40, 40, 40);
    std::cout << "generated 40x40x40 Poisson stencil: ";
  }
  std::cout << a.rows() << " rows, " << a.nnz() << " nonzeros, working set "
            << Table::num(static_cast<double>(sparse::working_set_bytes(a)) / 1048576.0, 2)
            << " MB\n";

  // 2. The paper's kernel, on this machine, verified against a reference.
  std::vector<real_t> x(static_cast<std::size_t>(a.cols()), 1.0);
  std::vector<real_t> y(static_cast<std::size_t>(a.rows()), 0.0);
  spmv::spmv_csr(a, x, y);
  const auto reference = sparse::dense_reference_spmv(a, x);
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (std::abs(y[i] - reference[i]) > 1e-9) {
      std::cerr << "kernel mismatch at row " << i << '\n';
      return 1;
    }
  }
  std::cout << "host CSR kernel verified against the dense reference\n";

  // 3. The same product on the simulated SCC.
  const sim::Engine engine;
  Table table("simulated SCC (conf0), y = A*x");
  table.set_header({"mapping", "cores", "time (ms)", "MFLOPS/s", "bound by"});
  for (auto policy : {chip::MappingPolicy::kStandard, chip::MappingPolicy::kDistanceReduction}) {
    const auto r = engine.run(a, {.ue_count = cores, .policy = policy});
    table.add_row({chip::to_string(policy), Table::integer(cores),
                   Table::num(r.seconds * 1e3, 3), Table::num(r.mflops(), 1),
                   r.bandwidth_bound ? "memory bandwidth" : "slowest core"});
  }
  table.print(std::cout);
  std::cout << "\nTry: quickstart --cores 48, or --matrix your_matrix.mtx\n";
  return 0;
}
