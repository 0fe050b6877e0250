#include "sim/app_model.hpp"

#include <cmath>

#include "common/error.hpp"
#include "sparse/partition.hpp"
#include "sim/spmv_trace.hpp"

namespace scc::sim {

double AppCosts::amortization_products(double overhead) const {
  SCC_REQUIRE(overhead > 0.0, "overhead threshold must be positive");
  SCC_REQUIRE(product_seconds > 0.0, "product cost must be positive");
  // After k products the mean per-product cost is product + setup/k; it is
  // within `overhead` of asymptotic once k >= setup / (overhead * product).
  const double k = setup_seconds() / (overhead * product_seconds);
  return std::max(1.0, std::ceil(k));
}

AppCosts estimate_distributed_spmv(const Engine& engine, const sparse::CsrMatrix& matrix,
                                   int ue_count, chip::MappingPolicy policy,
                                   const CommCostModel& comm) {
  const auto cores = chip::map_ues_to_cores(policy, ue_count);
  const auto blocks = sparse::partition_rows_balanced_nnz(matrix, ue_count);
  const auto& freq = engine.config().freq;

  AppCosts costs;
  const int root = cores.front();
  for (std::size_t rank = 1; rank < cores.size(); ++rank) {
    const auto& b = blocks[rank];
    // CSR slice: rebased ptr (rows+1 entries), columns, values.
    const double slice_bytes =
        static_cast<double>(b.row_count() + 1) * static_cast<double>(kPtrBytes) +
        static_cast<double>(b.nnz) * static_cast<double>(kIndexBytes + kValueBytes);
    costs.scatter_seconds += send_ns(freq, root, cores[rank], slice_bytes, comm) * 1e-9;
    costs.gather_seconds += send_ns(freq, cores[rank], root,
                                    static_cast<double>(b.row_count()) *
                                        static_cast<double>(kValueBytes),
                                    comm) *
                            1e-9;
  }
  costs.broadcast_x_seconds =
      broadcast_ns(freq, cores,
                   static_cast<double>(matrix.cols()) * static_cast<double>(kValueBytes),
                   comm) *
      1e-9;
  costs.product_seconds = engine.run(matrix, {.cores = cores}).seconds;
  return costs;
}

}  // namespace scc::sim
