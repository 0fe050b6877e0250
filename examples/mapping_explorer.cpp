// Mapping explorer: an interactive version of the paper's Section IV-A.
//
// For a chosen matrix (family + size) and UE count, show exactly which
// physical cores each mapping policy picks, how the load spreads over the
// four memory controllers, and what the simulator predicts each choice
// costs. Useful for building intuition about why "distance reduction" wins.
//
// Usage:
//   mapping_explorer [--family banded|random|power-law|circuit|fem]
//                    [--n 40000] [--ues 24] [--conf 0|1|2]
#include <iostream>
#include <sstream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "gen/generators.hpp"
#include "sim/engine.hpp"
#include "sparse/properties.hpp"

namespace {

scc::sparse::CsrMatrix build(const std::string& family, scc::index_t n) {
  using namespace scc;
  if (family == "banded") return gen::banded(n, 30, 0.4, 1);
  if (family == "random") return gen::random_uniform(n, 12, 1);
  if (family == "power-law") return gen::power_law(n, 12, 1.2, 1);
  if (family == "circuit") return gen::circuit(n, 2.0, 0.5, 1);
  if (family == "fem") return gen::fem_blocks(n / 16, 16, 3, 1);
  throw std::invalid_argument("unknown family '" + family + "'");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scc;
  const CliArgs args(argc, argv);
  const std::string family = args.get_or("family", "random");
  const auto n = static_cast<index_t>(args.get_int_or("n", 40000));
  const int ues = static_cast<int>(args.get_int_or("ues", 24));
  const int conf = static_cast<int>(args.get_int_or("conf", 0));

  sim::EngineConfig cfg;
  cfg.freq = conf == 1   ? chip::FrequencyConfig::conf1()
             : conf == 2 ? chip::FrequencyConfig::conf2()
                         : chip::FrequencyConfig::conf0();
  const sim::Engine engine(cfg);

  const auto a = build(family, n);
  std::cout << family << " matrix: " << a.rows() << " rows, " << a.nnz()
            << " nonzeros, ws "
            << Table::num(static_cast<double>(sparse::working_set_bytes(a)) / 1048576.0, 2)
            << " MB; " << ues << " UEs at " << cfg.freq.describe() << "\n\n";

  for (auto policy : {chip::MappingPolicy::kStandard, chip::MappingPolicy::kDistanceReduction}) {
    const auto cores = chip::map_ues_to_cores(policy, ues);
    const auto result = engine.run(a, {.cores = cores});

    Table table(chip::to_string(policy) + std::string(" mapping"));
    table.set_header({"rank", "core", "tile(x,y)", "MC", "hops", "compute ms", "stall ms",
                      "total ms"});
    // Show the first few and the slowest ranks to keep the table readable.
    std::size_t slowest = 0;
    for (std::size_t i = 0; i < result.cores.size(); ++i) {
      if (result.cores[i].isolated_seconds > result.cores[slowest].isolated_seconds) {
        slowest = i;
      }
    }
    for (std::size_t i = 0; i < result.cores.size(); ++i) {
      if (i >= 6 && i != slowest) continue;
      const auto& cr = result.cores[i];
      const auto coord = chip::coord_of_core(cr.core);
      std::ostringstream rank_label;
      rank_label << i << (i == slowest ? " (slowest)" : "");
      std::ostringstream coord_label;
      coord_label << '(' << coord.x << ',' << coord.y << ')';
      table.add_row({rank_label.str(), Table::integer(cr.core), coord_label.str(),
                     Table::integer(chip::memory_controller_of_core(cr.core)),
                     Table::integer(cr.hops), Table::num(cr.compute_seconds * 1e3, 3),
                     Table::num(cr.stall_seconds * 1e3, 3),
                     Table::num(cr.isolated_seconds * 1e3, 3)});
    }
    table.print(std::cout);

    std::cout << "  avg hops " << Table::num(chip::average_hops(cores), 2)
              << ", max cores per MC " << chip::max_cores_per_mc(cores) << ", per-MC MB: ";
    for (std::size_t mc = 0; mc < result.mc_bytes.size(); ++mc) {
      std::cout << Table::num(static_cast<double>(result.mc_bytes[mc]) / 1048576.0, 1)
                << (mc + 1 < result.mc_bytes.size() ? " / " : "");
    }
    std::cout << "\n  => " << Table::num(result.seconds * 1e3, 3) << " ms, "
              << Table::num(result.mflops(), 1) << " MFLOPS ("
              << (result.bandwidth_bound ? "bandwidth" : "latency/compute") << " bound)\n\n";
  }
  return 0;
}
