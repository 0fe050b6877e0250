// Figure 8: impact of the irregular accesses to x. Compares the original
// kernel against the "no x misses" instrumented version (every x reference
// reads x[0]). Paper: speedup > 1.10 for more than half the matrices at
// every core count, and > 2x for the short-row irregular matrices #24/#25 --
// evidence that locality, not just bandwidth, dominates SpMV on the SCC.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace scc;
  benchutil::Reporter rep("fig8_irregular");
  rep.banner("Figure 8", "impact of irregular accesses on vector x");
  const auto suite = benchutil::load_suite();
  const sim::Engine engine;

  const std::vector<int> core_counts = {1, 8, 24, 48};
  Table table("per-matrix speedup of the no-x-miss kernel (distance-reduction, conf0)");
  table.set_header({"#", "matrix", "family", "x1 core", "x8 cores", "x24 cores", "x48 cores"});

  double speedup_m24 = 0.0;
  double speedup_m25 = 0.0;
  std::vector<double> fraction_above_110;  // per core count
  std::vector<std::vector<double>> speedups_by_count(core_counts.size());
  for (const auto& e : suite) {
    std::vector<std::string> row = {Table::integer(e.id), e.name, e.family};
    for (std::size_t c = 0; c < core_counts.size(); ++c) {
      sim::RunSpec spec{.ue_count = core_counts[c],
                        .policy = chip::MappingPolicy::kDistanceReduction};
      const double base = engine.run(e.matrix, spec).seconds;
      spec.variant = sim::SpmvVariant::kCsrNoXMiss;
      const double noxm = engine.run(e.matrix, spec).seconds;
      const double speedup = base / noxm;
      speedups_by_count[c].push_back(speedup);
      row.push_back(Table::num(speedup, 2));
      if (core_counts[c] == 24 && e.id == 24) speedup_m24 = speedup;
      if (core_counts[c] == 24 && e.id == 25) speedup_m25 = speedup;
    }
    table.add_row(std::move(row));
  }
  rep.emit(table, "fig8_irregular");

  std::cout << '\n';
  double min_fraction = 1.0;
  for (std::size_t c = 0; c < core_counts.size(); ++c) {
    const double frac = fraction_above(speedups_by_count[c], 1.10);
    min_fraction = std::min(min_fraction, frac);
    std::cout << "cores=" << core_counts[c] << ": mean speedup "
              << Table::num(mean(speedups_by_count[c]), 2) << ", fraction of matrices > 1.10: "
              << Table::num(frac * 100.0, 0) << "%\n";
  }

  const bool ok = rep.check_claims(
      {{"fraction with speedup>1.10 at every core count (paper: >50%)", 0.60, min_fraction,
        0.4},
       {"outlier #24 speedup at 24 cores (paper: >2)", 2.2, speedup_m24, 0.5},
       {"outlier #25 speedup at 24 cores (paper: >2)", 2.2, speedup_m25, 0.5}});
  return rep.finish(ok);
}
