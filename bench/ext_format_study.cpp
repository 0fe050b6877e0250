// Extension study (not a paper figure): would the storage-format
// optimizations the paper cites -- register blocking (Williams et al. [11])
// and ELL/HYB padding (Bell & Garland [9]) -- have helped SpMV on the SCC?
// The engine replays each format's reference stream through the same
// TLB/cache/latency/bandwidth model used for every reproduced figure.
//
// Expected physics: BCSR wins on FEM-like matrices (low fill, amortized
// indexing), loses when fill-in explodes; ELL wins on uniform row lengths,
// loses badly on skewed ones (padded slots execute); HYB tracks ELL with the
// pathology capped.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace scc;
  benchutil::Reporter rep("ext_format_study");
  rep.banner("Format study (extension)",
             "CSR vs ELL vs BCSR vs HYB on the simulated SCC, 24 cores");
  const auto suite = benchutil::load_suite();
  const sim::Engine engine;

  const std::vector<sim::StorageFormat> formats = {
      sim::StorageFormat::kCsr, sim::StorageFormat::kEll, sim::StorageFormat::kBcsr2,
      sim::StorageFormat::kBcsr4, sim::StorageFormat::kHyb};
  // One representative per structural family plus the short-row outlier.
  const std::vector<int> ids = {2, 4, 9, 14, 21, 24, 29};

  Table table("per-matrix MFLOPS by storage format (conf0, distance-reduction, 24 cores)");
  table.set_header({"#", "matrix", "family", "CSR", "ELL", "BCSR b=2", "BCSR b=4", "HYB",
                    "best"});
  double ell_on_skewed = 0.0;
  double csr_on_skewed = 0.0;
  double hyb_on_skewed = 0.0;
  bool bcsr2_never_worse_than_bcsr4 = true;
  double bcsr2_on_mass = 0.0;
  double csr_on_mass = 0.0;
  for (int id : ids) {
    const auto& e = suite[static_cast<std::size_t>(id - 1)];
    std::vector<std::string> row = {Table::integer(id), e.name, e.family};
    double best = 0.0;
    double bcsr2 = 0.0;
    std::string best_name;
    sim::RunSpec spec{.ue_count = 24, .policy = chip::MappingPolicy::kDistanceReduction};
    for (const auto format : formats) {
      spec.format = format;
      const double mflops = engine.run(e.matrix, spec).mflops();
      row.push_back(Table::num(mflops, 0));
      if (mflops > best) {
        best = mflops;
        best_name = sim::to_string(format);
      }
      if (format == sim::StorageFormat::kBcsr2) bcsr2 = mflops;
      if (format == sim::StorageFormat::kBcsr4 && mflops > bcsr2 + 1e-9) {
        bcsr2_never_worse_than_bcsr4 = false;  // fill-in grows with b on our suite
      }
      if (id == 21) {  // fp: skewed power-law rows
        if (format == sim::StorageFormat::kEll) ell_on_skewed = mflops;
        if (format == sim::StorageFormat::kCsr) csr_on_skewed = mflops;
        if (format == sim::StorageFormat::kHyb) hyb_on_skewed = mflops;
      }
      if (id == 29) {  // bcsstm36: narrow band, natural 2x2-ish blocks
        if (format == sim::StorageFormat::kBcsr2) bcsr2_on_mass = mflops;
        if (format == sim::StorageFormat::kCsr) csr_on_mass = mflops;
      }
    }
    row.push_back(best_name);
    table.add_row(std::move(row));
  }
  rep.emit(table, "ext_format_study");

  std::cout << "\nReading: CSR holds up remarkably well on the SCC -- the in-order P54C gains"
            << "\nlittle from padding/coalescing tricks designed for SIMD/GPU pipelines."
            << "\nBCSR only wins where near-perfect dense blocks exist (bcsstm36); ELL"
            << "\ncollapses on skewed rows (fp: " << Table::num(ell_on_skewed, 0) << " vs CSR "
            << Table::num(csr_on_skewed, 0) << " MFLOPS) while HYB caps the damage ("
            << Table::num(hyb_on_skewed, 0) << ") -- consistent with why Bell & Garland's GPU"
            << "\nlibrary (the paper's Fig 10 comparator) defaults to HYB.\n";

  const bool ok = rep.check_claims(
      {{"ELL slower than CSR on skewed rows (1=yes)", 1.0,
        ell_on_skewed < csr_on_skewed ? 1.0 : 0.0, 0.0},
       {"HYB recovers most of ELL's skew loss (1=yes)", 1.0,
        hyb_on_skewed > 2.0 * ell_on_skewed ? 1.0 : 0.0, 0.0},
       {"larger blocks never pay on this suite (1=yes)", 1.0,
        bcsr2_never_worse_than_bcsr4 ? 1.0 : 0.0, 0.0},
       {"BCSR b=2 beats CSR on the blocked mass matrix (1=yes)", 1.0,
        bcsr2_on_mass > csr_on_mass ? 1.0 : 0.0, 0.0}});
  return rep.finish(ok);
}
