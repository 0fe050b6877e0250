// Suite report: a Table-I-style analysis of any matrix -- one of the
// built-in testbed stand-ins or an arbitrary Matrix Market file -- plus a
// simulated SCC performance profile across core counts and a format
// comparison (CSR / ELL / BCSR / HYB storage footprints).
//
// Usage:
//   suite_report --id 14                # testbed matrix by Table-I index
//   suite_report --matrix path.mtx      # your own matrix
//   suite_report --id 14 --cores 1,8,24,48
#include <iostream>
#include <sstream>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/engine.hpp"
#include "sparse/bcsr.hpp"
#include "sparse/ell.hpp"
#include "sparse/hyb.hpp"
#include "sparse/io.hpp"
#include "sparse/properties.hpp"
#include "sparse/reorder.hpp"
#include "testbed/suite.hpp"

namespace {

std::vector<int> parse_core_list(const std::string& spec) {
  std::vector<int> cores;
  std::istringstream iss(spec);
  std::string token;
  while (std::getline(iss, token, ',')) {
    cores.push_back(std::stoi(token));
  }
  return cores;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scc;
  const CliArgs args(argc, argv);

  sparse::CsrMatrix a;
  std::string name;
  if (const auto path = args.get("matrix")) {
    a = sparse::read_matrix_market_file(*path);
    name = *path;
  } else {
    const auto entry = testbed::build_entry(args.get_int_or("id", 14),
                                            testbed::suite_scale_from_env());
    a = std::move(entry.matrix);
    name = entry.name + " (#" + std::to_string(entry.id) + ", " + entry.family + ")";
  }

  // --- structural profile ---
  const auto stats = sparse::row_stats(a);
  Table profile("structural profile: " + name);
  profile.set_header({"property", "value"});
  profile.add_row({"rows x cols", Table::integer(a.rows()) + " x " + Table::integer(a.cols())});
  profile.add_row({"nonzeros", Table::integer(a.nnz())});
  profile.add_row({"nnz/row (mean/min/max)",
                   Table::num(stats.mean_length, 2) + " / " + Table::integer(stats.min_length) +
                       " / " + Table::integer(stats.max_length)});
  profile.add_row({"working set (paper formula)",
                   Table::num(static_cast<double>(sparse::working_set_bytes(a)) / 1048576.0, 2) +
                       " MB"});
  profile.add_row({"bandwidth", Table::integer(sparse::bandwidth(a))});
  profile.add_row({"mean |col-row|", Table::num(sparse::mean_column_distance(a), 1)});
  profile.add_row({"x line-reuse fraction", Table::num(sparse::x_line_reuse_fraction(a), 3)});
  profile.print(std::cout);

  // --- storage formats ---
  std::cout << '\n';
  Table formats("storage formats");
  formats.set_header({"format", "stored values", "overhead vs nnz"});
  formats.add_row({"CSR", Table::integer(a.nnz()), "1.00"});
  try {
    const auto ell = sparse::EllMatrix::from_csr(a, 10.0);
    const auto slots = static_cast<long long>(ell.rows()) * ell.width();
    formats.add_row({"ELL (width " + Table::integer(ell.width()) + ")", Table::integer(slots),
                     Table::num(static_cast<double>(slots) / static_cast<double>(a.nnz()), 2)});
  } catch (const std::invalid_argument&) {
    formats.add_row({"ELL", "(padding > 10x, skipped)", "-"});
  }
  for (index_t b : {2, 4}) {
    try {
      const auto bcsr = sparse::BcsrMatrix::from_csr(a, b, 10.0);
      formats.add_row({"BCSR b=" + Table::integer(b),
                       Table::integer(bcsr.block_count() * b * b),
                       Table::num(bcsr.fill_ratio(), 2)});
    } catch (const std::invalid_argument&) {
      formats.add_row({"BCSR b=" + Table::integer(b), "(fill > 10x, skipped)", "-"});
    }
  }
  const auto hyb = sparse::HybMatrix::from_csr(a);
  formats.add_row({"HYB (ELL " + Table::integer(hyb.ell_width()) + " + COO)",
                   Table::integer(static_cast<long long>(hyb.ell_nnz() + hyb.coo_nnz())),
                   Table::num(1.0 + static_cast<double>(hyb.ell().rows()) *
                                        static_cast<double>(hyb.ell_width()) /
                                        static_cast<double>(a.nnz() ? a.nnz() : 1) -
                                  static_cast<double>(hyb.ell_nnz()) /
                                      static_cast<double>(a.nnz() ? a.nnz() : 1),
                              2)});
  formats.print(std::cout);

  // --- RCM potential ---
  if (a.rows() == a.cols()) {
    const auto perm = sparse::reverse_cuthill_mckee(a);
    const auto reordered = a.permute_symmetric(perm);
    std::cout << "\nRCM reordering: bandwidth " << sparse::bandwidth(a) << " -> "
              << sparse::bandwidth(reordered) << ", x line-reuse "
              << Table::num(sparse::x_line_reuse_fraction(a), 3) << " -> "
              << Table::num(sparse::x_line_reuse_fraction(reordered), 3) << '\n';
  }

  // --- simulated SCC profile ---
  std::cout << '\n';
  const auto cores = parse_core_list(args.get_or("cores", "1,8,24,48"));
  const sim::Engine engine;
  Table perf("simulated SCC performance (conf0, distance-reduction)");
  perf.set_header({"cores", "time (ms)", "MFLOPS", "bound by", "mesh hot link (MB)"});
  for (int c : cores) {
    const auto r =
        engine.run(a, {.ue_count = c, .policy = chip::MappingPolicy::kDistanceReduction});
    perf.add_row({Table::integer(c), Table::num(r.seconds * 1e3, 3), Table::num(r.mflops(), 1),
                  r.bandwidth_bound ? "bandwidth" : "latency/compute",
                  Table::num(static_cast<double>(r.mesh.max_link_bytes) / 1048576.0, 2)});
  }
  perf.print(std::cout);
  return 0;
}
