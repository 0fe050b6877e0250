// Power sweep: extends the paper's Section IV-D from its three measured
// configurations to the full frequency space the SCC exposes -- every valid
// (core, mesh, memory) clock combination -- and reports the performance /
// power-efficiency frontier for a chosen workload.
//
// Usage:
//   power_sweep [--id 1..32] [--ues 48] [--top 10]
#include <algorithm>
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "scc/power.hpp"
#include "sim/engine.hpp"
#include "testbed/suite.hpp"

int main(int argc, char** argv) {
  using namespace scc;
  const CliArgs args(argc, argv);
  const int id = static_cast<int>(args.get_int_or("id", 1));
  const int ues = static_cast<int>(args.get_int_or("ues", 48));
  const auto top = static_cast<std::size_t>(args.get_int_or("top", 10));

  const auto entry = testbed::build_entry(id, testbed::suite_scale_from_env());
  std::cout << "matrix #" << id << " (" << entry.name << "), " << ues << " UEs, sweeping all"
            << " SCC frequency configurations\n\n";

  const std::vector<int> core_choices = {100, 200, 266, 320, 400, 533, 800};
  const std::vector<int> mesh_choices = {800, 1600};
  const std::vector<int> memory_choices = {800, 1066};

  struct Point {
    chip::FrequencyConfig freq{533, 800, 800};
    double mflops = 0.0;
    double watts = 0.0;
    double efficiency = 0.0;
  };
  std::vector<Point> points;
  const chip::PowerModel power;
  const sim::RunSpec spec{.ue_count = ues, .policy = chip::MappingPolicy::kDistanceReduction};
  for (int core : core_choices) {
    for (int mesh : mesh_choices) {
      for (int memory : memory_choices) {
        Point p;
        p.freq = chip::FrequencyConfig(core, mesh, memory);
        sim::EngineConfig cfg;
        cfg.freq = p.freq;
        p.mflops = sim::Engine(cfg).run(entry.matrix, spec).mflops();
        p.watts = power.chip_watts(p.freq, ues);
        p.efficiency = p.mflops / p.watts;
        points.push_back(p);
      }
    }
  }

  auto show = [&](const std::string& title, auto better) {
    std::vector<Point> sorted = points;
    std::sort(sorted.begin(), sorted.end(), better);
    Table table(title);
    table.set_header({"rank", "configuration", "MFLOPS", "watts", "MFLOPS/W"});
    for (std::size_t i = 0; i < std::min(top, sorted.size()); ++i) {
      table.add_row({Table::integer(static_cast<long long>(i) + 1), sorted[i].freq.describe(),
                     Table::num(sorted[i].mflops, 1), Table::num(sorted[i].watts, 1),
                     Table::num(sorted[i].efficiency, 2)});
    }
    table.print(std::cout);
    std::cout << '\n';
  };

  show("top configurations by performance",
       [](const Point& a, const Point& b) { return a.mflops > b.mflops; });
  show("top configurations by power efficiency",
       [](const Point& a, const Point& b) { return a.efficiency > b.efficiency; });

  // The paper's three measured points for reference.
  Table ref("the paper's measured configurations");
  ref.set_header({"conf", "configuration", "MFLOPS", "watts", "MFLOPS/W"});
  int conf_index = 0;
  for (const auto& freq : {chip::FrequencyConfig::conf0(), chip::FrequencyConfig::conf1(),
                           chip::FrequencyConfig::conf2()}) {
    for (const Point& p : points) {
      if (p.freq == freq) {
        ref.add_row({"conf" + std::to_string(conf_index), p.freq.describe(),
                     Table::num(p.mflops, 1), Table::num(p.watts, 1),
                     Table::num(p.efficiency, 2)});
      }
    }
    ++conf_index;
  }
  ref.print(std::cout);
  return 0;
}
