// Resilience sweep: fault rate vs. achieved performance and recovery cost.
//
// Part 1 drives the *emulated* RCCE SpMV under increasing stochastic fault
// rates and under 0..3 injected UE deaths, checking that every run still
// produces the exact reference product and reporting the deterministic fault
// log counts (retries, drops, timeouts, repartitions). Wall-clock numbers
// from the emulation are deliberately not printed -- with zero faults the
// output of this binary is byte-identical run to run.
//
// Part 2 asks the Section-V timing model what the same deaths cost on the
// real machine: survivors absorb the dead ranks' rows, pay one watchdog
// detection window plus the re-shipping of the repartitioned CSR blocks, and
// the effective GFLOPS drops accordingly.
#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "fault/fault.hpp"
#include "gen/generators.hpp"
#include "rcce/rcce.hpp"
#include "sparse/csr.hpp"
#include "spmv/rcce_spmv.hpp"

namespace {

using namespace scc;

constexpr int kUes = 8;
constexpr double kWatchdogSeconds = 5.0;

struct EmulatedRun {
  bool correct = false;
  std::size_t retries = 0;
  std::size_t drops = 0;
  std::size_t timeouts = 0;
  std::size_t repartitions = 0;
  std::size_t dead = 0;
};

EmulatedRun run_emulated(const sparse::CsrMatrix& m, const std::vector<real_t>& x,
                         const std::vector<real_t>& reference, const fault::Plan& plan) {
  rcce::RuntimeOptions options;
  options.watchdog_timeout_seconds = kWatchdogSeconds;
  options.injector = std::make_shared<fault::Injector>(plan);
  const auto run = spmv::rcce_spmv(m, x, kUes, options);

  EmulatedRun r;
  double max_error = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    max_error = std::max(max_error, std::abs(run.y[i] - reference[i]));
  }
  r.correct = max_error <= 1e-9;
  const auto& log = run.report.fault_log;
  r.retries = fault::count(log, fault::EventType::kRetry);
  r.drops = fault::count(log, fault::EventType::kTransferDrop);
  r.timeouts = fault::count(log, fault::EventType::kTimeout);
  r.repartitions = fault::count(log, fault::EventType::kRepartition);
  r.dead = run.report.dead_ues.size();
  return r;
}

std::string count_cell(std::size_t n) { return Table::integer(static_cast<long long>(n)); }

}  // namespace

int main() {
  using namespace scc;
  benchutil::Reporter rep("fault_sweep");
  rep.banner("Fault sweep", "fault rate vs. GFLOPS and recovery overhead");

  const auto m = gen::banded(4000, 24, 0.4, 7);
  std::vector<real_t> x(static_cast<std::size_t>(m.cols()));
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::cos(static_cast<double>(i) * 0.25);
  const auto reference = sparse::dense_reference_spmv(m, x);

  // --- Part 1a: stochastic transient/drop rates on the emulated runtime. ---
  {
    Table t("emulated RCCE SpMV, " + std::to_string(kUes) + " UEs, stochastic message faults");
    t.set_header({"transient rate", "drop rate", "retries", "drops", "timeouts", "correct"});
    const double rates[] = {0.0, 0.02, 0.05, 0.10, 0.20};
    for (const double rate : rates) {
      fault::Plan plan;
      plan.seed = 0x5cc;
      plan.transient_rate = rate;
      plan.drop_rate = rate / 4.0;
      const auto r = run_emulated(m, x, reference, plan);
      t.add_row({Table::num(rate, 2), Table::num(rate / 4.0, 3), count_cell(r.retries),
                 count_cell(r.drops), count_cell(r.timeouts), r.correct ? "yes" : "NO"});
    }
    rep.emit(t, "fault_sweep_rates");
  }

  // --- Part 1b: permanent UE deaths and the degraded-mode recovery. ---
  {
    Table t("emulated RCCE SpMV, " + std::to_string(kUes) + " UEs, injected UE deaths");
    t.set_header({"killed UEs", "dead observed", "repartitions", "correct"});
    for (int kills = 0; kills <= 3; ++kills) {
      fault::Plan plan;
      plan.seed = 0x5cc;
      for (int k = 0; k < kills; ++k) {
        plan.kills.push_back({2 * k + 1, static_cast<std::uint64_t>(3 + k)});
      }
      const auto r = run_emulated(m, x, reference, plan);
      t.add_row({Table::integer(kills), count_cell(r.dead), count_cell(r.repartitions),
                 r.correct ? "yes" : "NO"});
    }
    rep.emit(t, "fault_sweep_kills");
  }

  // --- Part 2: what the deaths cost on the Section-V machine model. ---
  {
    const sim::Engine engine;
    const sim::RunSpec spec{.ue_count = kUes, .policy = chip::MappingPolicy::kDistanceReduction};
    const auto healthy = engine.run(m, spec);
    Table t("timing model, " + std::to_string(kUes) + " UEs, dead ranks repartitioned");
    t.set_header(
        {"dead UEs", "GFLOPS", "vs healthy", "recovery ms", "reshipped KB"});
    t.add_row({"0", Table::num(healthy.gflops, 4), "100.0%", Table::num(0.0, 3),
               Table::num(0.0, 1)});
    for (int dead = 1; dead <= 4; ++dead) {
      sim::RunSpec degraded = spec;
      for (int k = 0; k < dead; ++k) degraded.dead_ranks.push_back(2 * k + 1);
      const auto d = engine.run(m, degraded);
      t.add_row({Table::integer(dead), Table::num(d.gflops, 4),
                 Table::num(100.0 * d.gflops / healthy.gflops, 1) + "%",
                 Table::num(d.recovery_seconds * 1e3, 3),
                 Table::num(static_cast<double>(d.reshipped_bytes) / 1024.0, 1)});
    }
    rep.emit(t, "fault_sweep_model");
  }

  return rep.finish(true);
}
