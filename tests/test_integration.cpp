// Cross-module integration tests: a miniature version of each paper
// experiment at small scale, checking that the *mechanisms* line up
// end-to-end (the figure benches run the full-size versions).
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/stats.hpp"
#include "gen/generators.hpp"
#include "scc/power.hpp"
#include "sim/engine.hpp"
#include "spmv/kernels.hpp"
#include "spmv/rcce_spmv.hpp"
#include "testbed/suite.hpp"

namespace scc {
namespace {

constexpr double kScale = 0.05;

class Integration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cache_dir_ = ::testing::TempDir() + "/scc_integration_cache";
    setenv("SCC_SPMV_CACHE_DIR", cache_dir_.c_str(), 1);
    suite_ = new std::vector<testbed::SuiteEntry>(testbed::build_suite(kScale));
  }
  static void TearDownTestSuite() {
    delete suite_;
    suite_ = nullptr;
    unsetenv("SCC_SPMV_CACHE_DIR");
  }
  static std::vector<testbed::SuiteEntry>* suite_;
  static std::string cache_dir_;
};

std::vector<testbed::SuiteEntry>* Integration::suite_ = nullptr;
std::string Integration::cache_dir_;

TEST_F(Integration, Fig3MechanismHopDegradationOnSuite) {
  // Average single-core performance must degrade monotonically with hop
  // distance across the suite (small-scale Fig 3).
  sim::Engine engine;
  std::vector<double> perf_by_hops;
  for (int hops = 0; hops <= 3; ++hops) {
    std::vector<double> gflops;
    for (const auto& e : *suite_) {
      gflops.push_back(engine.run(e.matrix, {.cores = {0}, .forced_hops = hops}).gflops);
    }
    perf_by_hops.push_back(mean(gflops));
  }
  EXPECT_GT(perf_by_hops[0], perf_by_hops[1]);
  EXPECT_GT(perf_by_hops[1], perf_by_hops[2]);
  EXPECT_GT(perf_by_hops[2], perf_by_hops[3]);
}

TEST_F(Integration, Fig5MechanismDistanceReductionWins) {
  // Needs real miss traffic: at the tiny suite scale everything is cached
  // and mapping cannot matter, so use one full-size irregular matrix.
  sim::Engine engine;
  const auto m = gen::random_uniform(60000, 10, 99);
  const double t_std =
      engine.run(m, {.ue_count = 24, .policy = chip::MappingPolicy::kStandard}).seconds;
  const double t_dr =
      engine.run(m, {.ue_count = 24, .policy = chip::MappingPolicy::kDistanceReduction}).seconds;
  EXPECT_GT(t_std / t_dr, 1.0);
}

TEST_F(Integration, Fig7MechanismL2MattersMoreWithMoreCores) {
  sim::EngineConfig with;
  sim::EngineConfig without;
  without.hierarchy.l2_enabled = false;
  sim::Engine e_with(with);
  sim::Engine e_without(without);
  auto ratio_at = [&](int cores) {
    const sim::RunSpec spec{.ue_count = cores,
                            .policy = chip::MappingPolicy::kDistanceReduction};
    std::vector<double> ratios;
    for (const auto& e : *suite_) {
      const double a = e_with.run(e.matrix, spec).gflops;
      const double b = e_without.run(e.matrix, spec).gflops;
      ratios.push_back(b / a);
    }
    return mean(ratios);
  };
  const double r4 = ratio_at(4);
  EXPECT_LT(r4, 1.0);  // disabling L2 always hurts
}

TEST_F(Integration, Fig8MechanismIrregularMatricesGainMost) {
  sim::Engine engine;
  // sparsine (random, id 14) must gain more from no-x-miss than bcsstm36
  // (narrow banded, id 29).
  const auto& irregular = (*suite_)[13];
  const auto& regular = (*suite_)[28];
  auto speedup = [&](const testbed::SuiteEntry& e) {
    sim::RunSpec spec{.ue_count = 8, .policy = chip::MappingPolicy::kDistanceReduction};
    const double base = engine.run(e.matrix, spec).seconds;
    spec.variant = sim::SpmvVariant::kCsrNoXMiss;
    const double noxm = engine.run(e.matrix, spec).seconds;
    return base / noxm;
  };
  EXPECT_GT(speedup(irregular), speedup(regular));
}

TEST_F(Integration, Fig9MechanismConf1FastestAndMostEfficient) {
  sim::EngineConfig c0, c1, c2;
  c0.freq = chip::FrequencyConfig::conf0();
  c1.freq = chip::FrequencyConfig::conf1();
  c2.freq = chip::FrequencyConfig::conf2();
  // Full-size irregular matrix: the tiny suite scale is fully cached and
  // the memory-clock distinction between conf1 and conf2 would vanish.
  const auto m = gen::random_uniform(60000, 10, 98);
  const sim::RunSpec spec{.ue_count = 8, .policy = chip::MappingPolicy::kDistanceReduction};
  const double g0 = sim::Engine(c0).run(m, spec).gflops;
  const double g1 = sim::Engine(c1).run(m, spec).gflops;
  const double g2 = sim::Engine(c2).run(m, spec).gflops;
  EXPECT_GT(g1, g2);
  EXPECT_GT(g2, g0);

  chip::PowerModel power;
  const double eff0 = g0 / power.full_system_watts(c0.freq);
  const double eff1 = g1 / power.full_system_watts(c1.freq);
  EXPECT_GT(eff1, eff0);
}

TEST_F(Integration, RcceSpmvAgreesWithSimPartitioning) {
  // The functional RCCE program and the timing simulation partition rows
  // identically (both use the nnz-balanced row split), so the distributed
  // result must equal the serial reference on a suite matrix.
  const auto& e = (*suite_)[23];  // rajat15 stand-in
  std::vector<real_t> x(static_cast<std::size_t>(e.matrix.cols()), 1.0);
  const auto ref = sparse::dense_reference_spmv(e.matrix, x);
  const auto result = spmv::rcce_spmv(e.matrix, x, 8);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(result.y[i], ref[i], 1e-9) << i;
  }
}

TEST_F(Integration, EngineHandlesEverySuiteMatrix) {
  sim::Engine engine;
  for (const auto& e : *suite_) {
    const auto r =
        engine.run(e.matrix, {.ue_count = 4, .policy = chip::MappingPolicy::kDistanceReduction});
    EXPECT_GT(r.gflops, 0.0) << e.name;
  }
}

TEST_F(Integration, CgSolverStyleLoopConverges) {
  // The examples ship a CG solver; validate the library pieces compose: a
  // diagonally dominant matrix, repeated SpMV, convergence.
  auto m = gen::stencil_2d(20, 20);
  std::vector<real_t> b_rhs(static_cast<std::size_t>(m.rows()), 1.0);
  std::vector<real_t> x(b_rhs.size(), 0.0);
  std::vector<real_t> r = b_rhs, p = b_rhs, ap(b_rhs.size());
  double rr = 0.0;
  for (double v : r) rr += v * v;
  const double rr0 = rr;
  for (int it = 0; it < 200 && rr > 1e-16 * rr0; ++it) {
    spmv::spmv_csr(m, p, ap);
    double pap = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) pap += p[i] * ap[i];
    const double alpha = rr / pap;
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    double rr_new = 0.0;
    for (double v : r) rr_new += v * v;
    const double beta = rr_new / rr;
    rr = rr_new;
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = r[i] + beta * p[i];
  }
  EXPECT_LT(rr, 1e-12 * rr0);
}

}  // namespace
}  // namespace scc
