// The host-parallel fast path must be invisible in the output: Engine::run
// (and everything layered on it -- serve, cluster) produces byte-identical
// results for any SCC_SIM_THREADS value and with memoization on or off.
// Also unit-tests the common::parallel_for primitive itself.
#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/report.hpp"
#include "cluster/simulator.hpp"
#include "gen/generators.hpp"
#include "obs/trace.hpp"
#include "serve/loadgen.hpp"
#include "serve/report.hpp"
#include "serve/simulator.hpp"
#include "sim/engine.hpp"
#include "sim/report.hpp"
#include "sim/run_cache.hpp"

namespace scc {
namespace {

/// RAII guard: every test leaves the global thread override cleared.
struct ThreadGuard {
  explicit ThreadGuard(int threads) { common::set_sim_threads(threads); }
  ~ThreadGuard() { common::set_sim_threads(0); }
};

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    const ThreadGuard guard(threads);
    std::vector<int> visits(199, 0);
    common::parallel_for(visits.size(), [&](std::size_t i) { ++visits[i]; });
    for (const int count : visits) EXPECT_EQ(count, 1);
  }
}

TEST(ParallelFor, ZeroAndSingleItemDegenerate) {
  const ThreadGuard guard(8);
  common::parallel_for(0, [](std::size_t) { FAIL() << "body must not run for count 0"; });
  int calls = 0;
  common::parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesTheBodyException) {
  const ThreadGuard guard(4);
  EXPECT_THROW(common::parallel_for(64,
                                    [](std::size_t i) {
                                      if (i == 13) throw std::runtime_error("boom");
                                    }),
               std::runtime_error);
}

TEST(ParallelFor, OverrideControlsSimThreadCount) {
  {
    const ThreadGuard guard(3);
    EXPECT_EQ(common::sim_thread_count(), 3);
  }
  EXPECT_GE(common::sim_thread_count(), 1);  // env/hardware fallback
}

// ---- Engine equivalence across thread counts ----

sparse::CsrMatrix test_matrix() { return gen::power_law(1500, 9, 1.2, 0x7e57); }

std::string run_json(const sim::Engine& engine, const sparse::CsrMatrix& m,
                     const sim::RunSpec& spec) {
  return sim::run_report_json(engine, spec, engine.run(m, spec)).dump(2);
}

TEST(SimParallel, RunIsByteIdenticalForAnyThreadCount) {
  const auto m = test_matrix();
  const sim::Engine engine;

  std::vector<sim::RunSpec> specs;
  {
    sim::RunSpec healthy;
    healthy.ue_count = 24;
    healthy.policy = chip::MappingPolicy::kDistanceReduction;
    specs.push_back(healthy);

    sim::RunSpec degraded = healthy;
    degraded.ue_count = 8;
    degraded.dead_ranks = {3, 5};
    specs.push_back(degraded);

    sim::RunSpec ell;
    ell.ue_count = 12;
    ell.format = sim::StorageFormat::kEll;
    specs.push_back(ell);

    sim::RunSpec no_x_miss;
    no_x_miss.ue_count = 6;
    no_x_miss.variant = sim::SpmvVariant::kCsrNoXMiss;
    specs.push_back(no_x_miss);
  }

  for (const sim::RunSpec& spec : specs) {
    std::string serial;
    {
      const ThreadGuard guard(1);
      serial = run_json(engine, m, spec);
    }
    for (const int threads : {2, 8}) {
      const ThreadGuard guard(threads);
      EXPECT_EQ(serial, run_json(engine, m, spec))
          << "thread count " << threads << " changed the simulated numbers";
    }
  }
}

TEST(SimParallel, CacheHitMatchesAnyThreadCount) {
  const auto m = test_matrix();
  sim::Engine engine;
  const auto cache = std::make_shared<sim::RunCache>();
  engine.attach_run_cache(cache);
  const sim::Engine plain;
  sim::RunSpec spec;
  spec.ue_count = 16;

  sim::RunResult cold;
  {
    const ThreadGuard guard(4);
    cold = engine.run(m, spec);  // miss, filled by the 4-thread replay
  }
  const ThreadGuard guard(1);
  const sim::RunResult warm = engine.run(m, spec);  // hit
  EXPECT_EQ(cache->hits(), 1u);
  // Serialize everything against the cache-less engine: the report embeds
  // live cache counters, and here only the simulated numbers are under test.
  const std::string truth = sim::run_report_json(plain, spec, plain.run(m, spec)).dump(2);
  EXPECT_EQ(sim::run_report_json(plain, spec, cold).dump(2), truth);
  EXPECT_EQ(sim::run_report_json(plain, spec, warm).dump(2), truth);
}

// ---- Serving layers: same seed => byte-identical reports ----

std::string serve_json(bool run_cache, int threads) {
  const ThreadGuard guard(threads);
  const serve::WorkloadSpec workload;
  const serve::ServeConfig config;
  serve::MatrixPool pool = run_cache ? serve::MatrixPool(0.05)
                                     : serve::MatrixPool::without_run_cache(0.05);
  serve::Simulator simulator(config, pool);
  const auto result = simulator.run(serve::generate_workload(workload));
  return serve::serve_report_json(workload, config, result, &simulator.metrics()).dump(2);
}

TEST(SimParallel, ServeReportUnchangedByMemoizationAndThreads) {
  const std::string baseline = serve_json(/*run_cache=*/false, /*threads=*/1);
  EXPECT_EQ(baseline, serve_json(true, 1));
  EXPECT_EQ(baseline, serve_json(true, 4));
  EXPECT_EQ(baseline, serve_json(false, 4));
}

std::string cluster_json(bool run_cache, int threads) {
  const ThreadGuard guard(threads);
  serve::WorkloadSpec workload;
  workload.request_count = 120;
  cluster::ClusterConfig config;
  config.chip_count = 2;
  config.faults.crash_rate = 0.02;
  config.faults.job_failure_rate = 0.05;
  serve::MatrixPool pool = run_cache ? serve::MatrixPool(0.05)
                                     : serve::MatrixPool::without_run_cache(0.05);
  cluster::ClusterSimulator simulator(config, pool);
  const auto result = simulator.run(serve::generate_workload(workload));
  return cluster::cluster_report_json(workload, config, result, &simulator.metrics()).dump(2);
}

TEST(SimParallel, ClusterReportUnchangedByMemoizationAndThreads) {
  const std::string baseline = cluster_json(/*run_cache=*/false, /*threads=*/1);
  EXPECT_EQ(baseline, cluster_json(true, 1));
  EXPECT_EQ(baseline, cluster_json(true, 4));
}

// ---- Traced runs: the span stream must not depend on the thread count ----

/// JSONL of a traced run with the wall-clock ts/dur fields stripped -- the
/// deterministic trace *shape* (names, order, attrs). Wall timestamps vary
/// run to run even at a fixed thread count, so byte-identity is only
/// meaningful (and is required) for everything else.
std::string traced_shape_jsonl(const sparse::CsrMatrix& m, int threads) {
  const ThreadGuard guard(threads);
  const sim::Engine engine;
  obs::Recorder recorder;
  sim::RunSpec spec;
  spec.ue_count = 24;
  spec.recorder = &recorder;
  engine.run(m, spec);
  std::ostringstream out;
  recorder.write_jsonl(out, /*include_timing=*/false);
  return out.str();
}

TEST(SimParallel, TracedRunShapeIsByteIdenticalForAnyThreadCount) {
  const auto m = test_matrix();
  const std::string serial = traced_shape_jsonl(m, 1);
  // The serial shape must contain one core_trace span per rank, in rank
  // order -- the merged buffers reproduce the old serial loop exactly.
  EXPECT_NE(serial.find("engine.core_trace"), std::string::npos);
  EXPECT_LT(serial.find("\"rank\":\"0\""), serial.find("\"rank\":\"1\""));

  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (const int threads : {4, hw}) {
    EXPECT_EQ(serial, traced_shape_jsonl(m, threads))
        << "thread count " << threads << " changed the traced span stream";
  }
}

}  // namespace
}  // namespace scc
