#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "cache/hierarchy.hpp"
#include "cache/tlb.hpp"
#include "integrity/integrity.hpp"
#include "scc/mapping.hpp"
#include "serve/loadgen.hpp"
#include "serve/service_model.hpp"
#include "sim/engine.hpp"
#include "sim/format_traces.hpp"
#include "sim/run_cache.hpp"
#include "sparse/partition.hpp"
#include "sparse/reorder.hpp"
#include "testbed/suite.hpp"

namespace perf {

using namespace scc;

namespace {

std::atomic<std::uint64_t> g_sink{0};

double spin_iterations(double seconds) {
  std::uint64_t x = 1;
  double count = 0.0;
  const double end = now_seconds() + seconds;
  while (now_seconds() < end) {
    for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    count += 1.0;
  }
  g_sink.fetch_add(x, std::memory_order_relaxed);
  return count;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Median seconds of `reps` timed calls of `fn`, each inside a span.
template <typename Fn>
double timed(Tracer& tracer, const char* name, int reps, Fn&& fn) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    Scope span(&tracer, name);
    const double t0 = now_seconds();
    fn();
    seconds.push_back(now_seconds() - t0);
  }
  return median(seconds);
}

}  // namespace

double effective_cores(double window_seconds) {
  const double alone = spin_iterations(window_seconds);
  double other = 0.0;
  std::thread worker([&other, window_seconds] { other = spin_iterations(window_seconds); });
  const double mine = spin_iterations(window_seconds);
  worker.join();
  return (mine + other) / alone;
}

std::map<std::string, double> probe_layers(Tracer& tracer, double scale) {
  constexpr int kId = 27;
  const sparse::CsrMatrix matrix = testbed::build_entry(kId, scale).matrix;
  const sim::EngineConfig config;
  std::map<std::string, double> out;
  std::uint64_t sink = 0;

  // Partitioning is tiny per call, so it is timed in batches of 100.
  out["sparse.partition_us"] =
      1e6 / 100.0 * timed(tracer, "probe.sparse.partition", 5, [&] {
        for (int i = 0; i < 100; ++i) {
          sink += sparse::partition_rows_balanced_nnz(matrix, 48).size();
        }
      });
  out["sparse.rcm_ms"] = 1e3 * timed(tracer, "probe.sparse.rcm", 3, [&] {
    sink += sparse::reverse_cuthill_mckee(matrix).size();
  });

  // Cache/TLB replay on a fresh hierarchy, per L1 access (one simulated
  // reference each).
  const sparse::RowBlock whole{0, matrix.rows(), matrix.nnz()};
  double refs = 0.0;
  const double csr_seconds = timed(tracer, "probe.replay.csr", 3, [&] {
    cache::Hierarchy hierarchy(config.hierarchy);
    cache::Tlb tlb;
    refs = static_cast<double>(
        sim::run_spmv_trace(matrix, whole, sim::SpmvVariant::kCsr, hierarchy, &tlb)
            .l1.accesses());
  });
  out["replay.ns_per_ref"] = 1e9 * csr_seconds / refs;

  double format_refs = 0.0;
  double format_seconds = 0.0;
  const auto fresh_replay = [&](const char* name, auto&& trace) {
    format_seconds += timed(tracer, name, 1, [&] {
      cache::Hierarchy hierarchy(config.hierarchy);
      cache::Tlb tlb;
      format_refs += static_cast<double>(trace(hierarchy, tlb).trace.l1.accesses());
    });
  };
  fresh_replay("probe.replay.ell", [&](cache::Hierarchy& h, cache::Tlb& t) {
    return sim::run_ell_trace(matrix, whole, h, &t);
  });
  fresh_replay("probe.replay.bcsr4", [&](cache::Hierarchy& h, cache::Tlb& t) {
    return sim::run_bcsr_trace(matrix, whole, 4, h, &t);
  });
  fresh_replay("probe.replay.hyb", [&](cache::Hierarchy& h, cache::Tlb& t) {
    return sim::run_hyb_trace(matrix, whole, 0.33, h, &t);
  });
  out["replay.format_ns_per_ref"] = 1e9 * format_seconds / format_refs;

  // Run-cache keying, hit (with its RunResult deep copy) and insert.
  sim::RunSpec spec;
  spec.ue_count = 48;
  const std::vector<int> cores = chip::map_ues_to_cores(spec.policy, spec.ue_count);
  sim::RunKey key;
  out["run_cache.key_us"] = 1e6 * timed(tracer, "probe.run_cache.key", 5, [&] {
    key = sim::run_key(matrix, config, cores, spec);
  });
  const sim::RunResult result = sim::Engine(config).run(matrix, spec);
  sim::RunCache cache(sim::RunCacheConfig{256, 0, "", 0});
  out["run_cache.insert_us"] =
      1e6 / 100.0 * timed(tracer, "probe.run_cache.insert", 3, [&] {
        for (std::uint64_t i = 0; i < 100; ++i) cache.insert({key.matrix, key.spec + i}, result);
      });
  out["run_cache.hit_ns"] = 1e9 / 1000.0 * timed(tracer, "probe.run_cache.hit", 3, [&] {
    for (int i = 0; i < 1000; ++i) sink += cache.lookup(key)->cores.size();
  });

  serve::WorkloadSpec stream;
  stream.request_count = 20000;
  out["loadgen.ns_per_request"] =
      1e9 / stream.request_count * timed(tracer, "probe.loadgen", 3, [&] {
        sink += serve::generate_workload(stream).size();
      });

  const std::vector<real_t> x = integrity::reference_x(matrix.cols());
  const std::vector<real_t> y = integrity::serial_product(matrix, x);
  out["integrity.verify_us"] = 1e6 * timed(tracer, "probe.integrity.verify", 5, [&] {
    sink += integrity::verify_product(matrix, x, y).detected ? 1U : 0U;
  });

  // Degraded pricing as a chip pays it after a tile kill, without memoization.
  serve::MatrixPool pool = serve::MatrixPool::without_run_cache(scale);
  pool.entry(kId);
  const std::vector<int> partition =
      chip::map_ues_to_cores(chip::MappingPolicy::kDistanceReduction, 12);
  out["cluster.degraded_price_ms"] = 1e3 * timed(tracer, "probe.cluster.degraded_price", 3, [&] {
    serve::ServiceModel model(config, pool);
    sink += model.degraded_timing(kId, partition, partition[3]).product_seconds > 0.0 ? 1U : 0U;
  });

  g_sink.fetch_add(sink, std::memory_order_relaxed);
  return out;
}

}  // namespace perf
