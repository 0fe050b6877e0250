// Simulator-performance bench (MODEL.md section 7): how fast does the host
// churn through simulated nonzeros, and what do the engine fast paths buy?
//
//   1. Host-parallel rank replay: one 48-UE run timed at SCC_SIM_THREADS=1
//      versus the machine's hardware concurrency. The speedup claim
//      self-calibrates to the parallelism the host delivers, measured by a
//      spin probe on both sides of the timed runs: >= 2x when it delivers 4
//      or more cores, >= 1.2x with 2-3, and merely "no worse than ~0.75x"
//      with one, where the parallel path degenerates to the serial loop.
//   2. Engine-run memoization: a serving workload priced cold (RunCache
//      disabled) versus warm (fresh ServiceModel on a pool whose shared
//      RunCache a previous serve run populated). Warm replay must be >= 5x
//      faster -- hits skip the trace replay entirely, so this holds at any
//      thread count and any SCC_TESTBED_SCALE.
//   3. Persisted replay: the warm pool's cache is snapshotted to disk, a
//      fresh pool loads it (the cross-process path), and re-pricing the
//      whole job stream must simulate nothing -- zero cache misses.
//
// The experiments replay identical simulations; the equivalence tests
// (tests/test_sim_parallel.cpp, test_sim_runcache.cpp) prove the numbers
// are bit-identical, this bench only prices the wall clock.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "gen/generators.hpp"
#include "serve/loadgen.hpp"
#include "serve/simulator.hpp"
#include "sim/run_cache.hpp"

namespace {

using namespace scc;

std::atomic<std::uint64_t> g_spin_sink{0};

/// Blocks of a fixed integer recurrence one thread completes in `seconds`
/// of wall time.
double spin_blocks(double seconds) {
  std::uint64_t x = 1;
  double blocks = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() < seconds) {
    for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    blocks += 1.0;
  }
  g_spin_sink.fetch_add(x, std::memory_order_relaxed);
  return blocks;
}

/// Cores the host delivers to `threads` busy threads now: the blocks they
/// spin together in one window over the blocks one thread spins alone.
double delivered_cores(unsigned threads, double window_seconds) {
  const double alone = spin_blocks(window_seconds);
  std::vector<double> blocks(threads, 0.0);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back(
        [&blocks, t, window_seconds] { blocks[t] = spin_blocks(window_seconds); });
  }
  for (std::thread& worker : workers) worker.join();
  double together = 0.0;
  for (const double b : blocks) together += b;
  return alone > 0.0 ? together / alone : 1.0;
}

/// Best-of-`reps` wall seconds of `fn` (min filters scheduler noise).
double best_wall_seconds(int reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (rep == 0 || wall < best) best = wall;
  }
  return best;
}

/// Price every job of `jobs` through a fresh ServiceModel on `pool` (fresh so
/// the per-model JobTiming map starts empty and only the engine-level
/// RunCache distinguishes cold from warm).
double price_jobs_seconds(const serve::ServeConfig& config, serve::MatrixPool& pool,
                          const std::vector<serve::JobRecord>& jobs) {
  serve::ServiceModel model(config.engine, pool);
  const auto t0 = std::chrono::steady_clock::now();
  for (const serve::JobRecord& job : jobs) {
    model.timing(job.matrix_id, job.cores);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main() {
  benchutil::Reporter reporter("sim_throughput");
  reporter.banner("Simulator performance",
                  "host-parallel rank replay + engine-run memoization");

  // ---- 1. rank-replay throughput: threads = 1 vs hardware concurrency ----
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const sparse::CsrMatrix matrix = gen::random_uniform(60000, 12, 0x51f7);
  const sim::Engine engine;
  sim::RunSpec spec;
  spec.ue_count = 48;

  engine.run(matrix, spec);  // warm-up (testbed pages, allocator)
  // The target follows the parallelism the host delivers to this process
  // while the runs are timed, not hardware_concurrency: a loaded runner
  // lowers the bar instead of failing the claim. The lower of two probes,
  // taken just before and just after the timed runs, sets it.
  constexpr double kProbeSeconds = 0.1;
  const double delivered_before = delivered_cores(hw, kProbeSeconds);
  common::set_sim_threads(1);
  const double serial_s = best_wall_seconds(3, [&] { engine.run(matrix, spec); });
  common::set_sim_threads(static_cast<int>(hw));
  const double parallel_s = best_wall_seconds(3, [&] { engine.run(matrix, spec); });
  common::set_sim_threads(0);  // back to the environment default
  const double delivered = std::min(delivered_before, delivered_cores(hw, kProbeSeconds));

  const double nnz = static_cast<double>(matrix.nnz());
  const double speedup = serial_s > 0.0 ? serial_s / parallel_s : 1.0;
  Table threads("48-UE run, 60000x12 random matrix (simulated numbers identical)");
  threads.set_header({"host threads", "wall [ms]", "simulated Mnnz/s", "speedup"});
  threads.add_row({"1", Table::num(serial_s * 1e3, 2),
                   Table::num(nnz / serial_s / 1e6, 1), "1.00x"});
  threads.add_row({Table::integer(static_cast<long long>(hw)),
                   Table::num(parallel_s * 1e3, 2), Table::num(nnz / parallel_s / 1e6, 1),
                   Table::num(speedup, 2) + "x"});
  reporter.emit(threads, "sim_throughput_threads");

  const long cores = std::lround(delivered);
  const double target = cores >= 4 ? 2.0 : cores >= 2 ? 1.2 : 0.75;

  // ---- 2. memoized serve replay: cold vs warm ----
  const serve::WorkloadSpec workload;  // defaults: 200 requests, mix 26/27/28/30
  const auto requests = serve::generate_workload(workload);
  const serve::ServeConfig config;

  serve::MatrixPool pool(testbed::suite_scale_from_env());
  serve::MatrixPool pool_nocache = serve::MatrixPool::without_run_cache(testbed::suite_scale_from_env());
  for (const int id : workload.matrix_mix) {
    pool.entry(id);  // prefetch so matrix building never pollutes the timings
    pool_nocache.entry(id);
  }

  serve::Simulator cold_sim(config, pool);
  const auto cold_t0 = std::chrono::steady_clock::now();
  const serve::ServeResult served = cold_sim.run(requests);
  const double serve_cold_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - cold_t0).count();
  serve::Simulator warm_sim(config, pool);  // fresh instance, shared (warm) RunCache
  const double serve_warm_s = best_wall_seconds(3, [&] { warm_sim.run(requests); });

  // The replay claim prices the dispatched job stream directly so it stays
  // engine-dominated (the full serve run above also pays the event loop,
  // which memoization cannot touch -- reported, not claimed).
  const double price_cold_s =
      best_wall_seconds(3, [&] { price_jobs_seconds(config, pool_nocache, served.jobs); });
  const double price_warm_s =
      best_wall_seconds(3, [&] { price_jobs_seconds(config, pool, served.jobs); });
  const double memo_speedup = price_warm_s > 0.0 ? price_cold_s / price_warm_s : 1.0;

  const sim::RunCache* cache = pool.run_cache().get();
  Table memo("engine-run memoization (serve workload, " +
             Table::integer(static_cast<long long>(served.jobs.size())) + " jobs)");
  memo.set_header({"experiment", "cold [ms]", "warm [ms]", "speedup"});
  memo.add_row({"price job stream (claimed)", Table::num(price_cold_s * 1e3, 2),
                Table::num(price_warm_s * 1e3, 2), Table::num(memo_speedup, 1) + "x"});
  memo.add_row({"full serve replay", Table::num(serve_cold_s * 1e3, 2),
                Table::num(serve_warm_s * 1e3, 2),
                Table::num(serve_warm_s > 0.0 ? serve_cold_s / serve_warm_s : 1.0, 1) + "x"});
  memo.add_row({"run-cache misses (cold) / hits (warm)",
                Table::integer(static_cast<long long>(cache != nullptr ? cache->misses() : 0)),
                Table::integer(static_cast<long long>(cache != nullptr ? cache->hits() : 0)),
                "-"});
  reporter.emit(memo, "sim_throughput_memo");

  // ---- 3. persisted replay: snapshot -> fresh pool -> zero re-simulation ----
  const std::string snapshot_path = "BENCH_sim_throughput.runcache";
  const bool saved = cache != nullptr && cache->save_snapshot(snapshot_path);
  double price_persisted_s = 0.0;
  std::uint64_t persisted_misses = 1;
  {
    sim::RunCacheConfig persisted_config;
    persisted_config.persist_path = snapshot_path;
    serve::MatrixPool persisted_pool(testbed::suite_scale_from_env(), persisted_config);
    for (const int id : workload.matrix_mix) persisted_pool.entry(id);
    price_persisted_s =
        best_wall_seconds(3, [&] { price_jobs_seconds(config, persisted_pool, served.jobs); });
    if (persisted_pool.run_cache() != nullptr) {
      persisted_misses = persisted_pool.run_cache()->misses();
    }
  }  // pool teardown re-snapshots; remove the file afterwards
  std::remove(snapshot_path.c_str());

  Table persisted("persisted replay (snapshot round trip, fresh pool)");
  persisted.set_header({"experiment", "wall [ms]", "misses"});
  persisted.add_row({"price job stream from snapshot", Table::num(price_persisted_s * 1e3, 2),
                     Table::integer(static_cast<long long>(persisted_misses))});
  reporter.emit(persisted, "sim_throughput_persisted");

  const bool ok = reporter.check_claims({
      {"48-UE replay speedup at " + std::to_string(hw) + " host threads (" +
           Table::num(delivered, 2) + " cores delivered) >= " + Table::num(target, 2) +
           "x (bool)",
       1.0, speedup >= target ? 1.0 : 0.0, 0.0},
      {"warm-memo job replay >= 5x faster than cold (bool)", 1.0,
       memo_speedup >= 5.0 ? 1.0 : 0.0, 0.0},
      {"persisted snapshot replays the job stream with zero misses (bool)", 1.0,
       saved && persisted_misses == 0 ? 1.0 : 0.0, 0.0},
  });
  return reporter.finish(ok);
}
