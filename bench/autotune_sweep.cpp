// Autotuner extension sweep: tuned serving vs the CSR-only baseline, plus
// the determinism contract of the tuning decision log.
//
// Claims (all self-calibrating, so they hold at any SCC_TESTBED_SCALE):
//  * tuned dispatch (format/reorder/core-count pinned by the autotuner)
//    lowers p95 latency at saturation on the irregular testbed slice
//    {26 circuit, 27 power-law} under the matrix-aware policy -- the slice
//    where one-size CSR partitioning leaves the most on the table;
//  * the tuning decision log is byte-identical across SCC_SIM_THREADS in
//    {1, hw} crossed with run-cache {off, on, persisted}: exploration is
//    deterministic and run-cache replay is bit-exact, so the tuner commits
//    to the same winners no matter how the exploration was priced;
//  * a second tuner over the same pool serves every decision from the
//    shared TuningCache (no re-exploration).
//
// Env knobs (besides the shared bench ones): SCC_SERVE_REQUESTS overrides
// the per-point request count (CI smoke uses a small value).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "serve/loadgen.hpp"
#include "serve/simulator.hpp"
#include "tune/autotuner.hpp"

namespace {

using namespace scc;

/// The irregular testbed slice: 26 (circuit, nmos3 stand-in) and 27
/// (power-law, net25 stand-in) -- short irregular rows, the matrices where
/// format and core-count choice move the needle most.
const std::vector<int> kIrregularMix = {26, 27};

int requests_from_env(int fallback) {
  const char* value = std::getenv("SCC_SERVE_REQUESTS");
  if (value == nullptr || *value == '\0') return fallback;
  return std::max(1, std::atoi(value));
}

/// Saturation measurement: the whole stream arrives at once into a queue
/// deep enough to hold it and the policy drains the backlog (same harness
/// as serve_sweep's capacity measurement).
serve::ServeResult drain_backlog(serve::MatrixPool& pool, bool autotune, int request_count) {
  serve::WorkloadSpec spec;
  spec.seed = 0x5e12e;
  spec.offered_rps = 1e6;
  spec.request_count = request_count;
  spec.matrix_mix = kIrregularMix;
  spec.slo_interactive_seconds = 1e6;  // capacity, not shedding
  spec.slo_batch_seconds = 1e6;
  serve::ServeConfig config;
  config.policy = serve::SchedulingPolicy::kMatrixAware;
  config.autotune = autotune;
  config.admission.max_queue_depth = request_count + 1;
  config.admission.interactive_reserve = 0;
  serve::Simulator simulator(config, pool);
  return simulator.run(serve::generate_workload(spec));
}

/// Decision log of a fresh tuner over the irregular slice under one
/// (thread count, run-cache mode) variant. A fresh pool per call means a
/// fresh TuningCache, so every variant re-decides from scratch.
enum class CacheMode { kOff, kOn, kPersisted };

std::string decision_log_for(int threads, CacheMode mode, const std::string& snapshot) {
  common::set_sim_threads(threads);
  const double scale = testbed::suite_scale_from_env();
  serve::MatrixPool pool =
      mode == CacheMode::kOff
          ? serve::MatrixPool::without_run_cache(scale)
          : serve::MatrixPool(scale,
                              sim::RunCacheConfig{.capacity = 1024, .persist_path = snapshot});
  tune::AutotuneConfig tuning;
  tune::Autotuner tuner(sim::EngineConfig{}, tuning, pool.tuning_cache(tuning.cache),
                        pool.run_cache());
  for (const int id : kIrregularMix) tuner.decide(pool.entry(id).matrix, id);
  return tuner.decision_log_text();
}

}  // namespace

int main() {
  benchutil::Reporter reporter("autotune_sweep");
  reporter.banner("autotuner extension -- tuned serving sweep",
                  "online format/mapping autotuning vs the CSR-only serving baseline");

  const int request_count = requests_from_env(160);

  // --- Saturation: CSR-only vs tuned dispatch on the irregular slice. ---
  serve::MatrixPool pool(testbed::suite_scale_from_env());
  Table saturation("irregular slice {26,27}, matrix-aware, backlog drain");
  saturation.set_header(
      {"dispatch", "req/s", "p95 [ms]", "p99 [ms]", "jobs", "explored", "tune hits"});
  double p95_untuned = 0.0;
  double p95_tuned = 0.0;
  for (const bool autotune : {false, true}) {
    const auto result = drain_backlog(pool, autotune, request_count);
    (autotune ? p95_tuned : p95_untuned) = result.latency_total.p95;
    saturation.add_row({autotune ? "tuned" : "csr-only",
                        Table::num(result.throughput_rps, 1),
                        Table::num(result.latency_total.p95 * 1e3, 3),
                        Table::num(result.latency_total.p99 * 1e3, 3),
                        Table::integer(static_cast<long long>(result.jobs.size())),
                        Table::integer(static_cast<long long>(result.tuning.explored)),
                        Table::integer(static_cast<long long>(result.tuning.cache_hits))});
  }
  reporter.emit(saturation, "autotune_saturation");

  // --- Shared-cache reuse: a second tuner re-decides for free. ---
  tune::AutotuneConfig tuning;
  tune::Autotuner second(sim::EngineConfig{}, tuning, pool.tuning_cache(tuning.cache),
                         pool.run_cache());
  for (const int id : kIrregularMix) second.decide(pool.entry(id).matrix, id);
  const tune::Autotuner::Counters reuse = second.counters();

  // --- Determinism: the decision log across threads x run-cache modes. ---
  // `hw` is whatever the environment would use (SCC_SIM_THREADS or the
  // hardware concurrency); the persisted variant prices one cold pass that
  // snapshots on pool destruction, then replays the log from the snapshot.
  common::set_sim_threads(0);
  const int hw_threads = common::sim_thread_count();
  const std::string snapshot =
      (std::filesystem::temp_directory_path() / "autotune_sweep_runcache.snap").string();
  std::filesystem::remove(snapshot);

  const std::string reference = decision_log_for(1, CacheMode::kOff, "");
  Table determinism("decision log vs reference (threads=1, run-cache off)");
  determinism.set_header({"threads", "run cache", "log bytes", "identical"});
  bool logs_identical = true;
  for (const int threads : {1, hw_threads}) {
    for (const CacheMode mode : {CacheMode::kOff, CacheMode::kOn, CacheMode::kPersisted}) {
      const std::string log =
          decision_log_for(threads, mode, mode == CacheMode::kPersisted ? snapshot : "");
      const bool same = log == reference;
      logs_identical = logs_identical && same;
      determinism.add_row(
          {Table::integer(threads),
           mode == CacheMode::kOff ? "off"
                                   : (mode == CacheMode::kOn ? "on" : "persisted"),
           Table::integer(static_cast<long long>(log.size())), same ? "yes" : "NO"});
    }
  }
  common::set_sim_threads(0);
  std::filesystem::remove(snapshot);
  reporter.emit(determinism, "autotune_determinism");

  const bool ok = reporter.check_claims({
      {"tuned dispatch lowers p95 at saturation on the irregular slice (bool)", 1.0,
       p95_tuned < p95_untuned ? 1.0 : 0.0, 0.0},
      {"decision log byte-identical across threads x run-cache modes (bool)", 1.0,
       logs_identical ? 1.0 : 0.0, 0.0},
      {"second tuner serves every decision from the shared cache (bool)", 1.0,
       reuse.cache_hits == static_cast<std::uint64_t>(kIrregularMix.size()) &&
               reuse.explored == 0 && reuse.predicted == 0
           ? 1.0
           : 0.0,
       0.0},
  });
  return reporter.finish(ok);
}
