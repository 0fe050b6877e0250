#include "serve/service_model.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/types.hpp"
#include "scc/mapping.hpp"

namespace scc::serve {

/// CSR bytes a job must ship to its partition before the first product
/// (same formula as the engine's degraded-run re-ship accounting).
double csr_stream_bytes(const sparse::CsrMatrix& matrix) {
  return static_cast<double>(matrix.rows() + 1) * sizeof(nnz_t) +
         static_cast<double>(matrix.nnz()) * (sizeof(index_t) + sizeof(real_t));
}

namespace {

double load_seconds_of(const sparse::CsrMatrix& matrix, const std::vector<int>& cores,
                       const sim::Engine& engine) {
  // The load phase streams the CSR blocks in parallel through every MC the
  // partition touches, and is pure bandwidth (beta = 1).
  int mcs_used = 0;
  for (const auto& group : chip::cores_by_mc(cores)) {
    if (!group.empty()) ++mcs_used;
  }
  return csr_stream_bytes(matrix) /
         (engine.mc_bandwidth_bytes_per_second() * static_cast<double>(mcs_used));
}

/// Memory-bound fraction of the product: the busiest MC's bandwidth busy
/// time over the whole runtime, the share that degrades 1:1 under sharing.
double beta_of(const sim::RunResult& result, double product_seconds) {
  double max_mc_seconds = 0.0;
  for (const double s : result.mc_seconds) max_mc_seconds = std::max(max_mc_seconds, s);
  return product_seconds > 0.0 ? std::clamp(max_mc_seconds / product_seconds, 0.0, 1.0)
                               : 0.0;
}

/// SCC_RUN_CACHE=0 (or "off"/"false"/"no") disables engine-run memoization
/// without a rebuild -- the equivalence escape hatch.
bool run_cache_enabled_by_env() {
  const char* value = std::getenv("SCC_RUN_CACHE");
  if (value == nullptr) return true;
  const std::string_view v(value);
  return !(v == "0" || v == "off" || v == "false" || v == "no");
}

}  // namespace

MatrixPool::MatrixPool(double scale, const sim::RunCacheConfig& cache_config) : scale_(scale) {
  if (run_cache_enabled_by_env()) {
    run_cache_ = std::make_shared<sim::RunCache>(cache_config);
  }
}

MatrixPool::MatrixPool(double scale, NoCacheTag) : scale_(scale) {}

MatrixPool MatrixPool::without_run_cache(double scale) {
  return MatrixPool(scale, NoCacheTag{});
}

const std::shared_ptr<tune::TuningCache>& MatrixPool::tuning_cache(
    const tune::TuningCacheConfig& config) {
  if (tuning_cache_ == nullptr) {
    tuning_cache_ = std::make_shared<tune::TuningCache>(config);
  }
  return tuning_cache_;
}

const testbed::SuiteEntry& MatrixPool::entry(int id) {
  const auto it = entries_.find(id);
  if (it != entries_.end()) return it->second;
  return entries_.emplace(id, testbed::build_entry(id, scale_)).first->second;
}

namespace {

sim::EngineConfig cold_config(sim::EngineConfig config) {
  config.measure_steady_state = false;
  return config;
}

}  // namespace

ServiceModel::ServiceModel(const sim::EngineConfig& config, MatrixPool& pool,
                           integrity::VerifyMode verify)
    : engine_(config), cold_engine_(cold_config(config)), pool_(pool), verify_(verify) {
  engine_.attach_run_cache(pool.run_cache());
  cold_engine_.attach_run_cache(pool.run_cache());
}

sim::RunSpec ServiceModel::job_spec(const std::vector<int>& cores, int killed_core,
                                    const JobPlan& plan, integrity::VerifyMode verify) {
  sim::RunSpec spec;
  spec.verify = verify;
  if (killed_core < 0) {
    spec.cores = cores;
    spec.format = plan.format;
    spec.reorder = plan.reorder;
    return spec;
  }
  // Degraded jobs always price as CSR: the recovery protocol re-ships CSR
  // row blocks, so a tuned plan is dropped when a tile dies mid-job.
  SCC_REQUIRE(plan == JobPlan{}, "a tuned plan cannot compose with a killed core");
  const auto pos = std::find(cores.begin(), cores.end(), killed_core);
  SCC_REQUIRE(pos != cores.end(), "killed core " << killed_core << " not in the job's set");
  // Rank 0 owns the matrix and must survive in the degraded protocol; when
  // the dead tile sits at rank 0, hand ownership to the last rank by
  // swapping them (the survivor set -- hence the timing -- is unchanged).
  std::vector<int> ranked = cores;
  auto dead_index = static_cast<std::size_t>(pos - cores.begin());
  if (dead_index == 0) {
    std::swap(ranked.front(), ranked.back());
    dead_index = ranked.size() - 1;
  }
  spec.cores = std::move(ranked);
  spec.dead_ranks = {static_cast<int>(dead_index)};
  return spec;
}

const JobTiming& ServiceModel::timing(int matrix_id, const std::vector<int>& cores) {
  return timing(matrix_id, cores, JobPlan{});
}

const JobTiming& ServiceModel::timing(int matrix_id, const std::vector<int>& cores,
                                      const JobPlan& plan) {
  const auto key = std::make_tuple(matrix_id, cores, -1, false, static_cast<int>(plan.format),
                                   static_cast<int>(plan.reorder));
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  const testbed::SuiteEntry& entry = pool_.entry(matrix_id);
  const sim::RunResult result = engine_.run(entry.matrix, job_spec(cores, -1, plan, verify_));

  JobTiming timing;
  timing.product_seconds = result.seconds;
  // The load phase streams the matrix's CSR blocks whatever the compute
  // format (the pool stores CSR; conversion happens on-core), so a tuned
  // plan changes only the product pricing.
  timing.load_seconds = load_seconds_of(entry.matrix, cores, engine_);
  timing.beta = beta_of(result, result.seconds);
  return cache_.emplace(key, timing).first->second;
}

const JobTiming& ServiceModel::cold_timing(int matrix_id, const std::vector<int>& cores) {
  return cold_timing(matrix_id, cores, JobPlan{});
}

const JobTiming& ServiceModel::cold_timing(int matrix_id, const std::vector<int>& cores,
                                           const JobPlan& plan) {
  const auto key = std::make_tuple(matrix_id, cores, -1, true, static_cast<int>(plan.format),
                                   static_cast<int>(plan.reorder));
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  const testbed::SuiteEntry& entry = pool_.entry(matrix_id);
  const sim::RunResult result =
      cold_engine_.run(entry.matrix, job_spec(cores, -1, plan, verify_));

  JobTiming timing;
  timing.product_seconds = result.seconds;
  timing.load_seconds = load_seconds_of(entry.matrix, cores, cold_engine_);
  timing.beta = beta_of(result, result.seconds);
  return cache_.emplace(key, timing).first->second;
}

double ServiceModel::reship_bytes(int matrix_id) {
  return csr_stream_bytes(pool_.entry(matrix_id).matrix);
}

double ServiceModel::reship_seconds(int matrix_id, double link_bandwidth_fraction) {
  SCC_REQUIRE(link_bandwidth_fraction > 0.0,
              "reship link bandwidth fraction must be positive");
  return reship_bytes(matrix_id) /
         (engine_.mc_bandwidth_bytes_per_second() * link_bandwidth_fraction);
}

const JobTiming& ServiceModel::degraded_timing(int matrix_id, const std::vector<int>& cores,
                                               int killed_core) {
  SCC_REQUIRE(cores.size() >= 2, "a one-core job cannot survive its only tile");
  const auto key = std::make_tuple(matrix_id, cores, killed_core, false, 0, 0);
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  const testbed::SuiteEntry& entry = pool_.entry(matrix_id);
  const sim::RunResult result =
      engine_.run(entry.matrix, job_spec(cores, killed_core, {}, verify_));

  JobTiming timing;
  // result.seconds folds the recovery in; split it back out so callers can
  // scale a partially-done product without double-charging the recovery.
  timing.recovery_seconds = result.recovery_seconds;
  timing.product_seconds = result.seconds - result.recovery_seconds;
  timing.load_seconds = load_seconds_of(entry.matrix, cores, engine_);
  timing.beta = beta_of(result, timing.product_seconds);
  return cache_.emplace(key, timing).first->second;
}

}  // namespace scc::serve
