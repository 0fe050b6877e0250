#include "cluster/simulator.hpp"

#include <iomanip>
#include <sstream>
#include <utility>

#include "cluster/serving_loop.hpp"
#include "common/error.hpp"

namespace scc::cluster {

std::string to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kPending:
      return "pending";
    case Outcome::kCompleted:
      return "completed";
    case Outcome::kRejected:
      return "rejected";
    case Outcome::kDeadLettered:
      return "dead-lettered";
  }
  return "unknown";
}

std::string describe(const LogEvent& event) {
  std::ostringstream oss;
  oss << "[t=" << std::fixed << std::setprecision(9) << event.seconds << "] chip "
      << event.chip << " " << event.kind;
  if (!event.detail.empty()) oss << ": " << event.detail;
  return oss.str();
}

ClusterSimulator::ClusterSimulator(ClusterConfig config, serve::MatrixPool& pool)
    : config_(std::move(config)),
      pool_(pool),
      model_(config_.chip.engine, pool, config_.chip.verify),
      oracle_(config_.faults) {
  SCC_REQUIRE(config_.chip_count >= 1, "chip_count must be >= 1");
  SCC_REQUIRE(config_.quarantine_threshold >= 0, "quarantine_threshold must be >= 0");
  SCC_REQUIRE(config_.retry.max_attempts >= 1, "retry.max_attempts must be >= 1");
  SCC_REQUIRE(config_.retry.base_backoff_seconds > 0.0 &&
                  config_.retry.backoff_multiplier >= 1.0 &&
                  config_.retry.jitter_fraction >= 0.0,
              "retry backoff parameters out of range");
  SCC_REQUIRE(config_.hedge.delay_seconds > 0.0, "hedge.delay_seconds must be positive");
  SCC_REQUIRE(config_.chip.sdc.empty(),
              "chip.sdc must be empty: cluster corruption comes from the fault plan "
              "(sdc_rate, sdc_sticky_rate, bad_dram), seeded per chip by the fault seed");
  if (config_.chip.autotune) {
    tuner_ = std::make_unique<tune::Autotuner>(config_.chip.engine, config_.chip.tuning,
                                               pool.tuning_cache(config_.chip.tuning.cache),
                                               pool.run_cache());
  }
}

ClusterResult ClusterSimulator::run(const std::vector<serve::Request>& requests,
                                    obs::Recorder* recorder) {
  metrics_ = std::make_unique<obs::Registry>();
  std::vector<integrity::SdcPlan> chip_sdc;
  for (int c = 0; c < config_.chip_count; ++c) chip_sdc.push_back(oracle_.chip_sdc(c));
  ServingLoop loop(config_, pool_, model_, oracle_, tuner_.get(), std::move(chip_sdc),
                   metrics_.get());
  ClusterResult result = loop.run(requests, recorder, /*observer=*/nullptr);
  result.records = loop.cluster_records();
  record_tuning_metrics(result.tuning, *metrics_);
  return result;
}

}  // namespace scc::cluster
