// Tests of the multi-chip cluster serving layer (src/cluster): the seeded
// fault oracle, the heartbeat failure detector and circuit breaker, the
// failover router, and the end-to-end simulator invariants -- most
// importantly that a zero-fault single-chip cluster replays the single-chip
// serve simulator bit-for-bit, that identical seeds replay the fault log
// byte-for-byte, and that failover keeps availability through injected
// crashes where the failover-off baseline loses requests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/fault_plan.hpp"
#include "cluster/health.hpp"
#include "cluster/report.hpp"
#include "cluster/router.hpp"
#include "cluster/simulator.hpp"
#include "obs/report.hpp"
#include "scc/topology.hpp"
#include "serve/loadgen.hpp"
#include "serve/simulator.hpp"

namespace scc::cluster {
namespace {

constexpr double kTestScale = 0.05;

serve::WorkloadSpec small_workload(int count, double rps) {
  serve::WorkloadSpec spec;
  spec.seed = 42;
  spec.request_count = count;
  spec.offered_rps = rps;
  return spec;
}

/// SLOs no virtual-time run can miss: latency/conservation claims should
/// not be polluted by deadline expiry unless a test asks for it.
serve::WorkloadSpec relaxed(serve::WorkloadSpec spec) {
  spec.slo_interactive_seconds = 1e6;
  spec.slo_batch_seconds = 1e6;
  return spec;
}

// --- fault oracle ---

TEST(ClusterFaultOracle, ExplicitCrashesKeepEveryEventSortedByTime) {
  // Re-admission makes repeat crashes on one chip meaningful (crash ->
  // restart -> crash again), so the oracle keeps every in-range event
  // instead of deduplicating to the earliest per chip.
  FaultPlan plan;
  plan.chip_crashes = {{1, 0.5}, {0, 0.2}, {1, 0.1}, {7, 0.3}};
  const FaultOracle oracle(plan);
  const auto crashes = oracle.crashes(/*chip_count=*/4);  // chip 7 out of range
  ASSERT_EQ(crashes.size(), 3u);
  EXPECT_EQ(crashes[0].chip, 1);
  EXPECT_DOUBLE_EQ(crashes[0].seconds, 0.1);
  EXPECT_EQ(crashes[1].chip, 0);
  EXPECT_DOUBLE_EQ(crashes[1].seconds, 0.2);
  EXPECT_EQ(crashes[2].chip, 1);
  EXPECT_DOUBLE_EQ(crashes[2].seconds, 0.5);
}

TEST(ClusterFaultOracle, FlapsExpandToPeriodicCrashes) {
  FaultPlan plan;
  plan.chip_flaps = {{/*chip=*/2, /*start_seconds=*/0.1, /*cycles=*/3,
                      /*period_seconds=*/0.05}};
  const FaultOracle oracle(plan);
  const auto crashes = oracle.crashes(4);
  ASSERT_EQ(crashes.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(crashes[k].chip, 2);
    EXPECT_DOUBLE_EQ(crashes[k].seconds, 0.1 + static_cast<double>(k) * 0.05);
  }
}

TEST(ClusterFaultOracle, DomainEventsExpandToEveryChipOfTheDomain) {
  FaultPlan plan;
  plan.chips_per_domain = 2;
  plan.domain_outages = {{/*domain=*/1, /*seconds=*/0.3}};
  plan.domain_brownouts = {{/*domain=*/0, 0.1, 0.2, /*derate=*/3.0}};

  EXPECT_EQ(domain_chips(plan, 1, /*chip_count=*/6), (std::vector<int>{2, 3}));
  EXPECT_EQ(domain_chips(plan, 0, 3), (std::vector<int>{0, 1}));
  EXPECT_TRUE(domain_chips(plan, 5, 6).empty());  // out of range

  const FaultOracle oracle(plan);
  const auto crashes = oracle.crashes(6);
  ASSERT_EQ(crashes.size(), 2u);
  EXPECT_EQ(crashes[0].chip, 2);
  EXPECT_EQ(crashes[1].chip, 3);
  EXPECT_DOUBLE_EQ(crashes[0].seconds, 0.3);
  EXPECT_DOUBLE_EQ(crashes[1].seconds, 0.3);

  // The rack brownout derates every MC of chips 0 and 1.
  const auto windows = oracle.brownout_windows(6);
  ASSERT_EQ(windows.size(), 2u * chip::kMemoryControllerCount);
  std::set<std::pair<int, int>> sites;
  for (const auto& w : windows) {
    sites.insert({w.chip, w.mc});
    EXPECT_DOUBLE_EQ(w.start_seconds, 0.1);
    EXPECT_DOUBLE_EQ(w.duration_seconds, 0.2);
    EXPECT_DOUBLE_EQ(w.derate, 3.0);
  }
  EXPECT_EQ(sites.size(), windows.size());  // every (chip, mc) distinct
  for (const auto& [site_chip, site_mc] : sites) {
    EXPECT_TRUE(site_chip == 0 || site_chip == 1);
    EXPECT_GE(site_mc, 0);
    EXPECT_LT(site_mc, chip::kMemoryControllerCount);
  }
}

TEST(ClusterFaultOracle, RestartDowntimeIsSeededAndJittered) {
  FaultPlan plan;
  EXPECT_LE(FaultOracle(plan).restart_downtime(0, 0), 0.0);  // no re-admission

  plan.restart_downtime_seconds = 0.1;
  plan.restart_jitter_fraction = 0.5;
  const FaultOracle oracle(plan);
  const double first = oracle.restart_downtime(3, 0);
  EXPECT_GE(first, 0.1);
  EXPECT_LT(first, 0.15);
  EXPECT_EQ(oracle.restart_downtime(3, 0), first);           // pure
  EXPECT_NE(oracle.restart_downtime(3, 1), first);           // per incarnation
  EXPECT_NE(oracle.restart_downtime(4, 0), first);           // per chip
  EXPECT_EQ(FaultOracle(plan).restart_downtime(3, 0), first);  // seeded
}

TEST(ClusterFaultOracle, StochasticDrawsAreSeededAndOrderFree) {
  FaultPlan plan;
  plan.seed = 7;
  plan.crash_rate = 0.5;
  plan.crash_horizon_seconds = 2.0;
  plan.job_failure_rate = 0.3;
  const FaultOracle a(plan);
  const FaultOracle b(plan);
  EXPECT_EQ(a.crashes(16).size(), b.crashes(16).size());
  for (std::size_t i = 0; i < a.crashes(16).size(); ++i) {
    EXPECT_EQ(a.crashes(16)[i].chip, b.crashes(16)[i].chip);
    EXPECT_EQ(a.crashes(16)[i].seconds, b.crashes(16)[i].seconds);
  }
  // Query order must not matter (per-site hashing, no shared stream).
  EXPECT_EQ(a.job_fails(3, 9), b.job_fails(3, 9));
  EXPECT_EQ(a.job_fails(0, 0), b.job_fails(0, 0));
  EXPECT_EQ(a.jitter(5, 2), b.jitter(5, 2));
  int fails = 0;
  for (std::uint64_t ordinal = 0; ordinal < 200; ++ordinal) {
    fails += a.job_fails(1, ordinal) ? 1 : 0;
    const double j = a.jitter(static_cast<int>(ordinal), 1);
    EXPECT_GE(j, 0.0);
    EXPECT_LT(j, 1.0);
  }
  EXPECT_GT(fails, 30);  // ~60 expected at rate 0.3
  EXPECT_LT(fails, 100);
  plan.seed = 8;
  const FaultOracle c(plan);
  int differing = 0;
  for (std::uint64_t ordinal = 0; ordinal < 200; ++ordinal) {
    differing += a.job_fails(1, ordinal) != c.job_fails(1, ordinal) ? 1 : 0;
  }
  EXPECT_GT(differing, 0);
}

TEST(ClusterFaultOracle, RejectsBadPlans) {
  FaultPlan plan;
  plan.crash_rate = 1.5;
  EXPECT_THROW(FaultOracle{plan}, std::invalid_argument);
  plan = FaultPlan{};
  plan.brownouts.push_back(Brownout{0, 0, 0.0, 0.1, /*derate=*/0.5});
  EXPECT_THROW(FaultOracle{plan}, std::invalid_argument);
}

// --- failure detector + circuit breaker ---

TEST(ClusterHealth, DetectionDeadlinesQuantizeToHeartbeats) {
  DetectorConfig config;
  config.heartbeat_seconds = 0.01;
  config.suspect_after_missed = 2;
  config.dead_after_missed = 4;
  // Crash at 0.034: last heartbeat sent at 0.03.
  const auto deadlines = detection_deadlines(config, 0.034);
  EXPECT_DOUBLE_EQ(deadlines.suspect_seconds, 0.05);
  EXPECT_DOUBLE_EQ(deadlines.dead_seconds, 0.07);
  EXPECT_GE(deadlines.suspect_seconds, 0.034);  // never detect before the crash
  config.dead_after_missed = 2;  // must exceed suspect_after_missed
  EXPECT_THROW(detection_deadlines(config, 0.0), std::invalid_argument);
}

TEST(ClusterHealth, BreakerTripsAfterConsecutiveFailuresAndProbes) {
  BreakerConfig config;
  config.failure_threshold = 2;
  config.cooldown_seconds = 1.0;
  CircuitBreaker breaker(config);
  EXPECT_TRUE(breaker.allows(0.0));
  breaker.on_failure(0.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.on_success();  // success resets the consecutive count
  breaker.on_failure(0.1);
  breaker.on_failure(0.2);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trip_count(), 1);
  EXPECT_FALSE(breaker.allows(0.5));  // cooling down
  EXPECT_TRUE(breaker.allows(1.3));   // half-open probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.on_failure(1.4);  // failed probe re-opens immediately
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trip_count(), 2);
  EXPECT_TRUE(breaker.allows(2.5));
  breaker.on_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(ClusterHealth, RejoinDeadlinesQuantizeToHeartbeats) {
  DetectorConfig config;
  config.heartbeat_seconds = 0.01;
  config.rejoin_after_beats = 2;
  // Restart at 0.034: first beat at 0.04, second (promoting) beat at 0.05.
  EXPECT_DOUBLE_EQ(rejoin_deadline(config, 0.034), 0.05);
  // Restart exactly on a beat boundary: the first beat is strictly after.
  EXPECT_DOUBLE_EQ(rejoin_deadline(config, 0.03), 0.05);
  config.rejoin_after_beats = 1;
  EXPECT_DOUBLE_EQ(rejoin_deadline(config, 0.034), 0.04);
  // Promotion can never precede the restart.
  EXPECT_GT(rejoin_deadline(config, 0.0399), 0.0399);
  config.rejoin_after_beats = 0;
  EXPECT_THROW(rejoin_deadline(config, 0.0), std::invalid_argument);
}

TEST(ClusterHealth, HalfOpenAdmitsExactlyOneProbe) {
  BreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown_seconds = 1.0;
  CircuitBreaker breaker(config);
  breaker.on_failure(0.0);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  ASSERT_TRUE(breaker.allows(1.5));  // cooldown over: half-open, probe slot free
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.probe_in_flight());
  breaker.note_dispatch();  // the probe job goes out
  EXPECT_TRUE(breaker.probe_in_flight());
  // No second job while the probe's verdict is pending.
  EXPECT_FALSE(breaker.allows(1.6));
  EXPECT_FALSE(breaker.allows(100.0));

  breaker.on_success();  // probe verdict: close and clear the slot
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_FALSE(breaker.probe_in_flight());
  EXPECT_TRUE(breaker.allows(1.7));

  // Failed probe re-opens and clears the in-flight flag for the next probe.
  breaker.on_failure(2.0);
  ASSERT_TRUE(breaker.allows(3.5));
  breaker.note_dispatch();
  breaker.on_failure(3.6);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.probe_in_flight());
  EXPECT_TRUE(breaker.allows(4.8));  // next cooldown: probe slot free again
  EXPECT_FALSE(breaker.probe_in_flight());

  // note_dispatch outside half-open never claims a probe slot.
  breaker.on_success();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.note_dispatch();
  EXPECT_FALSE(breaker.probe_in_flight());
  EXPECT_TRUE(breaker.allows(5.0));
}

// --- router ---

ChipView view(int chip, HealthState health, int outstanding, bool has_matrix) {
  ChipView v;
  v.chip = chip;
  v.health = health;
  v.dispatchable = health != HealthState::kDead;
  v.outstanding = outstanding;
  v.has_matrix = has_matrix;
  return v;
}

TEST(ClusterRouter, PrefersLeastOutstandingHealthyChip) {
  const std::vector<ChipView> chips = {view(0, HealthState::kHealthy, 5, false),
                                       view(1, HealthState::kHealthy, 2, false),
                                       view(2, HealthState::kHealthy, 2, false)};
  EXPECT_EQ(route(chips, {}, RouterConfig{}), 1);  // ties: lowest id
  EXPECT_EQ(route(chips, {1}, RouterConfig{}), 2);
  EXPECT_EQ(route(chips, {1, 2}, RouterConfig{}), 0);
  EXPECT_EQ(route(chips, {0, 1, 2}, RouterConfig{}), -1);
}

TEST(ClusterRouter, MatrixAffinityWinsWithinSlack) {
  RouterConfig config;
  config.affinity_slack = 2;
  // The affine chip is 2 busier than the least loaded: still preferred.
  EXPECT_EQ(route({view(0, HealthState::kHealthy, 1, false),
                   view(1, HealthState::kHealthy, 3, true)},
                  {}, config),
            1);
  // 3 busier: affinity loses to load.
  EXPECT_EQ(route({view(0, HealthState::kHealthy, 1, false),
                   view(1, HealthState::kHealthy, 4, true)},
                  {}, config),
            0);
}

TEST(ClusterRouter, AvoidsSuspectDrainingAndDeadChips) {
  // A suspect chip is only routed to when no healthy chip remains.
  EXPECT_EQ(route({view(0, HealthState::kSuspect, 0, true),
                   view(1, HealthState::kHealthy, 9, false)},
                  {}, RouterConfig{}),
            1);
  EXPECT_EQ(route({view(0, HealthState::kSuspect, 0, true),
                   view(1, HealthState::kDead, 0, false)},
                  {}, RouterConfig{}),
            0);
  // Draining (open breaker) and dead chips are never targets.
  EXPECT_EQ(route({view(0, HealthState::kDraining, 0, true),
                   view(1, HealthState::kDead, 0, false)},
                  {}, RouterConfig{}),
            -1);
}

TEST(ClusterRouter, RejoiningChipsAreLastResortLikeSuspects) {
  // A chip on probation only wins when no fully healthy chip remains.
  EXPECT_EQ(route({view(0, HealthState::kRejoining, 0, true),
                   view(1, HealthState::kHealthy, 9, false)},
                  {}, RouterConfig{}),
            1);
  EXPECT_EQ(route({view(0, HealthState::kRejoining, 0, true),
                   view(1, HealthState::kDead, 0, false)},
                  {}, RouterConfig{}),
            0);
}

ChipView priced(int chip, int outstanding, bool has_matrix, double penalty) {
  ChipView v = view(chip, HealthState::kHealthy, outstanding, has_matrix);
  v.reship_penalty = penalty;
  return v;
}

TEST(ClusterRouter, PricedReshipWeighsWarmBusyAgainstColdIdleChips) {
  // Warm chip 3 requests deep vs idle cold chip whose re-ship costs the
  // equivalent of 5 queued requests: staying warm wins (3 < 0 + 5)...
  EXPECT_EQ(route({priced(0, 3, true, 5.0), priced(1, 0, false, 5.0)}, {},
                  RouterConfig{}),
            0);
  // ...but a cheap ship (1 request-equivalent) makes the idle chip win.
  EXPECT_EQ(route({priced(0, 3, true, 1.0), priced(1, 0, false, 1.0)}, {},
                  RouterConfig{}),
            1);
  // Equal scores tie-break toward the chip already holding the matrix.
  EXPECT_EQ(route({priced(0, 2, true, 2.0), priced(1, 0, false, 2.0)}, {},
                  RouterConfig{}),
            0);
  // The penalty is only charged to chips that must ship: two cold chips
  // with equal penalties reduce to least-outstanding.
  EXPECT_EQ(route({priced(0, 4, false, 3.0), priced(1, 1, false, 3.0)}, {},
                  RouterConfig{}),
            1);
}

// --- simulator ---

TEST(ClusterSimulator, ZeroFaultSingleChipReplaysServeSimulatorExactly) {
  serve::MatrixPool pool(kTestScale);
  // Backpressure-heavy workload so rejections must line up too.
  const serve::WorkloadSpec spec = small_workload(80, 8000.0);
  const auto requests = serve::generate_workload(spec);

  serve::ServeConfig chip_config;
  chip_config.admission.max_queue_depth = 16;
  serve::Simulator serve_sim(chip_config, pool);
  const auto serve_result = serve_sim.run(requests);

  ClusterConfig config;
  config.chip_count = 1;
  config.chip = chip_config;
  ClusterSimulator cluster_sim(config, pool);
  const auto cluster_result = cluster_sim.run(requests);

  EXPECT_TRUE(cluster_result.log.empty());
  EXPECT_EQ(cluster_result.completed, serve_result.completed);
  EXPECT_EQ(cluster_result.rejected, serve_result.rejected);
  EXPECT_EQ(cluster_result.deadline_expired, serve_result.deadline_expired);
  EXPECT_EQ(cluster_result.dead_lettered, serve_result.deadline_expired);
  // Bit-for-bit: the cluster's per-chip path must execute the exact same
  // double-precision event sequence as the serve simulator.
  EXPECT_EQ(cluster_result.makespan_seconds, serve_result.makespan_seconds);
  EXPECT_EQ(cluster_result.latency_total.mean, serve_result.latency_total.mean);
  EXPECT_EQ(cluster_result.latency_total.p99, serve_result.latency_total.p99);
  ASSERT_EQ(cluster_result.records.size(), serve_result.records.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& cluster_record = cluster_result.records[i];
    const auto& serve_record = serve_result.records[i];
    EXPECT_EQ(cluster_record.outcome == Outcome::kRejected, serve_record.rejected) << i;
    EXPECT_EQ(cluster_record.dead_letter_reason == "deadline_expired",
              serve_record.deadline_expired)
        << i;
    if (cluster_record.outcome == Outcome::kCompleted) {
      EXPECT_EQ(cluster_record.completion_seconds, serve_record.completion_seconds) << i;
      EXPECT_EQ(cluster_record.dispatch_seconds, serve_record.dispatch_seconds) << i;
      EXPECT_EQ(cluster_record.attempts, 1) << i;
    }
  }
}

ClusterConfig chaos_config() {
  ClusterConfig config;
  config.chip_count = 3;
  config.faults.seed = 0xc1a05;
  config.faults.chip_crashes = {{1, 0.04}};
  config.faults.tile_kills = {{0, 7, 0.03}, {2, 13, 0.05}};
  config.faults.brownouts = {{0, 1, 0.02, 0.08, 2.5}};
  config.faults.job_failure_rate = 0.15;
  return config;
}

TEST(ClusterSimulator, SameSeedReplaysFaultLogByteForByte) {
  serve::MatrixPool pool(kTestScale);
  const serve::WorkloadSpec spec = relaxed(small_workload(60, 2000.0));
  const auto requests = serve::generate_workload(spec);

  ClusterResult first;
  for (int round = 0; round < 2; ++round) {
    ClusterSimulator simulator(chaos_config(), pool);
    const auto result = simulator.run(requests);
    if (round == 0) {
      first = result;
      EXPECT_GT(first.log.size(), 0u);
      continue;
    }
    ASSERT_EQ(result.log.size(), first.log.size());
    for (std::size_t i = 0; i < result.log.size(); ++i) {
      EXPECT_EQ(describe(result.log[i]), describe(first.log[i])) << i;
    }
    EXPECT_EQ(result.makespan_seconds, first.makespan_seconds);
    EXPECT_EQ(result.latency_total.mean, first.latency_total.mean);
    EXPECT_EQ(result.latency_total.p50, first.latency_total.p50);
    EXPECT_EQ(result.latency_total.p99, first.latency_total.p99);
    EXPECT_EQ(result.completed, first.completed);
    EXPECT_EQ(result.retries, first.retries);
    EXPECT_EQ(result.failovers, first.failovers);
    ASSERT_EQ(result.records.size(), first.records.size());
    for (std::size_t i = 0; i < result.records.size(); ++i) {
      EXPECT_EQ(result.records[i].completion_seconds, first.records[i].completion_seconds);
      EXPECT_EQ(result.records[i].outcome, first.records[i].outcome);
      EXPECT_EQ(result.records[i].chip, first.records[i].chip);
    }
  }
}

TEST(ClusterSimulator, DifferentFaultSeedChangesTheSchedule) {
  serve::MatrixPool pool(kTestScale);
  const serve::WorkloadSpec spec = relaxed(small_workload(60, 2000.0));
  const auto requests = serve::generate_workload(spec);
  ClusterConfig config = chaos_config();
  ClusterSimulator a(config, pool);
  const auto result_a = a.run(requests);
  config.faults.seed = 0xc1a06;
  ClusterSimulator b(config, pool);
  const auto result_b = b.run(requests);
  // Same explicit faults, different stochastic job failures.
  EXPECT_NE(result_a.retries, result_b.retries);
}

TEST(ClusterSimulator, TileKillCompletesDegradedAndNeverEarlier) {
  serve::MatrixPool pool(kTestScale);
  serve::WorkloadSpec spec = relaxed(small_workload(1, 1000.0));
  spec.matrix_mix = {27};
  const auto requests = serve::generate_workload(spec);

  ClusterConfig config;
  config.chip_count = 1;
  config.chip.policy = serve::SchedulingPolicy::kFifoWholeChip;  // 48-core job
  ClusterSimulator healthy_sim(config, pool);
  const auto healthy = healthy_sim.run(requests);
  ASSERT_EQ(healthy.completed, 1);
  const double healthy_completion = healthy.records[0].completion_seconds;

  // Kill a core halfway through the (sole) job: the survivors redo the
  // product under the degraded protocol plus the recovery charge, so the
  // request still completes -- strictly later.
  config.faults.tile_kills = {{0, 7, healthy_completion * 0.5}};
  ClusterSimulator degraded_sim(config, pool);
  const auto degraded = degraded_sim.run(requests);
  ASSERT_EQ(degraded.completed, 1);
  EXPECT_EQ(degraded.tile_kills, 1);
  EXPECT_GT(degraded.records[0].completion_seconds, healthy_completion);
  ASSERT_EQ(degraded.chips.size(), 1u);
  EXPECT_EQ(degraded.chips[0].retired_cores, 1);
}

/// One burst of `count` requests: the cluster starts with a deep backlog
/// that drains over the whole makespan, so a crash placed mid-run is
/// guaranteed to catch queued and in-flight work.
std::vector<serve::Request> burst(int count) {
  return serve::generate_workload(relaxed(small_workload(count, 1e8)));
}

TEST(ClusterSimulator, FailoverRidesThroughChipCrashWithZeroLoss) {
  serve::MatrixPool pool(kTestScale);
  const auto requests = burst(60);

  ClusterConfig config;
  config.chip_count = 3;
  ClusterSimulator clean_sim(config, pool);
  const auto clean = clean_sim.run(requests);
  ASSERT_GT(clean.makespan_seconds, 0.0);

  config.faults.chip_crashes = {{0, clean.makespan_seconds * 0.3}};  // mid-backlog
  ClusterSimulator simulator(config, pool);
  const auto result = simulator.run(requests);

  EXPECT_EQ(result.chip_crashes, 1);
  EXPECT_EQ(result.dead_lettered, 0);  // generous SLOs: every loss recovers
  EXPECT_EQ(result.completed + result.rejected, 60);
  EXPECT_GT(result.failovers, 0);
  EXPECT_EQ(result.availability,
            static_cast<double>(result.completed) / 60.0);
  ASSERT_EQ(result.chips.size(), 3u);
  EXPECT_TRUE(result.chips[0].crashed);
  EXPECT_EQ(result.chips[0].state, HealthState::kDead);
}

TEST(ClusterSimulator, FailoverOffLosesTheCrashedChipsRequests) {
  serve::MatrixPool pool(kTestScale);
  const auto requests = burst(60);

  ClusterConfig config;
  config.chip_count = 3;
  config.failover = false;
  ClusterSimulator clean_sim(config, pool);
  const auto clean = clean_sim.run(requests);

  config.faults.chip_crashes = {{0, clean.makespan_seconds * 0.3}};
  ClusterSimulator simulator(config, pool);
  const auto result = simulator.run(requests);

  EXPECT_GT(result.dead_lettered, 0);
  EXPECT_EQ(result.retries, 0);
  EXPECT_EQ(result.failovers, 0);
  int chip_crashed_letters = 0;
  for (const auto& record : result.records) {
    if (record.outcome == Outcome::kDeadLettered) {
      EXPECT_EQ(record.dead_letter_reason, "chip_crashed");
      ++chip_crashed_letters;
    }
  }
  EXPECT_EQ(chip_crashed_letters, result.dead_lettered);
  EXPECT_EQ(result.completed + result.rejected + result.dead_lettered, 60);
  EXPECT_LT(result.availability, 1.0);
}

TEST(ClusterSimulator, PermanentFailuresExhaustRetriesAndTripBreakers) {
  serve::MatrixPool pool(kTestScale);
  const serve::WorkloadSpec spec = relaxed(small_workload(20, 1000.0));
  const auto requests = serve::generate_workload(spec);

  ClusterConfig config;
  config.chip_count = 2;
  config.faults.job_failure_rate = 1.0;  // every dispatched job fails
  // Retry fast enough that early retries beat the breakers tripping (the
  // late ones then exercise the all_chips_unroutable path).
  config.retry.base_backoff_seconds = 1e-6;
  ClusterSimulator simulator(config, pool);
  const auto result = simulator.run(requests);

  EXPECT_EQ(result.completed, 0);
  EXPECT_EQ(result.dead_lettered + result.rejected, 20);
  EXPECT_GT(result.retries, 0);
  EXPECT_GT(result.breaker_trips, 0);
  for (const auto& record : result.records) {
    if (record.outcome != Outcome::kDeadLettered) continue;
    EXPECT_TRUE(record.dead_letter_reason == "retries_exhausted" ||
                record.dead_letter_reason == "all_chips_unroutable" ||
                record.dead_letter_reason == "queue_full")
        << record.dead_letter_reason;
    EXPECT_LE(record.attempts, config.retry.max_attempts);
  }
}

TEST(ClusterSimulator, TightDeadlinesDeadLetterInsteadOfRetryingForever) {
  serve::MatrixPool pool(kTestScale);
  serve::WorkloadSpec spec = small_workload(30, 1e9);  // one burst
  spec.interactive_fraction = 1.0;
  spec.slo_interactive_seconds = 0.002;  // far below the backlog drain time
  const auto requests = serve::generate_workload(spec);

  ClusterConfig config;
  config.chip_count = 1;
  config.chip.policy = serve::SchedulingPolicy::kFifoWholeChip;
  ClusterSimulator simulator(config, pool);
  const auto result = simulator.run(requests);

  EXPECT_GT(result.deadline_expired, 0);
  int expiry_letters = 0;
  for (const auto& record : result.records) {
    if (record.dead_letter_reason == "deadline_expired") ++expiry_letters;
  }
  EXPECT_EQ(expiry_letters, result.deadline_expired);
  EXPECT_EQ(result.completed + result.rejected + result.dead_lettered, 30);
}

TEST(ClusterSimulator, BrownoutStretchesTheMakespan) {
  serve::MatrixPool pool(kTestScale);
  serve::WorkloadSpec spec = relaxed(small_workload(20, 2000.0));
  spec.interactive_fraction = 0.0;
  const auto requests = serve::generate_workload(spec);

  ClusterConfig config;
  config.chip_count = 1;
  config.hedge.enabled = false;
  ClusterSimulator clean_sim(config, pool);
  const auto clean = clean_sim.run(requests);
  ASSERT_EQ(clean.completed, 20);

  for (int mc = 0; mc < 4; ++mc) {
    config.faults.brownouts.push_back(Brownout{0, mc, 0.0, 1e3, /*derate=*/4.0});
  }
  ClusterSimulator slow_sim(config, pool);
  const auto slow = slow_sim.run(requests);
  ASSERT_EQ(slow.completed, 20);
  EXPECT_EQ(slow.brownouts, 4);
  EXPECT_GT(slow.makespan_seconds, clean.makespan_seconds);
}

TEST(ClusterSimulator, ReportValidatesAndMetricsAgree) {
  serve::MatrixPool pool(kTestScale);
  const serve::WorkloadSpec spec = relaxed(small_workload(40, 2000.0));
  const auto requests = serve::generate_workload(spec);

  const ClusterConfig config = chaos_config();
  ClusterSimulator simulator(config, pool);
  const auto result = simulator.run(requests);

  const obs::Json report = cluster_report_json(spec, config, result, &simulator.metrics());
  const auto problems = obs::validate_report(report);
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());

  const obs::Json& metrics = report.at("metrics");
  EXPECT_EQ(metrics.at("counters").at("cluster.requests_total").as_int(), 40);
  EXPECT_EQ(metrics.at("counters").at("cluster.completed_total").as_int(),
            static_cast<long long>(result.completed));
  EXPECT_EQ(metrics.at("counters").at("cluster.retries_total").as_int(),
            static_cast<long long>(result.retries));
  EXPECT_EQ(report.at("dead_letters").size(),
            static_cast<std::size_t>(result.dead_lettered));
  EXPECT_EQ(report.at("fault_log").size(), result.log.size());
  EXPECT_EQ(report.at("chips").size(), 3u);
}

TEST(ClusterSimulator, StochasticChaosConservesEveryRequest) {
  serve::MatrixPool pool(kTestScale);
  const serve::WorkloadSpec spec = relaxed(small_workload(50, 2000.0));
  const auto requests = serve::generate_workload(spec);

  ClusterConfig config;
  config.chip_count = 4;
  config.faults.seed = 0xbad;
  config.faults.crash_rate = 0.3;
  config.faults.crash_horizon_seconds = 0.1;
  config.faults.job_failure_rate = 0.2;
  ClusterSimulator simulator(config, pool);
  // run() itself asserts completed + rejected + dead_lettered == injected
  // and that every dead letter carries a terminal reason.
  const auto result = simulator.run(requests);
  EXPECT_EQ(result.completed + result.rejected + result.dead_lettered, 50);
  EXPECT_GE(result.availability, 0.0);
  EXPECT_LE(result.availability, 1.0);
  EXPECT_LE(result.hedge_wins, result.hedges);
}

// --- re-admission, placement, correlated domains ---

int count_kind(const ClusterResult& result, const std::string& kind) {
  int count = 0;
  for (const auto& event : result.log) count += event.kind == kind ? 1 : 0;
  return count;
}

/// First log time of `kind`, or -1 when absent.
double first_time(const ClusterResult& result, const std::string& kind) {
  for (const auto& event : result.log) {
    if (event.kind == kind) return event.seconds;
  }
  return -1.0;
}

/// Clean two-chip makespan for self-calibrating fault placement: every
/// recovery test scales its detector and fault times off this, so the
/// assertions hold at any SCC_TESTBED_SCALE.
double clean_makespan(serve::MatrixPool& pool, int chips, int requests) {
  ClusterConfig config;
  config.chip_count = chips;
  ClusterSimulator simulator(config, pool);
  return simulator.run(burst(requests)).makespan_seconds;
}

TEST(ClusterSimulator, RestartedChipRejoinsServesColdThenConverges) {
  serve::MatrixPool pool(kTestScale);
  const double mk = clean_makespan(pool, 2, 120);
  ASSERT_GT(mk, 0.0);

  // Paced arrivals over ~1.5x the two-chip burst makespan: the stream is
  // still flowing when the chip rejoins (a pure burst would already be
  // queued elsewhere), and one chip alone cannot keep up, so the rejoined
  // chip must actually take traffic again.
  const double span = 1.5 * mk;
  serve::WorkloadSpec spec = relaxed(small_workload(120, 120.0 / span));
  const auto requests = serve::generate_workload(spec);

  ClusterConfig config;
  config.chip_count = 2;
  config.detector.heartbeat_seconds = mk / 50.0;  // deadlines scale with load
  config.faults.chip_crashes = {{0, span * 0.3}};
  config.faults.restart_downtime_seconds = span * 0.2;  // restart after "dead"
  config.faults.restart_jitter_fraction = 0.25;
  ClusterSimulator simulator(config, pool);
  const auto result = simulator.run(requests);

  // Full lifecycle in order: crash -> suspect -> dead -> restart -> rejoined.
  const double crash_t = first_time(result, "chip_crash");
  const double suspect_t = first_time(result, "chip_suspect");
  const double dead_t = first_time(result, "chip_dead");
  const double restart_t = first_time(result, "chip_restart");
  const double rejoin_t = first_time(result, "chip_rejoined");
  ASSERT_GE(crash_t, 0.0);
  ASSERT_GE(restart_t, 0.0);
  ASSERT_GE(rejoin_t, 0.0);
  EXPECT_LT(crash_t, suspect_t);
  EXPECT_LT(suspect_t, dead_t);
  EXPECT_LT(dead_t, restart_t);
  EXPECT_LT(restart_t, rejoin_t);

  EXPECT_EQ(result.restarts, 1);
  EXPECT_EQ(result.rejoins, 1);
  ASSERT_EQ(result.chips.size(), 2u);
  EXPECT_FALSE(result.chips[0].crashed);  // back in service at end of run
  EXPECT_EQ(result.chips[0].state, HealthState::kHealthy);
  EXPECT_EQ(result.chips[0].restarts, 1);

  // The restart dropped chip 0's placement, so serving it again re-ships
  // matrices and pays the cold-cache warm-up transient.
  EXPECT_GT(result.reships, 0);
  EXPECT_GT(result.reship_bytes, 0.0);
  EXPECT_GT(result.cold_runs, 0);
  int served_after_rejoin = 0;
  for (const auto& record : result.records) {
    if (record.outcome == Outcome::kCompleted && record.chip == 0 &&
        record.dispatch_seconds >= restart_t) {
      ++served_after_rejoin;
    }
  }
  EXPECT_GT(served_after_rejoin, 0);

  // Conservation with zero loss: generous SLOs and failover recover it all.
  EXPECT_EQ(result.dead_lettered, 0);
  EXPECT_EQ(result.completed + result.rejected, 120);
}

TEST(ClusterSimulator, RestartBeforeDeadEvacuatesWithoutDeclaringDeath) {
  serve::MatrixPool pool(kTestScale);
  const auto requests = burst(100);
  const double mk = clean_makespan(pool, 2, 100);

  ClusterConfig config;
  config.chip_count = 2;
  const double hb = mk / 50.0;
  config.detector.heartbeat_seconds = hb;
  const double crash_at = mk * 0.25;
  config.faults.chip_crashes = {{0, crash_at}};
  // Restart lands between the suspect (~2 beats) and dead (~4 beats)
  // deadlines: the chip comes back before the detector buries it, yet its
  // lost work must still be evacuated exactly once.
  config.faults.chip_restarts = {{0, crash_at + 3.0 * hb}};
  ClusterSimulator simulator(config, pool);
  const auto result = simulator.run(requests);

  EXPECT_EQ(count_kind(result, "chip_crash"), 1);
  EXPECT_EQ(count_kind(result, "chip_dead"), 0);  // never declared dead
  EXPECT_EQ(result.restarts, 1);
  EXPECT_EQ(result.rejoins, 1);
  EXPECT_EQ(result.dead_lettered, 0);
  EXPECT_EQ(result.completed + result.rejected, 100);
  EXPECT_EQ(result.chips[0].state, HealthState::kHealthy);
}

TEST(ClusterSimulator, CrashDuringProbationSuppressesRejoin) {
  serve::MatrixPool pool(kTestScale);
  const auto requests = burst(120);
  const double mk = clean_makespan(pool, 2, 120);

  ClusterConfig config;
  config.chip_count = 2;
  const double hb = mk / 50.0;
  config.detector.heartbeat_seconds = hb;
  const double first_crash = mk * 0.2;
  const double first_restart = first_crash + 10.0 * hb;  // well past "dead"
  // Second crash one beat after the restart: inside the two-beat probation
  // window, so the pending rejoin must be discarded, not fired.
  const double second_crash = first_restart + 1.0 * hb;
  const double second_restart = second_crash + 10.0 * hb;
  config.faults.chip_crashes = {{0, first_crash}, {0, second_crash}};
  config.faults.chip_restarts = {{0, first_restart}, {0, second_restart}};
  ClusterSimulator simulator(config, pool);
  const auto result = simulator.run(requests);

  EXPECT_EQ(result.chip_crashes, 2);
  EXPECT_EQ(result.restarts, 2);
  EXPECT_EQ(result.rejoins, 1);  // only the second probation completes
  EXPECT_EQ(count_kind(result, "chip_rejoined"), 1);
  EXPECT_GT(first_time(result, "chip_rejoined"), second_restart);
  EXPECT_EQ(result.dead_lettered, 0);
  EXPECT_EQ(result.completed + result.rejected, 120);
  EXPECT_EQ(result.chips[0].restarts, 2);
}

TEST(ClusterSimulator, FlappingChipSurvivesRepeatedCrashRejoinCycles) {
  serve::MatrixPool pool(kTestScale);
  const auto requests = burst(120);
  const double mk = clean_makespan(pool, 2, 120);

  ClusterConfig config;
  config.chip_count = 2;
  config.detector.heartbeat_seconds = mk / 50.0;
  config.faults.chip_flaps = {{/*chip=*/0, /*start=*/mk * 0.15, /*cycles=*/3,
                               /*period=*/mk * 0.15}};
  config.faults.restart_downtime_seconds = mk * 0.05;
  config.faults.restart_jitter_fraction = 0.0;
  ClusterSimulator simulator(config, pool);
  const auto result = simulator.run(requests);

  // Every flap cycle lands on a live chip (downtime < period), so each one
  // crashes and each crash schedules a restart.
  EXPECT_EQ(result.chip_crashes, 3);
  EXPECT_EQ(result.restarts, 3);
  EXPECT_GE(result.rejoins, 1);
  EXPECT_EQ(result.dead_lettered, 0);
  EXPECT_EQ(result.completed + result.rejected, 120);
}

TEST(ClusterSimulator, DomainOutageKillsTheWholeDomainConservationHolds) {
  serve::MatrixPool pool(kTestScale);
  const auto requests = burst(80);
  const double mk = clean_makespan(pool, 4, 80);

  ClusterConfig config;
  config.chip_count = 4;
  config.faults.chips_per_domain = 2;
  config.faults.domain_outages = {{/*domain=*/0, mk * 0.3}};
  ClusterSimulator simulator(config, pool);
  const auto result = simulator.run(requests);

  EXPECT_EQ(result.domain_outages, 1);
  EXPECT_EQ(result.chip_crashes, 2);  // chips 0 and 1, same instant
  EXPECT_EQ(count_kind(result, "domain_outage"), 1);
  ASSERT_EQ(result.chips.size(), 4u);
  EXPECT_TRUE(result.chips[0].crashed);
  EXPECT_TRUE(result.chips[1].crashed);
  EXPECT_FALSE(result.chips[2].crashed);
  EXPECT_FALSE(result.chips[3].crashed);
  // The domain marker logs before its per-chip crashes, with no chip id.
  for (const auto& event : result.log) {
    if (event.kind != "domain_outage") continue;
    EXPECT_EQ(event.chip, -1);
    EXPECT_NE(event.detail.find("chips 0 1"), std::string::npos) << event.detail;
  }
  EXPECT_LE(first_time(result, "domain_outage"), first_time(result, "chip_crash"));
  // Half the fleet died at once and nothing was lost.
  EXPECT_EQ(result.dead_lettered, 0);
  EXPECT_EQ(result.completed + result.rejected, 80);
}

TEST(ClusterSimulator, PlacementPricesReshipAndFreeModeDoesNot) {
  serve::MatrixPool pool(kTestScale);
  const auto requests = burst(60);

  ClusterConfig config;
  config.chip_count = 2;
  ClusterSimulator priced_sim(config, pool);
  const auto priced = priced_sim.run(requests);

  // Default single-replica placement splits the pool across the two chips,
  // so load balancing must ship matrices and pay cold warm-up runs.
  EXPECT_GT(priced.reships, 0);
  EXPECT_GT(priced.reship_bytes, 0.0);
  EXPECT_GT(priced.cold_runs, 0);
  EXPECT_EQ(count_kind(priced, "reship"), priced.reships);
  int reshipped_records = 0, cold_records = 0;
  for (const auto& record : priced.records) {
    reshipped_records += record.reshipped ? 1 : 0;
    cold_records += record.cold ? 1 : 0;
  }
  EXPECT_GT(reshipped_records, 0);
  EXPECT_GE(cold_records, reshipped_records);  // warm-up covers >= the ship run
  int chip_reships = 0, chip_cold = 0;
  double chip_bytes = 0.0;
  for (const auto& chip : priced.chips) {
    chip_reships += chip.reships;
    chip_cold += chip.cold_runs;
    chip_bytes += chip.reship_bytes;
    // Resident sets grew monotonically from the initial split: sorted ids.
    EXPECT_FALSE(chip.placement.empty());
    EXPECT_TRUE(std::is_sorted(chip.placement.begin(), chip.placement.end()));
  }
  EXPECT_EQ(chip_reships, priced.reships);
  EXPECT_EQ(chip_cold, priced.cold_runs);
  EXPECT_DOUBLE_EQ(chip_bytes, priced.reship_bytes);

  // replicas <= 0 is the legacy free-data model: everything everywhere.
  config.placement.replicas = 0;
  ClusterSimulator free_sim(config, pool);
  const auto free_model = free_sim.run(requests);
  EXPECT_EQ(free_model.reships, 0);
  EXPECT_EQ(free_model.cold_runs, 0);
  EXPECT_EQ(free_model.reship_bytes, 0.0);
  for (const auto& record : free_model.records) {
    EXPECT_FALSE(record.reshipped);
    EXPECT_FALSE(record.cold);
  }
  EXPECT_EQ(free_model.completed + free_model.rejected, 60);
  EXPECT_EQ(priced.completed + priced.rejected, 60);
}

TEST(ClusterSimulator, RecoveryReplayIsByteIdenticalAcrossThreadsAndCache) {
  const auto requests = burst(100);

  // One scenario exercising everything at once: a lone crash with automatic
  // re-admission, a correlated domain outage, priced re-ship, cold runs.
  const auto scenario = [&](double mk) {
    ClusterConfig config;
    config.chip_count = 3;
    config.detector.heartbeat_seconds = mk / 50.0;
    config.faults.chips_per_domain = 2;
    config.faults.chip_crashes = {{2, mk * 0.2}};
    config.faults.domain_outages = {{0, mk * 0.5}};
    config.faults.restart_downtime_seconds = mk * 0.15;
    config.faults.job_failure_rate = 0.05;
    return config;
  };

  struct Replay {
    std::vector<std::string> log;
    double makespan = 0.0;
    int completed = 0, restarts = 0, rejoins = 0, reships = 0, cold_runs = 0;
  };
  const auto run_once = [&](int threads, bool run_cache) {
    setenv("SCC_SIM_THREADS", std::to_string(threads).c_str(), 1);
    serve::MatrixPool pool = run_cache ? serve::MatrixPool(kTestScale)
                                       : serve::MatrixPool::without_run_cache(kTestScale);
    const double mk = clean_makespan(pool, 3, 100);
    ClusterSimulator simulator(scenario(mk), pool);
    const auto result = simulator.run(requests);
    unsetenv("SCC_SIM_THREADS");
    Replay replay;
    for (const auto& event : result.log) replay.log.push_back(describe(event));
    replay.makespan = result.makespan_seconds;
    replay.completed = result.completed;
    replay.restarts = result.restarts;
    replay.rejoins = result.rejoins;
    replay.reships = result.reships;
    replay.cold_runs = result.cold_runs;
    return replay;
  };

  const Replay base = run_once(1, true);
  EXPECT_GT(base.restarts, 0);  // scenario actually exercises re-admission
  EXPECT_GT(base.reships, 0);
  for (const auto& [threads, cache] :
       std::vector<std::pair<int, bool>>{{1, false}, {4, true}, {4, false}}) {
    const Replay other = run_once(threads, cache);
    ASSERT_EQ(other.log.size(), base.log.size()) << threads << " " << cache;
    for (std::size_t i = 0; i < base.log.size(); ++i) {
      EXPECT_EQ(other.log[i], base.log[i]) << i;
    }
    EXPECT_EQ(other.makespan, base.makespan);
    EXPECT_EQ(other.completed, base.completed);
    EXPECT_EQ(other.restarts, base.restarts);
    EXPECT_EQ(other.rejoins, base.rejoins);
    EXPECT_EQ(other.reships, base.reships);
    EXPECT_EQ(other.cold_runs, base.cold_runs);
  }
}

// --- silent data corruption, ABFT classification, quarantine ---

TEST(ClusterFaultOracle, ChipSdcMergesFleetAndBadDramRates) {
  FaultPlan plan;
  plan.seed = 5;
  plan.sdc_rate = 0.05;
  plan.sdc_sticky_rate = 0.1;
  plan.bad_dram = {{/*chip=*/1, /*rate=*/0.2, /*sticky_rate=*/0.85},
                   {/*chip=*/2, /*rate=*/0.99, /*sticky_rate=*/0.99}};
  const FaultOracle oracle(plan);

  const integrity::SdcPlan healthy = oracle.chip_sdc(0);
  EXPECT_DOUBLE_EQ(healthy.rate, 0.05);
  EXPECT_DOUBLE_EQ(healthy.sticky_rate, 0.1);
  const integrity::SdcPlan bad = oracle.chip_sdc(1);
  EXPECT_DOUBLE_EQ(bad.rate, 0.25);
  EXPECT_DOUBLE_EQ(bad.sticky_rate, 0.95);
  const integrity::SdcPlan clamped = oracle.chip_sdc(2);
  EXPECT_DOUBLE_EQ(clamped.rate, 1.0);  // 0.99 + 0.05 clamps
  EXPECT_DOUBLE_EQ(clamped.sticky_rate, 1.0);
  // Chips draw independent corruption streams off the plan seed.
  EXPECT_NE(oracle.chip_sdc(0).seed, oracle.chip_sdc(1).seed);

  plan.bad_dram = {{0, 2.0, 0.5}};
  EXPECT_THROW(FaultOracle{plan}, std::invalid_argument);
  plan.bad_dram.clear();
  plan.sdc_rate = 1.5;
  EXPECT_THROW(FaultOracle{plan}, std::invalid_argument);
}

TEST(ClusterSimulator, QuarantineIsolatesTheBadDramChip) {
  serve::MatrixPool pool(kTestScale);
  const auto requests = burst(60);

  ClusterConfig config;
  config.chip_count = 3;
  config.chip.verify = integrity::VerifyMode::kCorrect;
  config.quarantine_threshold = 3;
  config.faults.bad_dram = {{/*chip=*/1, /*rate=*/1.0, /*sticky_rate=*/1.0}};
  ClusterSimulator simulator(config, pool);
  const auto result = simulator.run(requests);

  // Chip 1 corrupts every product and its recomputes are corrupted again,
  // so the detection ledger crosses the threshold fast and the chip is
  // withdrawn for good.
  EXPECT_EQ(result.quarantines, 1);
  EXPECT_EQ(count_kind(result, "chip_quarantine"), 1);
  ASSERT_EQ(result.chips.size(), 3u);
  EXPECT_TRUE(result.chips[1].quarantined);
  EXPECT_EQ(result.chips[1].state, HealthState::kQuarantined);
  EXPECT_GE(result.chips[1].sdc_detected, 3);
  EXPECT_GT(result.sdc_unrecoverable, 0);

  // Verify-on never delivers a wrong product -- not from the bad chip, not
  // from anywhere.
  EXPECT_EQ(result.sdc_escapes, 0);
  EXPECT_EQ(result.chips[0].sdc_detected, 0);  // healthy chips stay clean
  EXPECT_EQ(result.chips[2].sdc_detected, 0);

  // After the quarantine instant chip 1 takes no new work.
  const double quarantine_t = first_time(result, "chip_quarantine");
  ASSERT_GE(quarantine_t, 0.0);
  for (const auto& record : result.records) {
    if (record.outcome == Outcome::kCompleted && record.chip == 1) {
      EXPECT_LE(record.dispatch_seconds, quarantine_t);
    }
    if (record.outcome == Outcome::kDeadLettered &&
        record.dead_letter_reason == "sdc_unrecoverable") {
      EXPECT_EQ(record.chip, 1);
    }
  }
  EXPECT_EQ(result.completed + result.rejected + result.dead_lettered, 60);
}

TEST(ClusterSimulator, DetectModeReroutesCorruptedBatchesToCleanReplicas) {
  serve::MatrixPool pool(kTestScale);
  const auto requests = burst(40);

  ClusterConfig config;
  config.chip_count = 2;
  config.chip.verify = integrity::VerifyMode::kDetect;
  config.quarantine_threshold = 0;  // isolate the reroute path itself
  config.faults.bad_dram = {{/*chip=*/0, /*rate=*/1.0, /*sticky_rate=*/0.0}};
  ClusterSimulator simulator(config, pool);
  const auto result = simulator.run(requests);

  // Detect mode never recomputes in place: every caught corruption reroutes
  // the batch, so all completions come from the clean replica.
  EXPECT_GT(result.sdc_detected, 0);
  EXPECT_EQ(result.sdc_corrected, 0);
  EXPECT_GT(result.failovers, 0);
  EXPECT_EQ(result.sdc_escapes, 0);
  EXPECT_EQ(result.quarantines, 0);
  EXPECT_GT(result.completed, 0);
  for (const auto& record : result.records) {
    if (record.outcome == Outcome::kCompleted) {
      EXPECT_EQ(record.chip, 1) << "request " << record.request.id;
    }
  }
  EXPECT_EQ(result.completed + result.rejected + result.dead_lettered, 40);
}

TEST(ClusterSimulator, VerifyOffLetsBadDramEscapeSilently) {
  serve::MatrixPool pool(kTestScale);
  const auto requests = burst(40);

  ClusterConfig config;
  config.chip_count = 2;
  config.chip.verify = integrity::VerifyMode::kOff;
  config.faults.bad_dram = {{/*chip=*/0, /*rate=*/1.0, /*sticky_rate=*/0.0}};
  ClusterSimulator simulator(config, pool);
  const auto result = simulator.run(requests);

  // The contrast the quarantine exists for: with verification off the bad
  // chip serves normally and wrong answers leave the cluster uncounted by
  // any recovery path -- only the ground-truth escape ledger sees them.
  EXPECT_GT(result.sdc_corrupted, 0);
  EXPECT_GT(result.sdc_escapes, 0);
  EXPECT_EQ(result.sdc_detected, 0);
  EXPECT_EQ(result.quarantines, 0);
  EXPECT_EQ(result.dead_lettered, 0);
  EXPECT_EQ(result.completed + result.rejected, 40);
}

TEST(ClusterSimulator, SdcClassificationReplaysByteForByte) {
  serve::MatrixPool pool(kTestScale);
  const auto requests = burst(50);

  ClusterConfig config;
  config.chip_count = 3;
  config.chip.verify = integrity::VerifyMode::kCorrect;
  config.faults.sdc_rate = 0.2;
  config.faults.sdc_sticky_rate = 0.5;
  config.faults.bad_dram = {{1, 0.5, 0.5}};

  ClusterResult first;
  for (int round = 0; round < 2; ++round) {
    ClusterSimulator simulator(config, pool);
    const auto result = simulator.run(requests);
    if (round == 0) {
      first = result;
      EXPECT_GT(first.sdc_corrupted, 0);
      continue;
    }
    ASSERT_EQ(result.log.size(), first.log.size());
    for (std::size_t i = 0; i < result.log.size(); ++i) {
      EXPECT_EQ(describe(result.log[i]), describe(first.log[i])) << i;
    }
    EXPECT_EQ(result.sdc_corrupted, first.sdc_corrupted);
    EXPECT_EQ(result.sdc_detected, first.sdc_detected);
    EXPECT_EQ(result.sdc_corrected, first.sdc_corrected);
    EXPECT_EQ(result.sdc_unrecoverable, first.sdc_unrecoverable);
    EXPECT_EQ(result.sdc_escapes, first.sdc_escapes);
    EXPECT_EQ(result.makespan_seconds, first.makespan_seconds);
  }
}

// --- fault plan JSON scenarios ---

TEST(ClusterFaultPlanJson, ParsesKnobsAndEveryEventKind) {
  const std::string text = R"({
    "seed": 9, "chips_per_domain": 2, "restart_downtime_seconds": 0.05,
    "restart_jitter_fraction": 0.25, "crash_rate": 0.1,
    "crash_horizon_seconds": 0.5, "job_failure_rate": 0.2,
    "events": [
      {"kind": "chip_crash", "chip": 1, "seconds": 0.1},
      {"kind": "chip_restart", "chip": 1, "seconds": 0.2},
      {"kind": "chip_flap", "chip": 0, "seconds": 0.3, "cycles": 3,
       "period_seconds": 0.05},
      {"kind": "tile_kill", "chip": 2, "core": 7, "seconds": 0.15},
      {"kind": "brownout", "chip": 0, "mc": 1, "seconds": 0.05,
       "duration_seconds": 0.1, "derate": 2.5},
      {"kind": "domain_outage", "domain": 1, "seconds": 0.4},
      {"kind": "domain_brownout", "domain": 0, "seconds": 0.2,
       "duration_seconds": 0.1, "derate": 3.0}
    ]})";
  const FaultPlan plan = parse_fault_plan_json(text);
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_EQ(plan.chips_per_domain, 2);
  EXPECT_DOUBLE_EQ(plan.restart_downtime_seconds, 0.05);
  EXPECT_DOUBLE_EQ(plan.restart_jitter_fraction, 0.25);
  EXPECT_DOUBLE_EQ(plan.crash_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.crash_horizon_seconds, 0.5);
  EXPECT_DOUBLE_EQ(plan.job_failure_rate, 0.2);
  ASSERT_EQ(plan.chip_crashes.size(), 1u);
  EXPECT_EQ(plan.chip_crashes[0].chip, 1);
  ASSERT_EQ(plan.chip_restarts.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.chip_restarts[0].seconds, 0.2);
  ASSERT_EQ(plan.chip_flaps.size(), 1u);
  EXPECT_EQ(plan.chip_flaps[0].cycles, 3);
  EXPECT_DOUBLE_EQ(plan.chip_flaps[0].period_seconds, 0.05);
  ASSERT_EQ(plan.tile_kills.size(), 1u);
  EXPECT_EQ(plan.tile_kills[0].core, 7);
  ASSERT_EQ(plan.brownouts.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.brownouts[0].derate, 2.5);
  ASSERT_EQ(plan.domain_outages.size(), 1u);
  EXPECT_EQ(plan.domain_outages[0].domain, 1);
  ASSERT_EQ(plan.domain_brownouts.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.domain_brownouts[0].derate, 3.0);
}

TEST(ClusterFaultPlanJson, ParsesSdcKnobsAndBadDramEvents) {
  const FaultPlan plan = parse_fault_plan_json(R"({
    "sdc_rate": 0.01, "sdc_sticky_rate": 0.4,
    "events": [
      {"kind": "bad_dram", "chip": 2, "rate": 0.3, "sticky_rate": 0.8},
      {"kind": "bad_dram", "chip": 0, "rate": 0.1}
    ]})");
  EXPECT_DOUBLE_EQ(plan.sdc_rate, 0.01);
  EXPECT_DOUBLE_EQ(plan.sdc_sticky_rate, 0.4);
  ASSERT_EQ(plan.bad_dram.size(), 2u);
  EXPECT_EQ(plan.bad_dram[0].chip, 2);
  EXPECT_DOUBLE_EQ(plan.bad_dram[0].rate, 0.3);
  EXPECT_DOUBLE_EQ(plan.bad_dram[0].sticky_rate, 0.8);
  EXPECT_EQ(plan.bad_dram[1].chip, 0);
  EXPECT_DOUBLE_EQ(plan.bad_dram[1].sticky_rate, 0.9);  // dialect default
  EXPECT_FALSE(plan.empty());
}

TEST(ClusterFaultPlanJson, SerializerRoundTripsTheWholeSchedule) {
  FaultPlan plan;
  plan.seed = 31;
  plan.chips_per_domain = 2;
  plan.restart_downtime_seconds = 0.03;
  plan.restart_jitter_fraction = 0.2;
  plan.crash_rate = 0.15;
  plan.crash_horizon_seconds = 0.7;
  plan.job_failure_rate = 0.1;
  plan.sdc_rate = 0.02;
  plan.sdc_sticky_rate = 0.3;
  plan.chip_crashes = {{1, 0.1}, {0, 0.25}};
  plan.chip_restarts = {{1, 0.2}};
  plan.chip_flaps = {{2, 0.05, 3, 0.04}};
  plan.tile_kills = {{0, 11, 0.12}};
  plan.brownouts = {{1, 2, 0.06, 0.09, 2.5}};
  plan.domain_outages = {{1, 0.3}};
  plan.domain_brownouts = {{0, 0.15, 0.1, 3.0}};
  plan.bad_dram = {{2, 0.4, 0.7}};

  const FaultPlan parsed = parse_fault_plan_json(fault_plan_json(plan));

  // Same schedule: every scalar knob survives, and the two oracles answer
  // every query identically.
  EXPECT_EQ(parsed.seed, plan.seed);
  EXPECT_EQ(parsed.chips_per_domain, plan.chips_per_domain);
  EXPECT_DOUBLE_EQ(parsed.restart_downtime_seconds, plan.restart_downtime_seconds);
  EXPECT_DOUBLE_EQ(parsed.restart_jitter_fraction, plan.restart_jitter_fraction);
  EXPECT_DOUBLE_EQ(parsed.crash_rate, plan.crash_rate);
  EXPECT_DOUBLE_EQ(parsed.crash_horizon_seconds, plan.crash_horizon_seconds);
  EXPECT_DOUBLE_EQ(parsed.job_failure_rate, plan.job_failure_rate);
  EXPECT_DOUBLE_EQ(parsed.sdc_rate, plan.sdc_rate);
  EXPECT_DOUBLE_EQ(parsed.sdc_sticky_rate, plan.sdc_sticky_rate);
  ASSERT_EQ(parsed.bad_dram.size(), 1u);
  EXPECT_EQ(parsed.bad_dram[0].chip, 2);
  EXPECT_DOUBLE_EQ(parsed.bad_dram[0].rate, 0.4);
  EXPECT_DOUBLE_EQ(parsed.bad_dram[0].sticky_rate, 0.7);

  const FaultOracle original(plan);
  const FaultOracle round_tripped(parsed);
  const auto crashes_a = original.crashes(6);
  const auto crashes_b = round_tripped.crashes(6);
  ASSERT_EQ(crashes_a.size(), crashes_b.size());
  for (std::size_t i = 0; i < crashes_a.size(); ++i) {
    EXPECT_EQ(crashes_a[i].chip, crashes_b[i].chip);
    EXPECT_EQ(crashes_a[i].seconds, crashes_b[i].seconds);
  }
  const auto windows_a = original.brownout_windows(6);
  const auto windows_b = round_tripped.brownout_windows(6);
  ASSERT_EQ(windows_a.size(), windows_b.size());
  for (int chip = 0; chip < 6; ++chip) {
    const integrity::SdcPlan sdc_a = original.chip_sdc(chip);
    const integrity::SdcPlan sdc_b = round_tripped.chip_sdc(chip);
    EXPECT_EQ(sdc_a, sdc_b) << chip;
    EXPECT_EQ(original.restart_downtime(chip, 0), round_tripped.restart_downtime(chip, 0));
    EXPECT_EQ(original.job_fails(chip, 17), round_tripped.job_fails(chip, 17));
  }
}

TEST(ClusterFaultPlanJson, RejectsMalformedScenarios) {
  EXPECT_THROW(parse_fault_plan_json("not json"), std::exception);
  EXPECT_THROW(parse_fault_plan_json("[1, 2]"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan_json(R"({"events": [{"chip": 1}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_plan_json(R"({"events": [{"kind": "nope", "seconds": 1}]})"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_fault_plan_json(R"({"events": [{"kind": "chip_crash", "chip": 0}]})"),
      std::invalid_argument);
  // Values are validated through the oracle's own plan checks.
  EXPECT_THROW(parse_fault_plan_json(R"({"crash_rate": 2.0})"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan_json(R"({"sdc_rate": 1.5})"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan_json(R"({"events": [{"kind": "bad_dram", "chip": 0}]})"),
               std::invalid_argument);  // missing rate
  EXPECT_THROW(
      parse_fault_plan_json(
          R"({"events": [{"kind": "bad_dram", "chip": 0, "rate": 2.0}]})"),
      std::invalid_argument);
  EXPECT_THROW(load_fault_plan_file("/nonexistent/plan.json"), std::invalid_argument);
  // Event times must be finite and >= 0; durations, periods, the restart
  // downtime and the crash horizon finite (1e999 parses as infinity). Each
  // is refused naming its field.
  const std::vector<std::pair<const char*, const char*>> bad_times = {
      {R"({"events": [{"kind": "chip_crash", "chip": 0, "seconds": -1}]})",
       "chip_crash seconds"},
      {R"({"events": [{"kind": "chip_restart", "chip": 0, "seconds": -0.5}]})",
       "chip_restart seconds"},
      {R"({"events": [{"kind": "chip_flap", "chip": 0, "seconds": -0.1}]})",
       "chip_flap seconds"},
      {R"({"events": [{"kind": "chip_flap", "chip": 0, "seconds": 0.1,)"
       R"( "period_seconds": 1e999}]})",
       "chip_flap period_seconds"},
      {R"({"events": [{"kind": "tile_kill", "chip": 0, "core": 3, "seconds": 1e999}]})",
       "tile_kill seconds"},
      {R"({"events": [{"kind": "brownout", "chip": 0, "mc": 1, "seconds": -2,)"
       R"( "duration_seconds": 0.1}]})",
       "brownout seconds"},
      {R"({"events": [{"kind": "brownout", "chip": 0, "mc": 1, "seconds": 0,)"
       R"( "duration_seconds": 1e999}]})",
       "brownout duration_seconds"},
      {R"({"events": [{"kind": "domain_outage", "domain": 0, "seconds": -1}]})",
       "domain_outage seconds"},
      {R"({"events": [{"kind": "domain_brownout", "domain": 0, "seconds": 0.1,)"
       R"( "duration_seconds": 1e999}]})",
       "domain_brownout duration_seconds"},
      {R"({"restart_downtime_seconds": 1e999})", "restart_downtime_seconds"},
      {R"({"crash_horizon_seconds": 1e999})", "crash_horizon_seconds"}};
  for (const auto& [text, field] : bad_times) {
    try {
      parse_fault_plan_json(text);
      ADD_FAILURE() << text;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos) << error.what();
    }
  }
  // Integers outside int are rejected by name, never narrowed (2^32 + 1 would
  // crash chip 1).
  for (const char* text :
       {R"({"events": [{"kind": "chip_crash", "chip": 4294967297, "seconds": 0.1}]})",
        R"({"chips_per_domain": 4294967298})"}) {
    try {
      parse_fault_plan_json(text);
      ADD_FAILURE() << text;
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_TRUE(what.find("'chip'") != std::string::npos ||
                  what.find("'chips_per_domain'") != std::string::npos)
          << what;
    }
  }
}

// --- pinned report bytes ---

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(ClusterGolden, ReportDigestsArePinned) {
  // Every byte of the kind="cluster" report, metrics and fault log
  // included, for the chaos plan, a detect-mode bad-DRAM chip that crosses
  // the quarantine threshold, and the failover-off baseline.
  serve::MatrixPool pool(kTestScale);
  const serve::WorkloadSpec spec = relaxed(small_workload(60, 2000.0));
  const auto requests = serve::generate_workload(spec);

  struct Case {
    std::string name;
    ClusterConfig config;
    std::uint64_t digest = 0;
  };
  std::vector<Case> cases;
  cases.push_back({"chaos", chaos_config(), 0x26b2c911523c56feULL});
  Case detect{"detect+bad_dram", {}, 0xdbdb4a184badd4a3ULL};
  detect.config.chip.verify = integrity::VerifyMode::kDetect;
  detect.config.faults.bad_dram = {{0, 1.0, 1.0}};
  detect.config.quarantine_threshold = 2;
  cases.push_back(std::move(detect));
  Case baseline{"failover-off", chaos_config(), 0x65977e743f108b48ULL};
  baseline.config.failover = false;
  cases.push_back(std::move(baseline));

  for (const Case& c : cases) {
    ClusterSimulator simulator(c.config, pool);
    const ClusterResult result = simulator.run(requests);
    const std::string bytes =
        cluster_report_json(spec, c.config, result, &simulator.metrics()).dump();
    EXPECT_EQ(fnv1a(bytes), c.digest) << c.name << " digest 0x" << std::hex << fnv1a(bytes);
  }
}

}  // namespace
}  // namespace scc::cluster
