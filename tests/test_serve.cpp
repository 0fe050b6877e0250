// Tests of the multi-tenant serving layer (src/serve): load generation,
// admission, partitioning policies, the fluid contention model, and the
// end-to-end simulator invariants -- most importantly that a lone request
// through the serving path reproduces sim::Engine::run bit-exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "integrity/integrity.hpp"
#include "obs/report.hpp"
#include "scc/mapping.hpp"
#include "serve/contention.hpp"
#include "serve/loadgen.hpp"
#include "serve/queue.hpp"
#include "serve/report.hpp"
#include "serve/scheduler.hpp"
#include "serve/simulator.hpp"

namespace scc::serve {
namespace {

constexpr double kTestScale = 0.05;

WorkloadSpec small_workload(int count, double rps) {
  WorkloadSpec spec;
  spec.seed = 42;
  spec.request_count = count;
  spec.offered_rps = rps;
  return spec;
}

// --- load generation ---

TEST(ServeLoadGen, DeterministicAndSorted) {
  const WorkloadSpec spec = small_workload(100, 50.0);
  const auto a = generate_workload(spec);
  const auto b = generate_workload(spec);
  ASSERT_EQ(a.size(), 100u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_seconds, b[i].arrival_seconds) << i;
    EXPECT_EQ(a[i].matrix_id, b[i].matrix_id) << i;
    EXPECT_EQ(a[i].cls, b[i].cls) << i;
    EXPECT_EQ(a[i].id, static_cast<int>(i));
    if (i > 0) {
      EXPECT_GE(a[i].arrival_seconds, a[i - 1].arrival_seconds);
    }
  }
}

TEST(ServeLoadGen, SeedChangesSchedule) {
  WorkloadSpec spec = small_workload(50, 50.0);
  const auto a = generate_workload(spec);
  spec.seed = 43;
  const auto b = generate_workload(spec);
  int differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].arrival_seconds != b[i].arrival_seconds) ++differing;
  }
  EXPECT_GT(differing, 40);
}

TEST(ServeLoadGen, MeanRateApproximatesOfferedRate) {
  WorkloadSpec spec = small_workload(4000, 100.0);
  const auto requests = generate_workload(spec);
  const double span = requests.back().arrival_seconds;
  EXPECT_NEAR(static_cast<double>(requests.size()) / span, 100.0, 5.0);
}

TEST(ServeLoadGen, MatrixMixAndClassesRespected) {
  WorkloadSpec spec = small_workload(500, 100.0);
  spec.matrix_mix = {19, 27};
  spec.interactive_fraction = 1.0;
  for (const Request& r : generate_workload(spec)) {
    EXPECT_TRUE(r.matrix_id == 19 || r.matrix_id == 27);
    EXPECT_EQ(r.cls, RequestClass::kInteractive);
    EXPECT_EQ(r.slo_seconds, spec.slo_interactive_seconds);
  }
}

TEST(ServeLoadGen, RejectsBadSpecs) {
  WorkloadSpec spec = small_workload(10, 50.0);
  spec.offered_rps = 0.0;
  EXPECT_THROW(generate_workload(spec), std::invalid_argument);
  spec = small_workload(10, 50.0);
  spec.matrix_mix.clear();
  EXPECT_THROW(generate_workload(spec), std::invalid_argument);
}

// --- admission queue ---

Request make_request(int id, int matrix, RequestClass cls) {
  Request r;
  r.id = id;
  r.matrix_id = matrix;
  r.cls = cls;
  return r;
}

TEST(ServeQueue, InteractivePriorityFifoWithinClass) {
  AdmissionQueue queue(AdmissionConfig{8, 2});
  ASSERT_TRUE(queue.offer(make_request(0, 1, RequestClass::kBatch)));
  ASSERT_TRUE(queue.offer(make_request(1, 1, RequestClass::kInteractive)));
  ASSERT_TRUE(queue.offer(make_request(2, 1, RequestClass::kInteractive)));
  EXPECT_EQ(queue.pop().id, 1);
  EXPECT_EQ(queue.pop().id, 2);
  EXPECT_EQ(queue.pop().id, 0);
  EXPECT_TRUE(queue.empty());
}

TEST(ServeQueue, BatchShedsFirstViaReserve) {
  AdmissionQueue queue(AdmissionConfig{4, 2});
  EXPECT_TRUE(queue.offer(make_request(0, 1, RequestClass::kBatch)));
  EXPECT_TRUE(queue.offer(make_request(1, 1, RequestClass::kBatch)));
  // Depth 2 == max_depth - reserve: batch rejected, interactive admitted.
  EXPECT_FALSE(queue.offer(make_request(2, 1, RequestClass::kBatch)));
  EXPECT_TRUE(queue.offer(make_request(3, 1, RequestClass::kInteractive)));
  EXPECT_TRUE(queue.offer(make_request(4, 1, RequestClass::kInteractive)));
  // Full: everyone rejected.
  EXPECT_FALSE(queue.offer(make_request(5, 1, RequestClass::kInteractive)));
  EXPECT_EQ(queue.depth(), 4);
  EXPECT_EQ(queue.max_depth_seen(), 4);
}

TEST(ServeQueue, TakeMatchingPullsBothClassesUpToLimit) {
  AdmissionQueue queue(AdmissionConfig{16, 0});
  queue.offer(make_request(0, 7, RequestClass::kBatch));
  queue.offer(make_request(1, 9, RequestClass::kBatch));
  queue.offer(make_request(2, 7, RequestClass::kInteractive));
  queue.offer(make_request(3, 7, RequestClass::kBatch));
  const auto taken = queue.take_matching(7, 2);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].id, 2);  // interactive scanned first
  EXPECT_EQ(taken[1].id, 0);
  EXPECT_EQ(queue.depth(), 2);  // ids 1 and 3 remain
}

TEST(ServeQueue, TakeExpiredShedsOnlyPastDeadline) {
  AdmissionQueue queue(AdmissionConfig{16, 0});
  Request tight = make_request(0, 1, RequestClass::kInteractive);
  tight.arrival_seconds = 0.0;
  tight.slo_seconds = 0.1;  // deadline at t = 0.1
  Request loose = make_request(1, 1, RequestClass::kBatch);
  loose.arrival_seconds = 0.0;
  loose.slo_seconds = 10.0;
  ASSERT_TRUE(queue.offer(tight));
  ASSERT_TRUE(queue.offer(loose));
  // Strict comparison: a request exactly at its deadline still dispatches.
  EXPECT_TRUE(queue.take_expired(0.1).empty());
  const auto expired = queue.take_expired(0.5);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 0);
  EXPECT_EQ(queue.depth(), 1);
}

TEST(ServeQueue, EraseCancelsQueuedRequestById) {
  AdmissionQueue queue(AdmissionConfig{16, 0});
  ASSERT_TRUE(queue.offer(make_request(0, 1, RequestClass::kBatch)));
  ASSERT_TRUE(queue.offer(make_request(1, 1, RequestClass::kInteractive)));
  EXPECT_TRUE(queue.erase(0));
  EXPECT_FALSE(queue.erase(0));  // already gone
  EXPECT_EQ(queue.depth(), 1);
  EXPECT_EQ(queue.pop().id, 1);
}

// --- partitioner ---

TEST(ServeScheduler, PolicyNamesRoundTrip) {
  for (const auto policy :
       {SchedulingPolicy::kFifoWholeChip, SchedulingPolicy::kFixedQuadrants,
        SchedulingPolicy::kMatrixAware}) {
    EXPECT_EQ(parse_policy(to_string(policy)), policy);
  }
  EXPECT_THROW(parse_policy("best-effort"), std::invalid_argument);
}

TEST(ServeScheduler, ProfitableCoreCountScalesWithWorkingSet) {
  PartitionModel model;
  // Tiny job: one core no matter how many rows.
  EXPECT_EQ(profitable_core_count({1000, 5000, 64 * 1024}, model), 1);
  // One-row matrix can never use more than one core.
  EXPECT_EQ(profitable_core_count({1, 1 << 20, 64u << 20}, model), 1);
  // Large working set with plenty of nnz: whole chip.
  EXPECT_EQ(profitable_core_count({200000, 5000000, 64u << 20}, model), 48);
  // nnz cap binds before the working-set target.
  const int count = profitable_core_count({200000, 60000, 64u << 20}, model);
  EXPECT_LE(count, 4);
}

TEST(ServeScheduler, FifoWholeChipIsExclusive) {
  ChipPartitioner partitioner(SchedulingPolicy::kFifoWholeChip, PartitionModel{});
  const JobShape shape{1000, 100000, 1 << 20};
  const auto cores = partitioner.try_allocate(shape);
  EXPECT_EQ(cores.size(), 48u);
  EXPECT_TRUE(partitioner.try_allocate(shape).empty());
  partitioner.release(cores);
  EXPECT_EQ(partitioner.try_allocate(shape).size(), 48u);
}

TEST(ServeScheduler, FixedQuadrantsGiveFourDisjointPartitions) {
  ChipPartitioner partitioner(SchedulingPolicy::kFixedQuadrants, PartitionModel{});
  const JobShape shape{1000, 100000, 1 << 20};
  std::set<int> seen;
  for (int job = 0; job < 4; ++job) {
    const auto cores = partitioner.try_allocate(shape);
    ASSERT_EQ(cores.size(), 12u);
    const auto by_mc = chip::cores_by_mc(cores);
    int used_mcs = 0;
    for (const auto& group : by_mc) used_mcs += group.empty() ? 0 : 1;
    EXPECT_EQ(used_mcs, 1);  // one quadrant each
    for (const int core : cores) EXPECT_TRUE(seen.insert(core).second);
  }
  EXPECT_TRUE(partitioner.try_allocate(shape).empty());
}

TEST(ServeScheduler, MatrixAwarePrefersIdleQuadrants) {
  ChipPartitioner partitioner(SchedulingPolicy::kMatrixAware, PartitionModel{});
  // Working set sized for ~4 cores, plenty of nnz/rows.
  const JobShape shape{100000, 1000000, 1500 * 1024};
  const auto first = partitioner.try_allocate(shape);
  const auto second = partitioner.try_allocate(shape);
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  const auto mc_of = [](const std::vector<int>& cores) {
    return chip::memory_controller_of_core(cores.front());
  };
  // Each small job fits one quadrant, and the second avoids the first's MC.
  EXPECT_NE(mc_of(first), mc_of(second));
  for (const auto& cores : {first, second}) {
    const auto by_mc = chip::cores_by_mc(cores);
    int used = 0;
    for (const auto& group : by_mc) used += group.empty() ? 0 : 1;
    EXPECT_EQ(used, 1);
  }
}

TEST(ServeScheduler, MatrixAwareCapsCoRunnersPerMc) {
  PartitionModel model;
  model.max_jobs_per_mc = 1;
  ChipPartitioner partitioner(SchedulingPolicy::kMatrixAware, model);
  const JobShape tiny{1000, 5000, 64 * 1024};  // 1 core each
  std::vector<std::vector<int>> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(partitioner.try_allocate(tiny));
    ASSERT_EQ(jobs.back().size(), 1u) << i;
  }
  // All four quadrants host one job; a fifth must wait despite 44 free cores.
  EXPECT_TRUE(partitioner.try_allocate(tiny).empty());
  partitioner.release(jobs.front());
  EXPECT_EQ(partitioner.try_allocate(tiny).size(), 1u);
}

TEST(ServeScheduler, RetiredCoresLeaveThePool) {
  ChipPartitioner partitioner(SchedulingPolicy::kFifoWholeChip, PartitionModel{});
  partitioner.retire(0);
  partitioner.retire(0);  // idempotent
  EXPECT_EQ(partitioner.retired_core_count(), 1);
  EXPECT_EQ(partitioner.free_core_count(), 47);
  const JobShape shape{1000, 100000, 1 << 20};
  const auto cores = partitioner.try_allocate(shape);
  EXPECT_EQ(cores.size(), 47u);
  EXPECT_EQ(std::find(cores.begin(), cores.end(), 0), cores.end());
  partitioner.release(cores);
  // Retiring a busy core is allowed (its job finishes degraded); afterwards
  // the core never comes back.
  const auto again = partitioner.try_allocate(shape);
  partitioner.retire(again.front());
  partitioner.release(again);
  EXPECT_EQ(partitioner.free_core_count(), 46);
}

// --- contention model ---

TEST(ServeContention, LoneJobRunsAtUnitRate) {
  ContentionTracker tracker;
  tracker.add(1, {true, false, false, false}, 0.8, 2.0);
  EXPECT_EQ(tracker.slowdown(1), 1.0);
  const auto next = tracker.next_completion();
  EXPECT_EQ(next.id, 1);
  EXPECT_EQ(next.delay_seconds, 2.0);
}

TEST(ServeContention, SharingScalesOnlyTheMemoryBoundFraction) {
  ContentionTracker tracker;
  tracker.add(1, {true, false, false, false}, 0.5, 1.0);
  tracker.add(2, {true, false, false, false}, 1.0, 1.0);
  // Two sharers on MC0: job 1 pays (1-0.5) + 0.5*2 = 1.5, job 2 pays 2.
  EXPECT_DOUBLE_EQ(tracker.slowdown(1), 1.5);
  EXPECT_DOUBLE_EQ(tracker.slowdown(2), 2.0);
  // Disjoint MCs stay clean.
  tracker.add(3, {false, true, false, false}, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(tracker.slowdown(3), 1.0);
  EXPECT_DOUBLE_EQ(tracker.slowdown(1), 1.5);
}

TEST(ServeContention, CompletionOrderAndAdvance) {
  ContentionTracker tracker;
  tracker.add(1, {true, false, false, false}, 1.0, 1.0);
  tracker.add(2, {true, false, false, false}, 1.0, 3.0);
  // Both slowed 2x; job 1 finishes at t=2.
  auto next = tracker.next_completion();
  EXPECT_EQ(next.id, 1);
  EXPECT_DOUBLE_EQ(next.delay_seconds, 2.0);
  tracker.advance(next.delay_seconds);
  tracker.remove(1);
  // Job 2 consumed 1s of service under 2x sharing; 2s remain, now alone.
  next = tracker.next_completion();
  EXPECT_EQ(next.id, 2);
  EXPECT_DOUBLE_EQ(next.delay_seconds, 2.0);
}

TEST(ServeContention, RemoveRequiresDrainedJob) {
  ContentionTracker tracker;
  tracker.add(1, {true, false, false, false}, 0.0, 1.0);
  EXPECT_THROW(tracker.remove(1), std::invalid_argument);
  tracker.advance(1.0);
  tracker.remove(1);
  EXPECT_TRUE(tracker.empty());
}

TEST(ServeContention, BrownoutDerateScalesTheBandwidthShare) {
  ContentionTracker tracker;
  tracker.add(1, {true, false, false, false}, 0.5, 1.0);
  EXPECT_DOUBLE_EQ(tracker.slowdown(1), 1.0);
  tracker.set_mc_derate(0, 3.0);
  // Lone job on a browned-out MC: (1-0.5) + 0.5 * 3 = 2.
  EXPECT_DOUBLE_EQ(tracker.slowdown(1), 2.0);
  EXPECT_DOUBLE_EQ(tracker.mc_derate(0), 3.0);
  // A derated MC a job does not touch costs it nothing.
  tracker.add(2, {false, true, false, false}, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(tracker.slowdown(2), 1.0);
  tracker.set_mc_derate(0, 1.0);
  EXPECT_DOUBLE_EQ(tracker.slowdown(1), 1.0);
  EXPECT_THROW(tracker.set_mc_derate(0, 0.5), std::invalid_argument);
}

TEST(ServeContention, RestateAndDropServeTheFaultPaths) {
  ContentionTracker tracker;
  tracker.add(1, {true, false, false, false}, 0.5, 2.0);
  tracker.restate(1, 0.25, 5.0);  // tile kill: degraded timing mid-flight
  const auto next = tracker.next_completion();
  EXPECT_EQ(next.id, 1);
  EXPECT_DOUBLE_EQ(next.delay_seconds, 5.0);
  tracker.drop(1);  // chip crash: abandon outstanding service
  EXPECT_TRUE(tracker.empty());
  EXPECT_THROW(tracker.drop(1), std::invalid_argument);
  EXPECT_THROW(tracker.restate(1, 0.5, 1.0), std::invalid_argument);
}

// --- simulator ---

TEST(ServeSimulator, LoneRequestMatchesEngineRunExactly) {
  MatrixPool pool(kTestScale);
  ServeConfig config;
  config.policy = SchedulingPolicy::kFifoWholeChip;
  config.batching = false;
  Simulator simulator(config, pool);

  WorkloadSpec spec = small_workload(1, 10.0);
  spec.matrix_mix = {27};
  const auto result = simulator.run(generate_workload(spec));

  ASSERT_EQ(result.jobs.size(), 1u);
  const JobRecord& job = result.jobs.front();
  // The serving product phase must be bit-identical to a direct engine run
  // on the same cores, and the lone job must see zero contention.
  const sim::Engine engine(config.engine);
  sim::RunSpec run_spec;
  run_spec.cores = job.cores;
  const auto direct = engine.run(pool.entry(27).matrix, run_spec);
  EXPECT_EQ(job.product_seconds, direct.seconds);
  // The decomposition tolerates the event loop's last-ulp rounding (it
  // recovers the duration as now + remaining * slowdown).
  EXPECT_DOUBLE_EQ(job.completion_seconds - job.dispatch_seconds,
                   job.load_seconds + job.product_seconds);
  EXPECT_EQ(result.completed, 1);
  EXPECT_EQ(result.rejected, 0);
}

TEST(ServeSimulator, DeterministicAcrossRuns) {
  MatrixPool pool(kTestScale);
  const WorkloadSpec spec = small_workload(60, 2000.0);
  ServeConfig config;
  ServeResult first;
  for (int round = 0; round < 2; ++round) {
    Simulator simulator(config, pool);
    const auto result = simulator.run(generate_workload(spec));
    if (round == 0) {
      first = result;
      continue;
    }
    ASSERT_EQ(result.records.size(), first.records.size());
    for (std::size_t i = 0; i < result.records.size(); ++i) {
      EXPECT_EQ(result.records[i].completion_seconds, first.records[i].completion_seconds);
      EXPECT_EQ(result.records[i].job_id, first.records[i].job_id);
    }
    EXPECT_EQ(result.makespan_seconds, first.makespan_seconds);
    EXPECT_EQ(result.jobs.size(), first.jobs.size());
  }
}

TEST(ServeSimulator, AccountsEveryRequestExactlyOnce) {
  MatrixPool pool(kTestScale);
  WorkloadSpec spec = small_workload(120, 20000.0);
  ServeConfig config;
  config.admission.max_queue_depth = 8;
  config.admission.interactive_reserve = 2;
  Simulator simulator(config, pool);
  const auto result = simulator.run(generate_workload(spec));
  EXPECT_EQ(result.completed + result.rejected + result.deadline_expired, 120);
  EXPECT_GT(result.rejected, 0);  // this load must trigger backpressure
  int in_jobs = 0;
  for (const JobRecord& job : result.jobs) in_jobs += job.request_count;
  EXPECT_EQ(in_jobs, result.completed);
  for (const RequestRecord& record : result.records) {
    if (record.rejected || record.deadline_expired) {
      EXPECT_EQ(record.job_id, -1);
    } else {
      EXPECT_GE(record.dispatch_seconds, record.request.arrival_seconds);
      EXPECT_GT(record.completion_seconds, record.dispatch_seconds);
    }
  }
  EXPECT_LE(result.max_queue_depth, 8);
}

TEST(ServeLatencySummary, MatchesArrivalOrderMeanAndPercentiles) {
  // The summary sorts its input once; it must equal the plain definition:
  // the mean in arrival order and `percentile` of the unsorted latencies.
  // A long first latency makes the rounding of the sum depend on its order.
  Rng rng(0x1a7e);
  std::vector<double> latencies(4099);
  for (double& v : latencies) v = rng.uniform_real(1e-9, 1e-3);
  latencies.front() = 1e3;
  const std::vector<double> arrival = latencies;
  const LatencySummary summary = summarize_latencies(latencies);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(summary.count, arrival.size());
  EXPECT_EQ(bits(summary.mean), bits(mean(arrival)));
  EXPECT_EQ(bits(summary.p50), bits(percentile(arrival, 50.0)));
  EXPECT_EQ(bits(summary.p95), bits(percentile(arrival, 95.0)));
  EXPECT_EQ(bits(summary.p99), bits(percentile(arrival, 99.0)));

  std::vector<double> none;
  const LatencySummary empty = summarize_latencies(none);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.mean, 0.0);
  EXPECT_EQ(empty.p99, 0.0);
}

TEST(ServeSimulator, BatchingMergesSameMatrixBacklog) {
  MatrixPool pool(kTestScale);
  WorkloadSpec spec = small_workload(40, 1e9);  // everything arrives at once
  spec.matrix_mix = {27};
  spec.interactive_fraction = 0.0;
  spec.slo_batch_seconds = 1e9;  // the backlog must not expire, only merge
  ServeConfig config;
  config.policy = SchedulingPolicy::kFifoWholeChip;
  config.admission.max_queue_depth = 64;
  config.batch_max = 8;
  Simulator simulator(config, pool);
  const auto result = simulator.run(generate_workload(spec));
  EXPECT_EQ(result.completed, 40);
  // 40 identical queued requests at batch_max 8 collapse into ~5 jobs.
  EXPECT_LE(result.jobs.size(), 6u);
  for (const JobRecord& job : result.jobs) {
    if (job.request_count > 1) {
      // One load phase amortized over the batch.
      EXPECT_EQ(job.service_seconds,
                job.load_seconds + job.request_count * job.product_seconds);
    }
  }
}

TEST(ServeSimulator, MetricsAndReportValidate) {
  MatrixPool pool(kTestScale);
  const WorkloadSpec spec = small_workload(30, 3000.0);
  ServeConfig config;
  Simulator simulator(config, pool);
  const auto result = simulator.run(generate_workload(spec));

  const obs::Json report = serve_report_json(spec, config, result, &simulator.metrics());
  const auto problems = obs::validate_report(report);
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());

  const obs::Json& metrics = report.at("metrics");
  EXPECT_EQ(metrics.at("counters").at("serve.requests_total").as_int(), 30);
  EXPECT_EQ(metrics.at("counters").at("serve.completed_total").as_int(),
            static_cast<long long>(result.completed));
  const obs::Json& latency = metrics.at("histograms").at("serve.latency_seconds");
  EXPECT_EQ(latency.at("count").as_int(), static_cast<long long>(result.completed));
  EXPECT_GE(latency.at("p95").as_double(), latency.at("p50").as_double());
}

TEST(ServeSimulator, SloViolationsCountedAgainstClassTargets) {
  MatrixPool pool(kTestScale);
  WorkloadSpec spec = small_workload(50, 1e9);  // deep backlog forces queueing
  spec.slo_interactive_seconds = 1e-9;          // unmeetable
  spec.slo_batch_seconds = 1e9;                 // unmissable
  ServeConfig config;
  config.policy = SchedulingPolicy::kFifoWholeChip;
  config.admission.max_queue_depth = 64;
  Simulator simulator(config, pool);
  const auto result = simulator.run(generate_workload(spec));
  int interactive_completed = 0;
  int expired = 0;
  for (const RequestRecord& record : result.records) {
    if (record.deadline_expired) {
      ++expired;
      EXPECT_EQ(record.request.cls, RequestClass::kInteractive);
    } else if (!record.rejected && record.request.cls == RequestClass::kInteractive) {
      ++interactive_completed;
    }
  }
  // Interactive requests dispatched before their (unmeetable) deadline
  // passed still complete and count as violations; the backlogged rest is
  // shed at pop time and counted separately.
  EXPECT_EQ(result.slo_violations, interactive_completed);
  EXPECT_EQ(result.deadline_expired, expired);
  EXPECT_GT(result.deadline_expired, 0);
  EXPECT_EQ(result.completed + result.rejected + result.deadline_expired, 50);
}

// --- tuned dispatch + pool plumbing ---

TEST(ServeScheduler, PreferredCoresOverrideRoundsUpTheLadderUnderMatrixAware) {
  ChipPartitioner partitioner(SchedulingPolicy::kMatrixAware, PartitionModel{});
  const JobShape tiny{1000, 5000, 64 * 1024};  // heuristic says 1 core
  auto cores = partitioner.try_allocate(tiny, 0);  // no preference
  EXPECT_EQ(cores.size(), 1u);
  partitioner.release(cores);
  cores = partitioner.try_allocate(tiny, 5);  // rounds up the ladder to 6
  EXPECT_EQ(cores.size(), 6u);
  partitioner.release(cores);
  cores = partitioner.try_allocate(tiny, 500);  // clamped to the whole chip
  EXPECT_EQ(cores.size(), 48u);
  partitioner.release(cores);

  // Only the matrix-aware policy sizes per job; the others ignore the hint.
  ChipPartitioner fifo(SchedulingPolicy::kFifoWholeChip, PartitionModel{});
  EXPECT_EQ(fifo.try_allocate(tiny, 5).size(), 48u);
}

TEST(ServeMatrixPool, TuningCacheIsLazyAndShared) {
  MatrixPool pool(kTestScale);
  tune::TuningCacheConfig config;
  config.capacity = 17;
  const auto& first = pool.tuning_cache(config);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->capacity(), 17u);
  // The first caller's config wins; later callers share the same cache.
  tune::TuningCacheConfig other;
  other.capacity = 99;
  EXPECT_EQ(pool.tuning_cache(other).get(), first.get());
  EXPECT_EQ(first->capacity(), 17u);
}

TEST(ServeSimulator, AutotunedRunReportsDecisionsAndValidates) {
  MatrixPool pool(kTestScale);
  WorkloadSpec spec = small_workload(30, 3000.0);
  spec.matrix_mix = {26, 27};
  ServeConfig config;
  config.policy = SchedulingPolicy::kMatrixAware;
  config.autotune = true;
  Simulator simulator(config, pool);
  const auto result = simulator.run(generate_workload(spec));

  EXPECT_TRUE(result.tuning.enabled);
  EXPECT_EQ(result.tuning.explored, 2u);  // one exploration per mix matrix
  EXPECT_FALSE(result.tuning.decisions.empty());
  EXPECT_GT(result.tuning.explore_runs, 0u);
  ASSERT_NE(simulator.tuner(), nullptr);
  EXPECT_FALSE(simulator.tuner()->decision_log_text().empty());

  const obs::Json report = serve_report_json(spec, config, result, &simulator.metrics());
  const auto problems = obs::validate_report(report);
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
  EXPECT_TRUE(report.has("tuning"));
  EXPECT_EQ(report.at("metrics").at("counters").at("tune.explored").as_int(), 2);

  // A second run over the same pool reuses every pinned decision.
  Simulator warm(config, pool);
  const auto second = warm.run(generate_workload(spec));
  EXPECT_TRUE(second.tuning.enabled);
  EXPECT_EQ(second.tuning.explored, 0u);
  EXPECT_GT(second.tuning.cache_hits, 0u);
}

// --- result integrity (ServeConfig::verify / ServeConfig::sdc) ---

/// Workload whose SLOs cannot expire, so integrity accounting is the only
/// source of non-completed requests.
WorkloadSpec integrity_workload(int count) {
  WorkloadSpec spec = small_workload(count, 2000.0);
  spec.slo_interactive_seconds = 1e6;
  spec.slo_batch_seconds = 1e6;
  return spec;
}

/// Exponent-range flips: every injected corruption perturbs the product far
/// beyond the ABFT tolerance, so significance is not left to chance.
integrity::SdcPlan loud_sdc(double rate, double sticky_rate = 0.0) {
  integrity::SdcPlan sdc;
  sdc.rate = rate;
  sdc.sticky_rate = sticky_rate;
  sdc.min_bit = 52;
  sdc.max_bit = 62;
  return sdc;
}

TEST(ServeIntegrity, VerifyOffDeliversCorruptionsAsEscapes) {
  MatrixPool pool(kTestScale);
  ServeConfig config;
  config.verify = integrity::VerifyMode::kOff;
  config.sdc = loud_sdc(1.0);
  Simulator simulator(config, pool);
  const auto result = simulator.run(generate_workload(integrity_workload(20)));

  // Every job took a flip, nothing noticed it, everything was delivered.
  EXPECT_EQ(result.completed, 20);
  EXPECT_EQ(result.sdc_corrupted, static_cast<int>(result.jobs.size()));
  EXPECT_EQ(result.sdc_retries, 0);
  EXPECT_EQ(result.sdc_corrected, 0);
  EXPECT_EQ(result.sdc_unrecoverable, 0);
  EXPECT_GT(result.sdc_escapes, 0);
  for (const JobRecord& job : result.jobs) {
    EXPECT_EQ(job.sdc_outcome, integrity::Outcome::kSilent);
    EXPECT_EQ(job.verify_attempts, 1);
  }
}

TEST(ServeIntegrity, VerifyOnRetriesOnceAndPricesTheRecompute) {
  MatrixPool pool(kTestScale);
  const auto requests = generate_workload(integrity_workload(20));

  ServeConfig config;
  config.verify = integrity::VerifyMode::kCorrect;
  Simulator clean_sim(config, pool);
  const auto clean = clean_sim.run(requests);
  EXPECT_EQ(clean.sdc_corrupted, 0);

  config.sdc = loud_sdc(1.0);
  Simulator corrupted_sim(config, pool);
  const auto corrupted = corrupted_sim.run(requests);

  // Every corruption is caught and recomputed once on the same chip; the
  // recompute verifies clean (sticky_rate 0), so nothing escapes or
  // dead-letters and the request stream completes in full.
  EXPECT_EQ(corrupted.completed, 20);
  EXPECT_GT(corrupted.sdc_corrupted, 0);
  EXPECT_EQ(corrupted.sdc_retries, corrupted.sdc_corrupted);
  EXPECT_EQ(corrupted.sdc_corrected, corrupted.sdc_corrupted);
  EXPECT_EQ(corrupted.sdc_unrecoverable, 0);
  EXPECT_EQ(corrupted.sdc_escapes, 0);
  for (const JobRecord& job : corrupted.jobs) {
    EXPECT_EQ(job.sdc_outcome, integrity::Outcome::kCorrected);
    EXPECT_EQ(job.verify_attempts, 2);
  }
  // The second product is real work: the corrupted run's makespan must
  // exceed the same workload verified clean.
  EXPECT_GT(corrupted.makespan_seconds, clean.makespan_seconds);
}

TEST(ServeIntegrity, StickyCorruptionIsUnrecoverableButStillAccounted) {
  MatrixPool pool(kTestScale);
  ServeConfig config;
  config.verify = integrity::VerifyMode::kCorrect;
  config.sdc = loud_sdc(1.0, /*sticky_rate=*/1.0);
  Simulator simulator(config, pool);
  const auto result = simulator.run(generate_workload(integrity_workload(20)));

  // The recompute is corrupted again every time: the single-chip layer has
  // no replica to flee to, so the job is delivered flagged -- and counted.
  EXPECT_EQ(result.completed, 20);
  EXPECT_GT(result.sdc_corrupted, 0);
  EXPECT_EQ(result.sdc_unrecoverable, result.sdc_corrupted);
  EXPECT_EQ(result.sdc_corrected, 0);
  EXPECT_EQ(result.sdc_escapes, 0);
  for (const JobRecord& job : result.jobs) {
    EXPECT_EQ(job.sdc_outcome, integrity::Outcome::kUnrecoverable);
    EXPECT_EQ(job.verify_attempts, 2);
  }
}

TEST(ServeIntegrity, ClassificationReplaysAcrossThreadsAndRunCache) {
  const auto requests = generate_workload(integrity_workload(40));
  ServeConfig config;
  config.verify = integrity::VerifyMode::kCorrect;
  config.sdc.rate = 0.3;  // default bit range: some flips stay insignificant
  config.sdc.sticky_rate = 0.5;

  struct Replay {
    double makespan = 0.0;
    int corrupted = 0, retries = 0, corrected = 0, unrecoverable = 0, escapes = 0;
    std::vector<double> completions;
  };
  const auto run_once = [&](int threads, bool run_cache) {
    setenv("SCC_SIM_THREADS", std::to_string(threads).c_str(), 1);
    MatrixPool pool = run_cache ? MatrixPool(kTestScale)
                                : MatrixPool::without_run_cache(kTestScale);
    EXPECT_EQ(pool.run_cache() != nullptr, run_cache);
    Simulator simulator(config, pool);
    const auto result = simulator.run(requests);
    unsetenv("SCC_SIM_THREADS");
    Replay replay;
    replay.makespan = result.makespan_seconds;
    replay.corrupted = result.sdc_corrupted;
    replay.retries = result.sdc_retries;
    replay.corrected = result.sdc_corrected;
    replay.unrecoverable = result.sdc_unrecoverable;
    replay.escapes = result.sdc_escapes;
    for (const RequestRecord& record : result.records) {
      replay.completions.push_back(record.completion_seconds);
    }
    return replay;
  };

  const Replay base = run_once(1, true);
  EXPECT_GT(base.corrupted, 0);  // rate 0.3 over 40 requests must fire
  for (const auto& [threads, cache] :
       std::vector<std::pair<int, bool>>{{1, false}, {4, true}, {4, false}}) {
    const Replay other = run_once(threads, cache);
    EXPECT_EQ(other.makespan, base.makespan) << threads << " " << cache;
    EXPECT_EQ(other.corrupted, base.corrupted);
    EXPECT_EQ(other.retries, base.retries);
    EXPECT_EQ(other.corrected, base.corrected);
    EXPECT_EQ(other.unrecoverable, base.unrecoverable);
    EXPECT_EQ(other.escapes, base.escapes);
    EXPECT_EQ(other.completions, base.completions);
  }
}

}  // namespace
}  // namespace scc::serve
