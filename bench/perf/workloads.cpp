#include "workloads.hpp"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "cluster/simulator.hpp"
#include "obs/trace.hpp"
#include "serve/loadgen.hpp"
#include "serve/simulator.hpp"
#include "sim/engine.hpp"
#include "sim/run_cache.hpp"
#include "testbed/specs.hpp"
#include "testbed/suite.hpp"
#include "tune/autotuner.hpp"

namespace perf {

using namespace scc;

double scale_of(Size size) { return size == Size::kFull ? 1.0 : 0.05; }

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    state = mix64(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

void Digest::byte(unsigned char b) {
  state_ ^= b;
  state_ *= 0x100000001b3ULL;
}

void Digest::u64(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(value >> (8 * i)));
}

void Digest::f64(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  u64(bits);
}

void Digest::text(const std::string& value) {
  u64(value.size());
  for (const char c : value) byte(static_cast<unsigned char>(c));
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

namespace {

/// The serving mix: the suite's small-working-set group, one matrix per
/// structural family (serve::WorkloadSpec's default).
const std::vector<int> kMix = {26, 27, 28, 30};

/// Mirrors the library's SCC_RUN_CACHE switch for the caches this
/// benchmark creates itself, so the run-cache-off equivalence check covers
/// them too.
bool run_cache_enabled() {
  const char* value = std::getenv("SCC_RUN_CACHE");
  if (value == nullptr) return true;
  const std::string_view v(value);
  return !(v == "0" || v == "off" || v == "false" || v == "no");
}

/// Run-cache counters, zero when memoization is off.
std::pair<double, double> cache_counts(const sim::RunCache* cache) {
  if (cache == nullptr) return {0.0, 0.0};
  return {static_cast<double>(cache->hits()), static_cast<double>(cache->misses())};
}

void add_cache_delta(OpResult& result, std::pair<double, double> before,
                     std::pair<double, double> after) {
  result.layers["run_cache.hits"] += after.first - before.first;
  result.layers["run_cache.misses"] += after.second - before.second;
}

testbed::SuiteEntry load_entry(Tracer* tracer, int id, double scale) {
  Scope span(tracer, "testbed.build_entry");
  return testbed::build_entry(id, scale);
}

void digest_run(Digest& d, const sim::RunResult& r) {
  d.f64(r.seconds);
  d.f64(r.gflops);
  for (const auto bytes : r.mc_bytes) d.u64(bytes);
  for (const double seconds : r.mc_seconds) d.f64(seconds);
  d.u64(r.bandwidth_bound ? 1 : 0);
  d.u64(r.mesh.total_link_bytes);
  d.u64(r.mesh.max_link_bytes);
  for (const sim::CoreResult& c : r.cores) {
    d.i64(c.core);
    d.i64(c.hops);
    d.f64(c.compute_seconds);
    d.f64(c.l2_hit_seconds);
    d.f64(c.stall_seconds);
    d.f64(c.tlb_seconds);
    d.f64(c.isolated_seconds);
    d.u64(c.trace.l1.accesses());
    d.u64(c.trace.l1.misses());
    d.u64(c.trace.memory_accesses);
    d.u64(c.trace.l2_hit_accesses);
    d.u64(c.trace.memory_read_bytes);
    d.u64(c.trace.memory_write_bytes);
    d.u64(c.trace.tlb_misses);
  }
}

/// Copies the engine recorder's spans into the benchmark's timeline: the
/// per-rank core_trace spans nest under trace_replay, the rest under `parent`.
void import_engine_spans(Tracer& tracer, const obs::Recorder& recorder, double epoch,
                         int parent, std::int64_t op) {
  const std::vector<obs::TraceEvent> events = recorder.events();
  int replay = parent;
  for (const obs::TraceEvent& e : events) {
    if (!e.is_span || e.name == "engine.core_trace") continue;
    const int id = tracer.add(e.name, epoch + e.start_seconds,
                              epoch + e.start_seconds + e.duration_seconds, parent, op);
    if (e.name == "engine.trace_replay") replay = id;
  }
  for (const obs::TraceEvent& e : events) {
    if (!e.is_span || e.name != "engine.core_trace") continue;
    tracer.add(e.name, epoch + e.start_seconds, epoch + e.start_seconds + e.duration_seconds,
               replay, op);
  }
}

// ---------------------------------------------------------------------------
// fig5_grid: the paper's Fig. 5 sweep, every run cold (no RunCache).

struct Fig5Config {
  int ues = 1;
  chip::MappingPolicy policy = chip::MappingPolicy::kStandard;
};

class Fig5Grid final : public Workload {
 public:
  explicit Fig5Grid(Size size) : scale_(scale_of(size)) {
    configs_.push_back({1, chip::MappingPolicy::kStandard});
    for (const int ues : {2, 4, 8, 16, 24, 32, 48}) {
      configs_.push_back({ues, chip::MappingPolicy::kStandard});
      configs_.push_back({ues, chip::MappingPolicy::kDistanceReduction});
    }
  }

  void setup(Tracer* tracer) override {
    Scope span(tracer, "setup.fig5_grid");
    matrices_.clear();
    for (const testbed::MatrixSpec& spec : testbed::table1_specs()) {
      matrices_.push_back(load_entry(tracer, spec.id, scale_));
    }
  }

  std::vector<std::string> keys() const override {
    std::vector<std::string> keys;
    for (const testbed::MatrixSpec& spec : testbed::table1_specs()) {
      for (const Fig5Config& c : configs_) {
        std::string key = "m";
        key += std::to_string(spec.id);
        key += ".u";
        key += std::to_string(c.ues);
        key += c.policy == chip::MappingPolicy::kStandard ? ".std" : ".dr";
        keys.push_back(std::move(key));
      }
    }
    return keys;
  }

  // The whole grid is one block: per-nonzero host cost differs by several
  // times across (matrix, core count) pairs, so any part of the grid would
  // make the run's cost depend on the seed.
  std::vector<std::vector<std::size_t>> blocks(std::uint64_t seed) const override {
    return {permutation(testbed::table1_specs().size() * configs_.size(), seed)};
  }

  OpResult run(std::size_t op, Tracer* tracer, std::int64_t op_id) override {
    Scope root(tracer, "fig5_grid.op", op_id);
    const sparse::CsrMatrix& matrix = matrices_[op / configs_.size()].matrix;
    const Fig5Config& config = configs_[op % configs_.size()];
    sim::RunSpec spec;
    spec.ue_count = config.ues;
    spec.policy = config.policy;

    OpResult out;
    sim::RunResult result;
    if (tracer == nullptr) {
      const double t0 = now_seconds();
      result = engine_.run(matrix, spec);
      out.seconds = now_seconds() - t0;
    } else {
      const double t0 = now_seconds();
      Scope call(tracer, "engine.run", op_id);
      obs::Recorder recorder;
      const double epoch = now_seconds() - recorder.now_seconds();
      spec.recorder = &recorder;
      result = engine_.run(matrix, spec);
      out.seconds = now_seconds() - t0;
      import_engine_spans(*tracer, recorder, epoch, call.id(), op_id);
      out.layers["engine.runs"] +=
          static_cast<double>(recorder.metrics().counter("engine.runs").value());
    }
    Scope digest_span(tracer, "bench.digest", op_id);
    Digest digest;
    digest_run(digest, result);
    out.digest = digest.value();
    out.sim_nnz = static_cast<double>(matrix.nnz());
    out.grid_points = 1.0;
    return out;
  }

 private:
  double scale_;
  std::vector<Fig5Config> configs_;
  std::vector<testbed::SuiteEntry> matrices_;
  sim::Engine engine_;
};

// ---------------------------------------------------------------------------
// serve_grid: fresh serve::Simulator per grid point, one shared warm pool.

struct ServePoint {
  serve::SchedulingPolicy policy = serve::SchedulingPolicy::kMatrixAware;
  std::size_t rate = 0;  ///< index into kServeRates
  bool batching = false;
};

constexpr std::array<double, 4> kServeRates = {600.0, 1300.0, 2100.0, 5000.0};

std::vector<serve::Request> serve_stream(std::uint64_t seed, double rate, int count) {
  serve::WorkloadSpec spec;
  spec.seed = seed;
  spec.offered_rps = rate;
  spec.request_count = count;
  spec.matrix_mix = kMix;
  return serve::generate_workload(spec);
}

void digest_serve(Digest& d, const serve::ServeResult& r) {
  for (const serve::RequestRecord& rec : r.records) {
    d.i64(rec.request.id);
    d.u64(rec.rejected ? 1 : 0);
    d.u64(rec.deadline_expired ? 1 : 0);
    d.i64(rec.job_id);
    d.f64(rec.dispatch_seconds);
    d.f64(rec.completion_seconds);
  }
  d.u64(r.jobs.size());
  d.f64(r.makespan_seconds);
  d.i64(r.completed);
  d.i64(r.rejected);
  d.i64(r.deadline_expired);
  d.i64(r.slo_violations);
}

class ServeGrid final : public Workload {
 public:
  explicit ServeGrid(Size size)
      : scale_(scale_of(size)),
        requests_(size == Size::kFull ? 20000 : 2000),
        traffic_seeds_(size == Size::kFull ? 24 : 2) {
    for (const auto policy :
         {serve::SchedulingPolicy::kFifoWholeChip, serve::SchedulingPolicy::kFixedQuadrants,
          serve::SchedulingPolicy::kMatrixAware}) {
      for (std::size_t rate = 0; rate < kServeRates.size(); ++rate) {
        for (const bool batching : {false, true}) points_.push_back({policy, rate, batching});
      }
    }
  }

  void setup(Tracer* tracer) override {
    Scope span(tracer, "setup.serve_grid");
    pool_ = std::make_unique<serve::MatrixPool>(scale_);
    for (const int id : kMix) {
      Scope load(tracer, "testbed.build_entry");
      nnz_[id] = static_cast<double>(pool_->entry(id).matrix.nnz());
    }
    // One pass over the grid on a shorter stream no operation uses fills the
    // shared RunCache, so the timed points measure the warm serving path.
    Scope warm(tracer, "serve.warm");
    std::vector<std::vector<serve::Request>> streams;
    for (const double rate : kServeRates) {
      streams.push_back(serve_stream(0xa11ce, rate, requests_ / 4));
    }
    for (const ServePoint& point : points_) {
      serve::Simulator(config_of(point), *pool_).run(streams[point.rate]);
    }
  }

  std::vector<std::string> keys() const override {
    std::vector<std::string> keys;
    for (int t = 0; t < traffic_seeds_; ++t) {
      for (const ServePoint& p : points_) {
        std::string key = "t";
        key += std::to_string(t);
        key += ".";
        key += serve::to_string(p.policy);
        key += ".r";
        key += std::to_string(static_cast<int>(kServeRates[p.rate]));
        key += p.batching ? ".b1" : ".b0";
        keys.push_back(std::move(key));
      }
    }
    return keys;
  }

  // One block per traffic seed: the 24 grid points in a seeded order.
  std::vector<std::vector<std::size_t>> blocks(std::uint64_t seed) const override {
    std::vector<std::vector<std::size_t>> blocks;
    for (const std::size_t t : permutation(static_cast<std::size_t>(traffic_seeds_), seed)) {
      std::vector<std::size_t> block;
      for (const std::size_t p : permutation(points_.size(), mix64(seed ^ (t + 1)))) {
        block.push_back(t * points_.size() + p);
      }
      blocks.push_back(std::move(block));
    }
    return blocks;
  }

  OpResult run(std::size_t op, Tracer* tracer, std::int64_t op_id) override {
    Scope root(tracer, "serve_grid.op", op_id);
    const std::size_t traffic = op / points_.size();
    const ServePoint& point = points_[op % points_.size()];
    const serve::ServeConfig config = config_of(point);
    const std::vector<serve::Request> requests =
        serve_stream(0x5e12e + 7919 * (traffic + 1), kServeRates[point.rate], requests_);
    const auto cache_before = cache_counts(pool_->run_cache().get());

    OpResult out;
    serve::ServeResult result;
    {
      const double t0 = now_seconds();
      Scope call(tracer, "serve.simulate", op_id);
      serve::Simulator simulator(config, *pool_);
      result = simulator.run(requests);
      out.seconds = now_seconds() - t0;
    }
    add_cache_delta(out, cache_before, cache_counts(pool_->run_cache().get()));

    for (const serve::JobRecord& job : result.jobs) {
      out.sim_nnz += job.request_count * nnz_.at(job.matrix_id);
    }
    out.grid_points = 1.0;
    out.layers["serve.requests"] += static_cast<double>(requests.size());
    out.layers["serve.jobs"] += static_cast<double>(result.jobs.size());
    out.layers["serve.seconds"] += out.seconds;

    if (tracer != nullptr) {
      // The pricing share of the serving loop: the run's job stream priced
      // again through a fresh ServiceModel on the same warm pool.
      const double t0 = now_seconds();
      Scope price(tracer, "service_model.price", op_id);
      serve::ServiceModel model(config.engine, *pool_, config.verify);
      for (const serve::JobRecord& job : result.jobs) model.timing(job.matrix_id, job.cores);
      out.layers["service_model.seconds"] += now_seconds() - t0;
      out.layers["service_model.jobs"] += static_cast<double>(result.jobs.size());
    }

    Scope digest_span(tracer, "bench.digest", op_id);
    Digest digest;
    digest_serve(digest, result);
    out.digest = digest.value();
    return out;
  }

 private:
  static serve::ServeConfig config_of(const ServePoint& point) {
    serve::ServeConfig config;
    config.policy = point.policy;
    config.batching = point.batching;
    return config;
  }

  double scale_;
  int requests_;
  int traffic_seeds_;
  std::vector<ServePoint> points_;
  std::unique_ptr<serve::MatrixPool> pool_;
  std::map<int, double> nnz_;
};

// ---------------------------------------------------------------------------
// cluster_faults: seeded fault plans on a 4-chip cluster, one shared pool.

constexpr double kClusterRate = 4000.0;

class ClusterFaults final : public Workload {
 public:
  explicit ClusterFaults(Size size)
      : scale_(scale_of(size)),
        requests_(size == Size::kFull ? 4000 : 1000),
        plans_(size == Size::kFull ? 192 : 8) {}

  void setup(Tracer* tracer) override {
    Scope span(tracer, "setup.cluster_faults");
    pool_ = std::make_unique<serve::MatrixPool>(scale_);
    for (const int id : kMix) {
      Scope load(tracer, "testbed.build_entry");
      nnz_[id] = static_cast<double>(pool_->entry(id).matrix.nnz());
    }
    // A fault-free run on an unused stream prices the healthy timings once;
    // the degraded and cold timings the fault plans need stay misses.
    Scope warm(tracer, "cluster.warm");
    cluster::ClusterConfig config = base_config();
    cluster::ClusterSimulator simulator(config, *pool_);
    simulator.run(serve_stream(0xa11ce, kClusterRate, requests_));
  }

  std::vector<std::string> keys() const override {
    std::vector<std::string> keys;
    for (int k = 0; k < plans_; ++k) keys.push_back(std::string("p") += std::to_string(k));
    return keys;
  }

  std::vector<std::vector<std::size_t>> blocks(std::uint64_t seed) const override {
    std::vector<std::vector<std::size_t>> blocks;
    for (const std::size_t k : permutation(static_cast<std::size_t>(plans_), seed)) {
      blocks.push_back({k});
    }
    return blocks;
  }

  OpResult run(std::size_t op, Tracer* tracer, std::int64_t op_id) override {
    Scope root(tracer, "cluster_faults.op", op_id);
    const std::vector<serve::Request> requests =
        serve_stream(0xc1a55 + 7919 * (op + 1), kClusterRate, requests_);
    const cluster::ClusterConfig config = plan_config(op);
    const auto cache_before = cache_counts(pool_->run_cache().get());
    OpResult out;
    cluster::ClusterResult result;
    {
      const double t0 = now_seconds();
      Scope call(tracer, "cluster.simulate", op_id);
      cluster::ClusterSimulator simulator(config, *pool_);
      result = simulator.run(requests);
      out.seconds = now_seconds() - t0;
    }
    add_cache_delta(out, cache_before, cache_counts(pool_->run_cache().get()));

    for (const cluster::ClusterRequestRecord& rec : result.records) {
      if (rec.outcome == cluster::Outcome::kCompleted) {
        out.sim_nnz += nnz_.at(rec.request.matrix_id);
      }
    }
    out.grid_points = 1.0;
    out.layers["cluster.requests"] += static_cast<double>(requests.size());
    out.layers["cluster.seconds"] += out.seconds;
    out.layers["cluster.runs"] += 1.0;
    out.layers["cluster.retries"] += result.retries;
    out.layers["cluster.failovers"] += result.failovers;
    out.layers["cluster.hedges"] += result.hedges;
    out.layers["cluster.log_events"] += static_cast<double>(result.log.size());

    Scope digest_span(tracer, "bench.digest", op_id);
    Digest digest;
    for (const cluster::LogEvent& event : result.log) digest.text(cluster::describe(event));
    for (const cluster::ClusterRequestRecord& rec : result.records) {
      digest.i64(rec.request.id);
      digest.i64(static_cast<int>(rec.outcome));
      digest.i64(rec.chip);
      digest.i64(rec.attempts);
      digest.i64(rec.failovers);
      digest.u64((rec.hedged ? 1 : 0) | (rec.hedge_won ? 2 : 0) | (rec.reshipped ? 4 : 0) |
                 (rec.cold ? 8 : 0));
      digest.text(rec.dead_letter_reason);
      digest.f64(rec.dispatch_seconds);
      digest.f64(rec.completion_seconds);
    }
    digest.i64(result.completed);
    digest.i64(result.rejected);
    digest.i64(result.dead_lettered);
    out.digest = digest.value();
    return out;
  }

 private:
  static cluster::ClusterConfig base_config() {
    cluster::ClusterConfig config;
    config.chip_count = 4;
    config.placement.replicas = 2;
    config.chip.verify = integrity::VerifyMode::kDetect;
    return config;
  }

  /// Plan k: two chip crashes with automatic restart, two tile kills, one
  /// MC brownout, 1% transient job failures and one bad-DRAM chip, placed
  /// in the arrival window by seeded draws.
  cluster::ClusterConfig plan_config(std::size_t k) const {
    cluster::ClusterConfig config = base_config();
    std::uint64_t state = mix64(0xfa117 + k);
    const auto uniform = [&state] {
      state = mix64(state);
      return static_cast<double>(state >> 11) * 0x1p-53;
    };
    const auto pick = [&uniform](int n) { return static_cast<int>(uniform() * n); };
    const double window = requests_ / kClusterRate;

    cluster::FaultPlan& plan = config.faults;
    plan.seed = mix64(state);
    const int first = pick(4);
    const int second = (first + 1 + pick(3)) % 4;
    const double first_at = window * (0.15 + 0.3 * uniform());
    const double second_at = window * (0.45 + 0.3 * uniform());
    plan.chip_crashes = {{first, first_at}, {second, second_at}};
    plan.restart_downtime_seconds = 0.1 * window;
    for (int kill = 0; kill < 2; ++kill) {
      const int chip = pick(4);
      const int core = pick(48);
      plan.tile_kills.push_back({chip, core, window * (0.05 + 0.8 * uniform())});
    }
    const int brownout_chip = pick(4);
    const int brownout_mc = pick(4);
    plan.brownouts = {{brownout_chip, brownout_mc, window * (0.1 + 0.6 * uniform()),
                       0.2 * window, 2.0}};
    plan.job_failure_rate = 0.01;
    plan.bad_dram = {{pick(4), 0.05, 0.9}};
    return config;
  }

  double scale_;
  int requests_;
  int plans_;
  std::unique_ptr<serve::MatrixPool> pool_;
  std::map<int, double> nnz_;
};

// ---------------------------------------------------------------------------
// tune_explore: full-grid Autotuner::decide on fresh caches.

class TuneExplore final : public Workload {
 public:
  explicit TuneExplore(Size size) : scale_(scale_of(size)) {}

  void setup(Tracer* tracer) override {
    Scope span(tracer, "setup.tune_explore");
    matrices_.clear();
    for (const int id : kMix) matrices_.push_back(load_entry(tracer, id, scale_));
  }

  std::vector<std::string> keys() const override {
    std::vector<std::string> keys;
    for (const int id : kMix) keys.push_back(std::string("m") += std::to_string(id));
    return keys;
  }

  std::vector<std::vector<std::size_t>> blocks(std::uint64_t seed) const override {
    std::vector<std::vector<std::size_t>> blocks;
    for (std::uint64_t pass = 0; pass < 8; ++pass) {
      blocks.push_back(permutation(kMix.size(), mix64(seed + pass)));
    }
    return blocks;
  }

  // Every pass starts from empty caches, as a fresh serving pool would.
  void begin_block(const std::vector<std::size_t>& block) override {
    (void)block;
    run_cache_ = run_cache_enabled() ? std::make_shared<sim::RunCache>(sim::RunCacheConfig{})
                                     : nullptr;
    tune::AutotuneConfig config;
    config.feature_fastpath = false;
    tuner_ = std::make_unique<tune::Autotuner>(
        sim::EngineConfig{}, config, std::make_shared<tune::TuningCache>(config.cache),
        run_cache_);
  }

  OpResult run(std::size_t op, Tracer* tracer, std::int64_t op_id) override {
    Scope root(tracer, "tune_explore.op", op_id);
    const testbed::SuiteEntry& entry = matrices_[op];
    const std::size_t log_before = tuner_->decision_log_text().size();
    const double runs_before = static_cast<double>(tuner_->counters().explore_runs);
    const auto cache_before = cache_counts(run_cache_.get());

    OpResult out;
    {
      const double t0 = now_seconds();
      Scope call(tracer, "tune.decide", op_id);
      tuner_->decide(entry.matrix, entry.id);
      out.seconds = now_seconds() - t0;
    }
    add_cache_delta(out, cache_before, cache_counts(run_cache_.get()));
    const double runs = static_cast<double>(tuner_->counters().explore_runs) - runs_before;
    out.sim_nnz = runs * static_cast<double>(entry.matrix.nnz());
    out.grid_points = runs;
    out.layers["tune.decides"] += 1.0;
    out.layers["tune.seconds"] += out.seconds;
    out.layers["tune.explore_runs"] += runs;
    // Simulations actually executed: the run-cache misses, or every grid
    // point when memoization is off.
    out.layers["engine.runs"] += run_cache_ != nullptr ? out.layers["run_cache.misses"] : runs;

    Scope digest_span(tracer, "bench.digest", op_id);
    Digest digest;
    digest.text(tuner_->decision_log_text().substr(log_before));
    out.digest = digest.value();
    return out;
  }

 private:
  double scale_;
  std::vector<testbed::SuiteEntry> matrices_;
  std::shared_ptr<sim::RunCache> run_cache_;
  std::unique_ptr<tune::Autotuner> tuner_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig5_grid", "serve_grid", "cluster_faults",
                                                 "tune_explore"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, Size size) {
  if (name == "fig5_grid") return std::make_unique<Fig5Grid>(size);
  if (name == "serve_grid") return std::make_unique<ServeGrid>(size);
  if (name == "cluster_faults") return std::make_unique<ClusterFaults>(size);
  if (name == "tune_explore") return std::make_unique<TuneExplore>(size);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perf
