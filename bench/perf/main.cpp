// scc_perf: host-performance benchmark of the simulator (see README.md).
//
//   scc_perf --workload NAME|all [--seed N] [--seconds S] [--size full|smoke]
//            [--golden FILE] [--trace=FILE]
//   scc_perf --workload NAME|all --size full|smoke --write-golden FILE
//   scc_perf --prepare [--size full|smoke]
//
// A measured run sets the workload up at least three times, and until a
// second of set-up has been timed (setup_s is the median). It then
// runs blocks of operations for about --seconds and checks every
// operation's digest against the golden file. With --trace=FILE it
// instead spends half the time untraced and replays the same operations
// traced on a fresh set-up, then prints the per-layer metrics and writes
// the spans as JSONL. The last stdout line is one JSON result object.
// --prepare only fills the testbed matrix cache, so that no measured
// set-up pays for generating matrices.
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/parallel.hpp"
#include "obs/json.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "testbed/cache.hpp"
#include "testbed/specs.hpp"
#include "testbed/suite.hpp"
#include "workloads.hpp"

namespace {

using perf::OpResult;
using perf::Size;
using perf::Tracer;
using perf::Workload;
using scc::obs::Json;

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},        {"op_ms_p50", "ms"},
    {"op_ms_p90", "ms"},        {"sim_mnnz_per_s", "Mnnz/s"}, {"grid_points_per_s", "1/s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"testbed.load_ms", "ms"},
    {"sparse.partition_us", "us"},
    {"sparse.rcm_ms", "ms"},
    {"replay.ns_per_ref", "ns/ref"},
    {"replay.format_ns_per_ref", "ns/ref"},
    {"engine.replay_share", "frac"},
    {"engine.span_coverage", "frac"},
    {"engine.parallel_eff", "frac"},
    {"engine.runs", "count"},
    {"run_cache.key_us", "us"},
    {"run_cache.hit_ns", "ns"},
    {"run_cache.insert_us", "us"},
    {"run_cache.hits", "count"},
    {"run_cache.misses", "count"},
    {"run_cache.hit_ratio", "frac"},
    {"loadgen.ns_per_request", "ns/req"},
    {"service_model.price_us", "us/job"},
    {"serve.ns_per_request", "ns/req"},
    {"serve.ns_per_job", "ns/job"},
    {"serve.loop_self_share", "frac"},
    {"cluster.ns_per_request", "ns/req"},
    {"cluster.degraded_price_ms", "ms"},
    {"cluster.retries", "count/run"},
    {"cluster.failovers", "count/run"},
    {"cluster.hedges", "count/run"},
    {"cluster.log_events", "count/run"},
    {"integrity.verify_us", "us"},
    {"tune.decide_s", "s"},
    {"tune.explore_runs", "count/decide"},
    {"trace.overhead_frac", "frac"},
    {"host.effective_cores", "cores"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Size size = Size::kFull;
  std::string golden;
  std::string write_golden;
  std::string trace;
  bool prepare = false;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--prepare") {
      o.prepare = true;
      continue;
    }
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("missing value for " + arg);
    }
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--size") {
      if (value != "full" && value != "smoke") throw std::invalid_argument("--size full|smoke");
      o.size = value == "full" ? Size::kFull : Size::kSmoke;
    } else if (arg == "--golden") {
      o.golden = value;
    } else if (arg == "--write-golden") {
      o.write_golden = value;
    } else if (arg == "--trace") {
      o.trace = value;
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (o.workload.empty() && !o.prepare) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

const char* size_name(Size size) { return size == Size::kFull ? "full" : "smoke"; }

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Linear-interpolated quantile of a sample (0 when empty).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// One phase of operations and what they produced.
struct Phase {
  std::vector<OpResult> results;
  std::size_t blocks_run = 0;
  double seconds() const {
    double total = 0.0;
    for (const OpResult& r : results) total += r.seconds;
    return total;
  }
};

/// Golden digests of one (size, workload), or empty when unchecked.
using Golden = std::unordered_map<std::string, std::string>;

class Runner {
 public:
  Runner(Workload& workload, const Golden* golden)
      : workload_(workload), golden_(golden), keys_(workload.keys()) {}

  /// Run `count` blocks (cycling through `blocks`), or, when `budget` > 0,
  /// blocks until the run is as close to `budget` seconds as whole blocks
  /// allow: the next block starts only if it is expected to end less than
  /// half a block past the budget.
  Phase run(const std::vector<std::vector<std::size_t>>& blocks, std::size_t count,
            double budget, Tracer* tracer) {
    Phase phase;
    const double start = perf::now_seconds();
    for (std::size_t b = 0; budget > 0.0 || b < count; ++b) {
      const double elapsed = perf::now_seconds() - start;
      if (budget > 0.0 && b > 0 && elapsed + 0.5 * elapsed / static_cast<double>(b) > budget) {
        break;
      }
      const std::vector<std::size_t>& block = blocks[b % blocks.size()];
      workload_.begin_block(block);
      for (const std::size_t op : block) phase.results.push_back(run_op(op, tracer));
      ++phase.blocks_run;
    }
    return phase;
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<std::pair<std::string, std::string>>& digests() const { return digests_; }

 private:
  OpResult run_op(std::size_t op, Tracer* tracer) {
    ++attempted_;
    const std::string& key = keys_[op];
    try {
      OpResult result = workload_.run(op, tracer, static_cast<std::int64_t>(attempted_));
      const std::string digest = perf::hex(result.digest);
      digests_.emplace_back(key, digest);
      if (golden_ != nullptr) {
        const auto it = golden_->find(key);
        if (it == golden_->end() || it->second != digest) {
          fail(key, it == golden_->end() ? "no golden digest"
                                         : "digest " + digest + " != golden " + it->second);
        }
      }
      return result;
    } catch (const std::exception& e) {
      fail(key, e.what());
      return OpResult{};
    }
  }

  void fail(const std::string& key, const std::string& why) {
    if (++failed_ <= 10) std::cerr << "scc_perf: operation " << key << " failed: " << why << '\n';
  }

  Workload& workload_;
  const Golden* golden_;
  std::vector<std::string> keys_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::pair<std::string, std::string>> digests_;
};

/// Blocks needed, in order, until every operation key has run once.
std::size_t covering_count(const std::vector<std::vector<std::size_t>>& blocks,
                           std::size_t key_count) {
  std::set<std::size_t> seen;
  std::size_t count = 0;
  while (seen.size() < key_count && count < blocks.size()) {
    seen.insert(blocks[count].begin(), blocks[count].end());
    ++count;
  }
  if (seen.size() < key_count) throw std::logic_error("blocks do not cover every operation");
  return count;
}

std::map<std::string, double> end_to_end(const Phase& phase, double setup_s) {
  std::vector<double> op_ms;
  double nnz = 0.0, points = 0.0;
  for (const OpResult& r : phase.results) {
    op_ms.push_back(r.seconds * 1e3);
    nnz += r.sim_nnz;
    points += r.grid_points;
  }
  const double seconds = phase.seconds();
  return {{"setup_s", setup_s},
          {"peak_rss_mb", peak_rss_mb()},
          {"op_ms_p50", quantile(op_ms, 0.5)},
          {"op_ms_p90", quantile(op_ms, 0.9)},
          {"sim_mnnz_per_s", ratio(nnz, seconds) / 1e6},
          {"grid_points_per_s", ratio(points, seconds)}};
}

std::map<std::string, double> per_layer(const Phase& traced, const Phase& untraced,
                                        const Tracer& tracer, std::map<std::string, double> out,
                                        double effective_cores) {
  std::map<std::string, double> n;  // summed layer counts of the traced ops
  for (const OpResult& r : traced.results) {
    for (const auto& [name, value] : r.layers) n[name] += value;
  }
  const std::vector<perf::Span>& spans = tracer.spans();
  const std::vector<double> self = tracer.self_seconds();
  double load = 0.0, loads = 0.0, run = 0.0, run_self = 0.0, replay = 0.0;
  double rank_work = 0.0, replay_capacity = 0.0;
  std::map<int, std::pair<double, double>> ranks;  // replay span -> (rank count, rank time)
  for (const perf::Span& s : spans) {
    const double d = s.end - s.start;
    if (s.name == "testbed.build_entry") {
      load += d;
      loads += 1.0;
    } else if (s.name == "engine.run") {
      run += d;
      run_self += self[static_cast<std::size_t>(s.id)];
    } else if (s.name == "engine.trace_replay") {
      replay += d;
    } else if (s.name == "engine.core_trace") {
      ranks[s.parent].first += 1.0;
      ranks[s.parent].second += d;
    }
  }
  const double threads = scc::common::sim_thread_count();
  for (const auto& [id, rank] : ranks) {
    const perf::Span& parent = spans[static_cast<std::size_t>(id)];
    rank_work += rank.second;
    replay_capacity += (parent.end - parent.start) * std::min(threads, rank.first);
  }
  const double hits = n["run_cache.hits"];
  const double misses = n["run_cache.misses"];
  out["testbed.load_ms"] = 1e3 * ratio(load, loads);
  out["engine.replay_share"] = ratio(replay, run);
  out["engine.span_coverage"] = run > 0.0 ? 1.0 - run_self / run : 0.0;
  out["engine.parallel_eff"] = ratio(rank_work, replay_capacity);
  out["engine.runs"] = n["engine.runs"];
  out["run_cache.hits"] = hits;
  out["run_cache.misses"] = misses;
  out["run_cache.hit_ratio"] = ratio(hits, hits + misses);
  out["service_model.price_us"] =
      1e6 * ratio(n["service_model.seconds"], n["service_model.jobs"]);
  out["serve.ns_per_request"] = 1e9 * ratio(n["serve.seconds"], n["serve.requests"]);
  out["serve.ns_per_job"] = 1e9 * ratio(n["serve.seconds"], n["serve.jobs"]);
  out["serve.loop_self_share"] =
      n["serve.seconds"] > 0.0 ? 1.0 - n["service_model.seconds"] / n["serve.seconds"] : 0.0;
  out["cluster.ns_per_request"] = 1e9 * ratio(n["cluster.seconds"], n["cluster.requests"]);
  for (const char* count : {"retries", "failovers", "hedges", "log_events"}) {
    out[std::string("cluster.") + count] =
        ratio(n[std::string("cluster.") + count], n["cluster.runs"]);
  }
  out["tune.decide_s"] = ratio(n["tune.seconds"], n["tune.decides"]);
  out["tune.explore_runs"] = ratio(n["tune.explore_runs"], n["tune.decides"]);
  out["trace.overhead_frac"] = ratio(traced.seconds(), untraced.seconds()) - 1.0;
  out["host.effective_cores"] = effective_cores;
  return out;
}

Json metrics_json(const std::vector<MetricDef>& defs, const std::map<std::string, double>& values,
                  const std::string& label) {
  Json metrics = Json::object();
  for (const MetricDef& def : defs) {
    const double value = values.at(def.name);
    std::cout << label << "  " << def.name << " = " << value << ' ' << def.unit << '\n';
    Json metric = Json::object();
    metric.set("value", value);
    metric.set("unit", def.unit);
    metrics.set(def.name, std::move(metric));
  }
  return metrics;
}

struct Outcome {
  Json result;
  bool correct = false;
  std::vector<std::pair<std::string, std::string>> digests;  ///< (key, hex) per operation
};

Outcome run_workload(const std::string& name, const Options& o, const Json* golden_file) {
  Golden golden;
  const Golden* check = nullptr;
  if (golden_file != nullptr) {
    const Json* by_size = golden_file->find(size_name(o.size));
    const Json* digests = by_size != nullptr ? by_size->find(name) : nullptr;
    if (digests == nullptr) {
      throw std::runtime_error(std::string("golden file has no ") + size_name(o.size) + "/" +
                               name + " digests");
    }
    for (const auto& [key, value] : digests->items()) golden[key] = value.as_string();
    check = &golden;
  }

  const bool traced = !o.trace.empty();
  const bool covering = o.size == Size::kSmoke || !o.write_golden.empty();
  const double cores = perf::effective_cores(0.2);
  std::cerr << "scc_perf: " << name << " size=" << size_name(o.size) << " seed=" << o.seed
            << " sim_threads=" << scc::common::sim_thread_count()
            << " effective_cores=" << cores << '\n';

  // Cheap set-ups are repeated more, so their median is not one noisy read.
  std::vector<double> setup_seconds;
  double setup_total = 0.0;
  std::unique_ptr<Workload> workload;
  for (int rep = 0; rep < 3 || (setup_total < 1.0 && rep < 25); ++rep) {
    workload.reset();
    workload = perf::make_workload(name, o.size);
    const double t0 = perf::now_seconds();
    workload->setup(nullptr);
    setup_seconds.push_back(perf::now_seconds() - t0);
    setup_total += setup_seconds.back();
  }
  const double setup_s = quantile(setup_seconds, 0.5);

  Runner runner(*workload, check);
  const auto blocks = workload->blocks(o.seed);
  const std::size_t cover = covering ? covering_count(blocks, workload->keys().size()) : 0;
  const double budget = covering ? 0.0 : (traced ? o.seconds / 2.0 : o.seconds);
  const Phase phase = runner.run(blocks, cover, budget, nullptr);

  std::map<std::string, double> values;
  std::size_t attempted = runner.attempted();
  std::size_t failed = runner.failed();
  const std::vector<MetricDef>* defs = &kEndToEnd;
  if (traced) {
    // The traced replay starts from its own fresh set-up, so both phases
    // meet the caches in the same state.
    workload.reset();
    workload = perf::make_workload(name, o.size);
    Tracer tracer;
    workload->setup(&tracer);
    Runner traced_runner(*workload, check);
    const Phase traced_phase = traced_runner.run(blocks, phase.blocks_run, 0.0, &tracer);
    attempted += traced_runner.attempted();
    failed += traced_runner.failed();
    values = per_layer(traced_phase, phase, tracer,
                       perf::probe_layers(tracer, perf::scale_of(o.size)), cores);
    std::ofstream out(o.trace);
    if (!out) throw std::runtime_error("cannot write " + o.trace);
    tracer.write_jsonl(out);
    defs = &kPerLayer;
  } else {
    values = end_to_end(phase, setup_s);
  }

  std::cout << name << ": " << attempted << " operations, " << failed
            << " failed (failed_ops_frac "
            << ratio(static_cast<double>(failed), static_cast<double>(attempted)) << "), "
            << phase.blocks_run << " blocks\n";
  Outcome outcome;
  outcome.correct = failed == 0 && attempted > 0;
  outcome.result = Json::object();
  outcome.result.set("correct", outcome.correct);
  outcome.result.set("attempted", attempted);
  outcome.result.set("failed", failed);
  outcome.result.set("metrics", metrics_json(*defs, values, name));
  outcome.digests = runner.digests();
  return outcome;
}

void write_golden(const std::string& path, Size size, const std::string& workload,
                  const std::vector<std::pair<std::string, std::string>>& pairs) {
  Json digests = Json::object();
  for (const auto& [key, digest] : pairs) digests.set(key, digest);
  Json file = Json::object();
  if (std::ifstream probe(path); probe) file = Json::parse(read_file(path));
  Json by_size = file.has(size_name(size)) ? file.at(size_name(size)) : Json::object();
  by_size.set(workload, std::move(digests));
  file.set(size_name(size), std::move(by_size));
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << file.dump(1) << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_options(argc, argv);
    if (o.prepare) {
      for (const scc::testbed::MatrixSpec& spec : scc::testbed::table1_specs()) {
        scc::testbed::build_entry(spec.id, perf::scale_of(o.size));
      }
      std::cerr << "scc_perf: testbed cache ready at " << scc::testbed::cache_directory() << '\n';
      return 0;
    }
    std::unique_ptr<Json> golden;
    if (!o.golden.empty()) golden = std::make_unique<Json>(Json::parse(read_file(o.golden)));
    const std::vector<std::string> names =
        o.workload == "all" ? perf::workload_names() : std::vector<std::string>{o.workload};

    bool correct = true;
    std::size_t attempted = 0, failed = 0;
    Json last;
    for (const std::string& name : names) {
      Outcome outcome = run_workload(name, o, golden.get());
      correct = correct && outcome.correct;
      attempted += static_cast<std::size_t>(outcome.result.at("attempted").as_int());
      failed += static_cast<std::size_t>(outcome.result.at("failed").as_int());
      if (!o.write_golden.empty()) {
        write_golden(o.write_golden, o.size, name, outcome.digests);
      }
      last = std::move(outcome.result);
      if (names.size() > 1) std::cout << "{\"workload\": \"" << name << "\", \"result\": "
                                      << last.dump() << "}\n";
    }
    if (names.size() > 1) {
      last = Json::object();
      last.set("correct", correct);
      last.set("attempted", attempted);
      last.set("failed", failed);
      last.set("metrics", Json::object());
    }
    std::cout << last.dump() << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "scc_perf: " << e.what() << '\n';
    return 2;
  }
}
