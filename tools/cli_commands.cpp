#include "cli_commands.hpp"

#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <cmath>
#include <memory>
#include <sstream>

#include "cluster/report.hpp"
#include "cluster/simulator.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "fault/fault.hpp"
#include "gen/generators.hpp"
#include "integrity/integrity.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "serve/loadgen.hpp"
#include "serve/report.hpp"
#include "serve/simulator.hpp"
#include "sim/engine.hpp"
#include "sim/report.hpp"
#include "sparse/io.hpp"
#include "sparse/properties.hpp"
#include "sparse/reorder.hpp"
#include "spmv/rcce_spmv.hpp"
#include "testbed/suite.hpp"
#include "tune/autotuner.hpp"

namespace scc::tools {

namespace {

/// A matrix built or loaded after the flag check (a testbed load may write
/// its cache file).
using MatrixSource = std::function<sparse::CsrMatrix()>;

/// --family F and every family's shape flags, read whichever family is chosen.
MatrixSource family_from(const CliArgs& args) {
  const std::string family = args.get_or("family", "banded");
  const int n = args.get_int_or("n", 10000);
  const std::uint64_t seed = seed_option(args, 1);
  const int half_bandwidth = args.get_int_or("half-bandwidth", 20);
  const double fill = args.get_double_or("fill", 0.4);
  const int side = args.get_int_or("side", family == "stencil3d" ? 22 : 100);
  const int blocks = args.get_int_or("blocks", 500);
  const int block_size = args.get_int_or("block-size", 8);
  const int couplings = args.get_int_or("couplings", 3);
  const int row_nnz = args.get_int_or("row-nnz", 10);
  const int avg_row_nnz = args.get_int_or("avg-row-nnz", 10);
  const double alpha = args.get_double_or("alpha", 1.2);
  const double extra_per_row = args.get_double_or("extra-per-row", 2.0);
  const double long_range = args.get_double_or("long-range", 0.4);
  if (family == "banded") return [=] { return gen::banded(n, half_bandwidth, fill, seed); };
  if (family == "stencil2d") return [=] { return gen::stencil_2d(side, side); };
  if (family == "stencil3d") return [=] { return gen::stencil_3d(side, side, side); };
  if (family == "fem") {
    return [=] { return gen::fem_blocks(blocks, block_size, couplings, seed); };
  }
  if (family == "random") return [=] { return gen::random_uniform(n, row_nnz, seed); };
  if (family == "power-law") return [=] { return gen::power_law(n, avg_row_nnz, alpha, seed); };
  if (family == "circuit") {
    return [=] { return gen::circuit(n, extra_per_row, long_range, seed); };
  }
  SCC_REQUIRE(false, "unknown family '" << family
                                        << "' (banded|stencil2d|stencil3d|fem|random|"
                                           "power-law|circuit)");
  return {};
}

/// --matrix FILE, or --id K for a Table-I stand-in.
MatrixSource input_from(const CliArgs& args) {
  if (const auto path = args.get("matrix")) {
    return [path = *path] { return sparse::read_matrix_market_file(path); };
  }
  if (args.has("id")) {
    const int id = args.get_int_or("id", 1);
    return [id] { return testbed::build_entry(id, testbed::suite_scale_from_env()).matrix; };
  }
  return []() -> sparse::CsrMatrix {
    SCC_REQUIRE(false, "provide --matrix <file.mtx> or --id <1..32>");
    return {};
  };
}

/// Every command's last flag read, before it loads, runs or writes anything:
/// the output flags, then the rejection of every flag it did not read (a
/// misspelled or retired flag would leave a default in place). --seed and
/// --sim-threads, which every command takes, pass either way.
OutputOptions finish_flags(const CliArgs& args) {
  const OutputOptions output = parse_output_options(args);
  for (const char* shared : {"seed", "sim-threads"}) args.get(shared);
  const std::vector<std::string> unread = args.unread();
  SCC_REQUIRE(unread.empty(), "unknown or unused flag --" << unread.front() << " for '"
                                                           << args.positional().front() << "'");
  return output;
}

chip::MappingPolicy mapping_from(const CliArgs& args) {
  const std::string name = args.get_or("mapping", "dr");
  if (name == "standard" || name == "std") return chip::MappingPolicy::kStandard;
  if (name == "dr" || name == "distance-reduction") {
    return chip::MappingPolicy::kDistanceReduction;
  }
  if (name == "ca" || name == "contention-aware") return chip::MappingPolicy::kContentionAware;
  SCC_REQUIRE(false, "unknown mapping '" << name << "' (standard|dr|ca)");
  return chip::MappingPolicy::kStandard;
}

chip::FrequencyConfig conf_from(const CliArgs& args) {
  switch (args.get_int_or("conf", 0)) {
    case 0:
      return chip::FrequencyConfig::conf0();
    case 1:
      return chip::FrequencyConfig::conf1();
    case 2:
      return chip::FrequencyConfig::conf2();
    default:
      SCC_REQUIRE(false, "conf must be 0, 1 or 2");
  }
  return chip::FrequencyConfig::conf0();
}

sim::StorageFormat format_from(const CliArgs& args) {
  const std::string name = args.get_or("format", "csr");
  if (name == "csr") return sim::StorageFormat::kCsr;
  if (name == "ell") return sim::StorageFormat::kEll;
  if (name == "bcsr2") return sim::StorageFormat::kBcsr2;
  if (name == "bcsr4") return sim::StorageFormat::kBcsr4;
  if (name == "hyb") return sim::StorageFormat::kHyb;
  SCC_REQUIRE(false, "unknown format '" << name << "' (csr|ell|bcsr2|bcsr4|hyb)");
  return sim::StorageFormat::kCsr;
}

/// --verify=off|detect|correct: the ABFT mode shared by `simulate`, `serve`
/// and `cluster` (integrity::parse_verify_mode rejects anything else with
/// the valid spellings).
integrity::VerifyMode verify_mode_from(const CliArgs& args) {
  return integrity::parse_verify_mode(args.get_or("verify", "off"));
}

/// --sdc-rate / --sdc-sticky / --sdc-seed / --sdc-bits=MIN:MAX into an SDC
/// injection plan (simulate's and serve's corruption model; the cluster
/// command instead injects through the fault plan's sdc_rate / bad_dram).
integrity::SdcPlan sdc_plan_from(const CliArgs& args) {
  integrity::SdcPlan sdc;
  sdc.rate = args.get_double_or("sdc-rate", sdc.rate);
  sdc.sticky_rate = args.get_double_or("sdc-sticky", sdc.sticky_rate);
  SCC_REQUIRE(sdc.rate >= 0.0 && sdc.rate <= 1.0,
              "--sdc-rate must be a probability in [0, 1], got " << sdc.rate);
  SCC_REQUIRE(sdc.sticky_rate >= 0.0 && sdc.sticky_rate <= 1.0,
              "--sdc-sticky must be a probability in [0, 1], got " << sdc.sticky_rate);
  if (args.has("sdc-seed")) sdc.seed = parse_seed(args.get_or("sdc-seed", ""));
  if (const auto bits = args.get("sdc-bits")) {
    const auto sep = bits->find(':');
    SCC_REQUIRE(sep != std::string::npos && bits->find(':', sep + 1) == std::string::npos,
                "--sdc-bits expects MIN:MAX (e.g. 32:62), got '" << *bits << "'");
    const int lo = parse_int_token("--sdc-bits", bits->substr(0, sep));
    const int hi = parse_int_token("--sdc-bits", bits->substr(sep + 1));
    SCC_REQUIRE(lo >= 0 && lo <= hi && hi <= 63,
                "--sdc-bits needs 0 <= MIN <= MAX <= 63, got '" << *bits << "'");
    sdc.min_bit = lo;
    sdc.max_bit = hi;
  }
  return sdc;
}

/// Render a finished report per the shared output flags: pretty JSON into
/// --json=FILE or onto `out`.
void write_json_report(const OutputOptions& output, const obs::Json& report,
                       std::ostream& out) {
  if (!output.json_path.empty()) {
    std::ofstream file(output.json_path);
    SCC_REQUIRE(file.good(), "cannot open --json file '" << output.json_path << "'");
    file << report.dump(2) << '\n';
  } else {
    out << report.dump(2) << '\n';
  }
}

/// Dump the recorder's spans/events as JSON lines into --trace=FILE.
void write_trace(const OutputOptions& output, const obs::Recorder& recorder) {
  if (output.trace_path.empty()) return;
  std::ofstream file(output.trace_path);
  SCC_REQUIRE(file.good(), "cannot open --trace file '" << output.trace_path << "'");
  recorder.write_jsonl(file);
}

std::vector<int> parse_int_list(const std::string& text, const char* flag) {
  std::vector<int> values;
  for (const std::string& item : split_items(flag, text, ',')) {
    values.push_back(parse_int_token(flag, item));
  }
  return values;
}

/// Workload flags shared by `serve` and `cluster`.
serve::WorkloadSpec workload_from(const CliArgs& args) {
  serve::WorkloadSpec workload;
  workload.seed = seed_option(args, workload.seed);
  workload.offered_rps = args.get_double_or("load", workload.offered_rps);
  workload.request_count = args.get_int_or("requests", workload.request_count);
  if (const auto mix = args.get("mix")) {
    workload.matrix_mix = parse_int_list(*mix, "--mix");
  }
  workload.interactive_fraction =
      args.get_double_or("interactive-fraction", workload.interactive_fraction);
  workload.slo_interactive_seconds =
      args.get_double_or("slo-interactive", workload.slo_interactive_seconds);
  workload.slo_batch_seconds = args.get_double_or("slo-batch", workload.slo_batch_seconds);
  return workload;
}

/// Autotuning flags shared by `autotune`, `serve` and `cluster`:
/// --tuning-cache-file persists pinned winners across processes;
/// --tuning-cache-capacity bounds the decision map; --fastpath off disables
/// the feature-based class fast path (every matrix explores the full grid).
tune::AutotuneConfig tuning_config_from(const CliArgs& args) {
  tune::AutotuneConfig tuning;
  tuning.cache.persist_path = args.get_or("tuning-cache-file", "");
  tuning.cache.capacity = args.get_size_or("tuning-cache-capacity", tuning.cache.capacity);
  tuning.feature_fastpath = args.get_bool_or("fastpath", tuning.feature_fastpath);
  return tuning;
}

/// Per-chip serving flags shared by `serve` and `cluster` (the SDC
/// injection plan is serve's alone: see cmd_serve).
serve::ServeConfig serve_config_from(const CliArgs& args) {
  serve::ServeConfig config;
  config.policy = serve::parse_policy(args.get_or("policy", "matrix-aware"));
  config.admission.max_queue_depth =
      args.get_int_or("queue-depth", config.admission.max_queue_depth);
  config.admission.interactive_reserve =
      args.get_int_or("reserve", config.admission.interactive_reserve);
  config.batching = args.get_bool_or("batch", config.batching);
  config.batch_max = args.get_int_or("batch-max", config.batch_max);
  config.engine.freq = conf_from(args);
  config.autotune = args.get_bool_or("autotune", config.autotune);
  config.tuning = tuning_config_from(args);
  config.verify = verify_mode_from(args);
  return config;
}

/// Run-cache flags of `serve`, `cluster` and `autotune`: --no-run-cache
/// (nullopt), --run-cache-capacity, --run-cache-file (persists the cache).
std::optional<sim::RunCacheConfig> run_cache_from(const CliArgs& args) {
  sim::RunCacheConfig cache;
  cache.capacity = args.get_size_or("run-cache-capacity", cache.capacity);
  cache.persist_path = args.get_or("run-cache-file", "");
  if (args.get_bool_or("no-run-cache", false)) return std::nullopt;
  return cache;
}

serve::MatrixPool matrix_pool(const std::optional<sim::RunCacheConfig>& cache) {
  const double scale = testbed::suite_scale_from_env();
  return cache ? serve::MatrixPool(scale, *cache) : serve::MatrixPool::without_run_cache(scale);
}

/// Parse one `:`-separated fault spec against `shape`, one letter per
/// field: 'i' an integer, 'n' a finite number. The fields after the first
/// `required` are optional. Integer fields come back exact, as doubles.
std::vector<double> parse_fault_fields(const std::string& item, std::string_view shape,
                                       std::size_t required, const char* flag) {
  const std::vector<std::string> fields = split_items(flag, item, ':');
  SCC_REQUIRE(fields.size() == required || fields.size() == shape.size(),
              flag << " spec '" << item << "' has " << fields.size() << " fields, expected "
                   << required << (shape.size() > required ? " (or more)" : ""));
  std::vector<double> values;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    values.push_back(shape[i] == 'i' ? parse_int_token(flag, fields[i])
                                     : parse_finite_token(flag, fields[i]));
  }
  return values;
}

/// --fault-plan=FILE baseline plus --crash / --tile-kill / --brownout /
/// --restart / --flap / --domain-outage lists into the fault plan. The file
/// (a reproducible JSON scenario, see parse_fault_plan_json) loads first;
/// command-line events and rates layer on top of it.
void parse_fault_plan(const CliArgs& args, cluster::FaultPlan& plan) {
  if (args.has("fault-plan")) {
    plan = cluster::load_fault_plan_file(args.get_or("fault-plan", ""));
  }
  const auto each = [&args](const char* key, const auto& fn) {
    const std::string flag = std::string("--") + key;
    for (const std::string& item : split_items(flag, args.get_or(key, ""), ',')) fn(item);
  };
  each("crash", [&](const std::string& item) {
    const auto f = parse_fault_fields(item, "in", 2, "--crash");
    plan.chip_crashes.push_back({static_cast<int>(f[0]), f[1]});
  });
  each("restart", [&](const std::string& item) {
    const auto f = parse_fault_fields(item, "in", 2, "--restart");
    plan.chip_restarts.push_back({static_cast<int>(f[0]), f[1]});
  });
  each("flap", [&](const std::string& item) {
    const auto f = parse_fault_fields(item, "inin", 4, "--flap");
    plan.chip_flaps.push_back(
        {static_cast<int>(f[0]), f[1], static_cast<int>(f[2]), f[3]});
  });
  each("tile-kill", [&](const std::string& item) {
    const auto f = parse_fault_fields(item, "iin", 3, "--tile-kill");
    plan.tile_kills.push_back({static_cast<int>(f[0]), static_cast<int>(f[1]), f[2]});
  });
  each("brownout", [&](const std::string& item) {
    const auto f = parse_fault_fields(item, "iinnn", 4, "--brownout");
    cluster::Brownout brownout;
    brownout.chip = static_cast<int>(f[0]);
    brownout.mc = static_cast<int>(f[1]);
    brownout.start_seconds = f[2];
    brownout.duration_seconds = f[3];
    if (f.size() == 5) brownout.derate = f[4];
    plan.brownouts.push_back(brownout);
  });
  each("domain-outage", [&](const std::string& item) {
    const auto f = parse_fault_fields(item, "in", 2, "--domain-outage");
    plan.domain_outages.push_back({static_cast<int>(f[0]), f[1]});
  });
  each("bad-dram", [&](const std::string& item) {
    const auto f = parse_fault_fields(item, "inn", 2, "--bad-dram");
    cluster::BadDram bad;
    bad.chip = static_cast<int>(f[0]);
    bad.rate = f[1];
    if (f.size() == 3) bad.sticky_rate = f[2];
    SCC_REQUIRE(bad.rate >= 0.0 && bad.rate <= 1.0 && bad.sticky_rate >= 0.0 &&
                    bad.sticky_rate <= 1.0,
                "--bad-dram CHIP:RATE[:STICKY] rates must be probabilities in [0, 1], got '"
                    << item << "'");
    plan.bad_dram.push_back(bad);
  });
  plan.sdc_rate = args.get_double_or("sdc-rate", plan.sdc_rate);
  plan.sdc_sticky_rate = args.get_double_or("sdc-sticky", plan.sdc_sticky_rate);
  plan.chips_per_domain = args.get_int_or("chips-per-domain", plan.chips_per_domain);
  plan.restart_downtime_seconds =
      args.get_double_or("restart-downtime", plan.restart_downtime_seconds);
  plan.crash_rate = args.get_double_or("crash-rate", plan.crash_rate);
  plan.crash_horizon_seconds = args.get_double_or("crash-horizon", plan.crash_horizon_seconds);
  plan.job_failure_rate = args.get_double_or("job-failure-rate", plan.job_failure_rate);
  if (args.has("fault-seed")) {
    plan.seed = parse_seed(args.get_or("fault-seed", ""));
  } else if (!args.has("fault-plan")) {
    plan.seed = seed_option(args, plan.seed);
  }
}

int cmd_generate(const CliArgs& args, std::ostream& out) {
  const MatrixSource build = family_from(args);
  const std::string path = args.get_or("out", "matrix.mtx");
  const OutputOptions output = finish_flags(args);
  const auto matrix = build();
  sparse::write_matrix_market_file(path, matrix);
  if (output.json()) {
    obs::Json report = obs::report_skeleton(obs::kKindAnalysis);
    report.set("command", "generate");
    report.set("out", path);
    report.set("rows", matrix.rows());
    report.set("cols", matrix.cols());
    report.set("nnz", matrix.nnz());
    write_json_report(output, report, out);
    return 0;
  }
  out << "wrote " << path << ": " << matrix.rows() << " rows, " << matrix.nnz()
      << " nonzeros\n";
  return 0;
}

int cmd_testbed(const CliArgs& args, std::ostream& out) {
  const int id = args.get_int_or("id", 1);
  const std::optional<std::string> out_path = args.get("out");
  const OutputOptions output = finish_flags(args);
  const auto entry = testbed::build_entry(id, testbed::suite_scale_from_env());
  const std::string path = out_path.value_or(entry.name + ".mtx");
  sparse::write_matrix_market_file(path, entry.matrix);
  if (output.json()) {
    obs::Json report = obs::report_skeleton(obs::kKindAnalysis);
    report.set("command", "testbed");
    report.set("id", id);
    report.set("name", entry.name);
    report.set("family", entry.family);
    report.set("out", path);
    report.set("rows", entry.matrix.rows());
    report.set("nnz", entry.matrix.nnz());
    write_json_report(output, report, out);
    return 0;
  }
  out << "wrote " << path << " (#" << id << " " << entry.name << ", " << entry.family << "): "
      << entry.matrix.rows() << " rows, " << entry.matrix.nnz() << " nonzeros\n";
  return 0;
}

int cmd_analyze(const CliArgs& args, std::ostream& out) {
  const MatrixSource input = input_from(args);
  const OutputOptions output = finish_flags(args);
  const auto m = input();
  const auto stats = sparse::row_stats(m);
  Table t("matrix analysis");
  t.set_header({"property", "value"});
  t.add_row({"rows", Table::integer(m.rows())});
  t.add_row({"cols", Table::integer(m.cols())});
  t.add_row({"nonzeros", Table::integer(m.nnz())});
  t.add_row({"nnz/row mean", Table::num(stats.mean_length, 2)});
  t.add_row({"nnz/row min/max",
             Table::integer(stats.min_length) + "/" + Table::integer(stats.max_length)});
  t.add_row({"empty rows", Table::num(stats.empty_fraction * 100.0, 1) + "%"});
  t.add_row({"working set",
             Table::num(static_cast<double>(sparse::working_set_bytes(m)) / 1048576.0, 2) +
                 " MB"});
  t.add_row({"bandwidth", Table::integer(sparse::bandwidth(m))});
  t.add_row({"x line reuse", Table::num(sparse::x_line_reuse_fraction(m), 3)});
  if (output.json()) {
    obs::Json report = obs::report_skeleton(obs::kKindAnalysis);
    report.set("command", "analyze");
    obs::Json tables = obs::Json::array();
    tables.push_back(obs::table_json(t, "analysis"));
    report.set("tables", std::move(tables));
    write_json_report(output, report, out);
    return 0;
  }
  t.print(out);
  return 0;
}

int cmd_simulate(const CliArgs& args, std::ostream& out) {
  const MatrixSource input = input_from(args);
  sim::EngineConfig cfg;
  cfg.freq = conf_from(args);
  const int cores = args.get_int_or("cores", 24);
  const auto policy = mapping_from(args);
  const auto format = format_from(args);

  obs::Recorder recorder;
  sim::RunSpec spec;
  spec.ue_count = cores;
  spec.policy = policy;
  spec.format = format;
  spec.verify = verify_mode_from(args);
  spec.sdc = sdc_plan_from(args);
  spec.sdc_site = args.get_size_or("sdc-site", 0);
  const OutputOptions output = finish_flags(args);
  const auto m = input();
  const sim::Engine engine(cfg);
  if (output.json() || !output.trace_path.empty()) spec.recorder = &recorder;
  const auto r = engine.run(m, spec);
  write_trace(output, recorder);

  if (output.json()) {
    write_json_report(output, sim::run_report_json(engine, spec, r, spec.recorder), out);
    return 0;
  }

  Table t("simulated SCC run");
  t.set_header({"property", "value"});
  t.add_row({"configuration", cfg.freq.describe()});
  t.add_row({"cores / mapping",
             Table::integer(cores) + " / " + chip::to_string(policy)});
  t.add_row({"format", sim::to_string(format)});
  t.add_row({"time", Table::num(r.seconds * 1e3, 3) + " ms"});
  t.add_row({"performance", Table::num(r.mflops(), 1) + " MFLOPS/s"});
  t.add_row({"bound by", r.bandwidth_bound ? "memory bandwidth" : "slowest core"});
  if (spec.verify != integrity::VerifyMode::kOff || !spec.sdc.empty()) {
    t.add_row({"verify / outcome", std::string(integrity::to_string(r.verify)) + " / " +
                                       integrity::to_string(r.outcome)});
    t.add_row({"verify overhead", Table::num(r.verify_seconds * 1e3, 3) + " ms, " +
                                      Table::integer(r.verify_attempts) + " attempt(s)"});
  }
  t.add_row({"mesh hot link",
             Table::num(static_cast<double>(r.mesh.max_link_bytes) / 1048576.0, 2) + " MB"});
  t.print(out);
  return 0;
}

int cmd_convert(const CliArgs& args, std::ostream& out) {
  const MatrixSource input = input_from(args);
  const bool rcm = args.get_bool_or("rcm", false);
  const std::string path = args.get_or("out", "converted.mtx");
  const OutputOptions output = finish_flags(args);
  auto m = input();
  index_t bandwidth_before = 0;
  if (rcm) {
    const auto perm = sparse::reverse_cuthill_mckee(m);
    bandwidth_before = sparse::bandwidth(m);
    m = m.permute_symmetric(perm);
    if (!output.json()) {
      out << "RCM: bandwidth " << bandwidth_before << " -> " << sparse::bandwidth(m) << '\n';
    }
  }
  sparse::write_matrix_market_file(path, m);
  if (output.json()) {
    obs::Json report = obs::report_skeleton(obs::kKindAnalysis);
    report.set("command", "convert");
    report.set("out", path);
    report.set("rcm", rcm);
    if (rcm) report.set("bandwidth_before", bandwidth_before);
    report.set("bandwidth", sparse::bandwidth(m));
    write_json_report(output, report, out);
    return 0;
  }
  out << "wrote " << path << '\n';
  return 0;
}

int cmd_resilience(const CliArgs& args, std::ostream& out) {
  const MatrixSource input =
      (args.has("matrix") || args.has("id")) ? input_from(args) : family_from(args);
  const int ues = args.get_int_or("ues", 8);

  fault::Plan plan;
  // --fault-seed keeps its historical meaning; the shared --seed flag is the
  // fallback so one flag reproduces a whole pipeline of commands.
  plan.seed = args.has("fault-seed") ? parse_seed(args.get_or("fault-seed", ""))
                                     : seed_option(args, 0x5cc);
  const auto kill_op = args.get_size_or("kill-op", 4);
  for (const int rank : parse_int_list(args.get_or("kill-ranks", ""), "--kill-ranks")) {
    SCC_REQUIRE(rank > 0 && rank < ues,
                "--kill-ranks entries must be survivable worker ranks (1.." << ues - 1 << ")");
    plan.kills.push_back({rank, kill_op});
  }
  plan.transient_rate = args.get_double_or("transient-rate", 0.0);
  plan.drop_rate = args.get_double_or("drop-rate", 0.0);
  plan.corrupt_rate = args.get_double_or("corrupt-rate", 0.0);
  plan.delay_rate = args.get_double_or("delay-rate", 0.0);
  plan.delay_seconds = args.get_double_or("delay-seconds", 0.0005);
  plan.mem_corrupt_rate = args.get_double_or("mem-corrupt-rate", 0.0);
  SCC_REQUIRE(plan.mem_corrupt_rate >= 0.0 && plan.mem_corrupt_rate <= 1.0,
              "--mem-corrupt-rate must be a probability in [0, 1], got "
                  << plan.mem_corrupt_rate);
  // --mem-corrupt=RANK:REGION:ELEMENT:BIT,... deterministic bit flips. The
  // injector takes ELEMENT modulo the region's size, so an int is enough.
  const std::string mem_corrupt = args.get_or("mem-corrupt", "");
  for (const std::string& item : split_items("--mem-corrupt", mem_corrupt, ',')) {
    const std::vector<std::string> fields = split_items("--mem-corrupt", item, ':');
    SCC_REQUIRE(fields.size() == 4,
                "--mem-corrupt expects RANK:REGION:ELEMENT:BIT (e.g. 1:val:100:40), got '"
                    << item << "'");
    fault::Plan::MemCorrupt corrupt;
    corrupt.rank = parse_int_token("--mem-corrupt", fields[0]);
    corrupt.region = fault::parse_mem_region(fields[1]);
    const int element = parse_int_token("--mem-corrupt", fields[2]);
    corrupt.bit = parse_int_token("--mem-corrupt", fields[3]);
    SCC_REQUIRE(corrupt.rank >= 0 && corrupt.rank < ues,
                "--mem-corrupt rank " << corrupt.rank << " out of range 0.." << ues - 1);
    SCC_REQUIRE(element >= 0, "--mem-corrupt element " << element << " must be >= 0");
    SCC_REQUIRE(corrupt.bit >= 0 && corrupt.bit <= 63,
                "--mem-corrupt bit " << corrupt.bit << " must be 0..63");
    corrupt.element = static_cast<std::uint64_t>(element);
    plan.mem_corruptions.push_back(corrupt);
  }
  rcce::RuntimeOptions options;
  options.watchdog_timeout_seconds = args.get_double_or("timeout", 2.0);
  const bool print_log = args.get_bool_or("log", false);
  const OutputOptions output = finish_flags(args);
  const auto m = input();

  obs::Recorder recorder;
  const bool observe = output.json() || !output.trace_path.empty();
  options.injector = std::make_shared<fault::Injector>(plan);
  if (observe) options.recorder = &recorder;

  std::vector<real_t> x(static_cast<std::size_t>(m.cols()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::cos(static_cast<double>(i) * 0.25);
  }

  const auto run = spmv::rcce_spmv(m, x, ues, options);
  const auto reference = sparse::dense_reference_spmv(m, x);
  double max_error = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    max_error = std::max(max_error, std::abs(run.y[i] - reference[i]));
  }
  const bool correct = max_error <= 1e-9;

  // Timing-model counterpart: the run schema's numbers come from the engine,
  // degraded by whichever UEs the fault plan actually killed.
  const sim::Engine engine;
  sim::RunSpec spec;
  spec.ue_count = ues;
  spec.policy = chip::MappingPolicy::kDistanceReduction;
  spec.dead_ranks = run.report.dead_ues;
  if (observe) spec.recorder = &recorder;
  const auto model = engine.run(m, spec);
  write_trace(output, recorder);

  if (output.json()) {
    obs::Json report =
        sim::run_report_json(engine, spec, model, spec.recorder, &run.report.fault_log);
    obs::Json res = obs::Json::object();
    res.set("ues", ues);
    obs::Json dead = obs::Json::array();
    for (int rank : run.report.dead_ues) dead.push_back(obs::Json(rank));
    res.set("dead_ues", std::move(dead));
    res.set("max_error", max_error);
    res.set("correct", correct);
    res.set("messages_sent", run.report.comm.messages_sent);
    res.set("bytes_sent", run.report.comm.bytes_sent);
    res.set("retries", run.report.comm.retries);
    res.set("timeouts", run.report.comm.timeouts);
    res.set("barrier_wait_seconds", run.report.comm.barrier_wait_seconds);
    report.set("resilience", std::move(res));
    write_json_report(output, report, out);
    return correct ? 0 : 1;
  }

  const auto& log = run.report.fault_log;
  Table t("resilience report");
  t.set_header({"property", "value"});
  t.add_row({"matrix", Table::integer(m.rows()) + " rows, " + Table::integer(m.nnz()) + " nnz"});
  t.add_row({"UEs / watchdog",
             Table::integer(ues) + " / " + Table::num(options.watchdog_timeout_seconds, 2) + " s"});
  const auto events = [&log](fault::EventType type) {
    return Table::integer(static_cast<long long>(fault::count(log, type)));
  };
  t.add_row({"fault seed", Table::integer(static_cast<long long>(plan.seed))});
  t.add_row({"UEs killed", Table::integer(static_cast<long long>(run.report.dead_ues.size()))});
  t.add_row({"transfer drops", events(fault::EventType::kTransferDrop)});
  t.add_row({"transfer corruptions", events(fault::EventType::kTransferCorrupt)});
  t.add_row({"memory corruptions", events(fault::EventType::kMemCorrupt)});
  t.add_row({"transient retries", events(fault::EventType::kRetry)});
  t.add_row({"straggler delays", events(fault::EventType::kDelay)});
  t.add_row({"watchdog timeouts", events(fault::EventType::kTimeout)});
  t.add_row({"repartitions", events(fault::EventType::kRepartition)});
  t.add_row({"max |y - y_ref|", Table::num(max_error, 12)});
  t.add_row({"product", correct ? "recovered correctly" : "WRONG"});
  t.print(out);

  if (print_log) {
    out << '\n';
    for (const auto& event : log) out << "  " << fault::describe(event) << '\n';
  }

  if (!run.report.dead_ues.empty()) {
    sim::RunSpec healthy_spec;
    healthy_spec.ue_count = ues;
    healthy_spec.policy = chip::MappingPolicy::kDistanceReduction;
    const auto healthy = engine.run(m, healthy_spec);
    out << '\n';
    Table impact("timing-model impact (Section V machine)");
    impact.set_header({"property", "value"});
    impact.add_row({"healthy GFLOPS", Table::num(healthy.gflops, 4)});
    impact.add_row({"degraded GFLOPS", Table::num(model.gflops, 4)});
    impact.add_row({"recovery overhead", Table::num(model.recovery_seconds * 1e3, 3) + " ms"});
    impact.add_row(
        {"reshipped CSR", Table::num(static_cast<double>(model.reshipped_bytes) / 1024.0, 1) +
                              " KB"});
    impact.print(out);
  }
  return correct ? 0 : 1;
}

int cmd_serve(const CliArgs& args, std::ostream& out) {

  const serve::WorkloadSpec workload = workload_from(args);
  serve::ServeConfig config = serve_config_from(args);
  config.sdc = sdc_plan_from(args);
  const auto run_cache = run_cache_from(args);
  const OutputOptions output = finish_flags(args);

  const auto requests = serve::generate_workload(workload);
  serve::MatrixPool pool = matrix_pool(run_cache);
  serve::Simulator simulator(config, pool);
  obs::Recorder recorder;
  const bool observe = !output.trace_path.empty();
  const auto result = simulator.run(requests, observe ? &recorder : nullptr);
  write_trace(output, recorder);

  if (output.json()) {
    write_json_report(output,
                      serve::serve_report_json(workload, config, result, &simulator.metrics()),
                      out);
    return 0;
  }

  Table t("serving simulation");
  t.set_header({"property", "value"});
  t.add_row({"policy", serve::to_string(config.policy)});
  t.add_row({"offered load", Table::num(workload.offered_rps, 1) + " req/s"});
  t.add_row({"requests", Table::integer(workload.request_count)});
  t.add_row({"completed / rejected",
             Table::integer(result.completed) + " / " + Table::integer(result.rejected)});
  t.add_row({"chip jobs", Table::integer(static_cast<long long>(result.jobs.size()))});
  t.add_row({"makespan", Table::num(result.makespan_seconds, 3) + " s"});
  t.add_row({"throughput", Table::num(result.throughput_rps, 1) + " req/s"});
  t.add_row({"latency p50/p95/p99",
             Table::num(result.latency_total.p50 * 1e3, 2) + " / " +
                 Table::num(result.latency_total.p95 * 1e3, 2) + " / " +
                 Table::num(result.latency_total.p99 * 1e3, 2) + " ms"});
  t.add_row({"SLO violations", Table::integer(result.slo_violations)});
  t.add_row({"max queue depth", Table::integer(result.max_queue_depth)});
  if (config.verify != integrity::VerifyMode::kOff || result.sdc_corrupted > 0) {
    t.add_row({"verify mode", integrity::to_string(config.verify)});
    t.add_row({"SDC corrupted / retried / corrected / escapes",
               Table::integer(result.sdc_corrupted) + " / " +
                   Table::integer(result.sdc_retries) + " / " +
                   Table::integer(result.sdc_corrected) + " / " +
                   Table::integer(result.sdc_escapes)});
  }
  t.print(out);
  return 0;
}

int cmd_cluster(const CliArgs& args, std::ostream& out) {

  const serve::WorkloadSpec workload = workload_from(args);
  // The cluster's corruption model is the fault plan's, seeded per chip by
  // the fault seed: serve's per-job SDC stream flags have nothing to set.
  for (const char* flag : {"sdc-seed", "sdc-bits"}) {
    SCC_REQUIRE(!args.has(flag), "--" << flag << " is a serve flag; the cluster seeds SDC from "
                                      "--fault-seed and the fault plan (--sdc-rate, "
                                      "--sdc-sticky, --bad-dram)");
  }
  cluster::ClusterConfig config;
  config.chip_count = args.get_int_or("chips", config.chip_count);
  config.chip = serve_config_from(args);
  config.failover = args.get_bool_or("failover", config.failover);
  config.retry.max_attempts = args.get_int_or("retries", config.retry.max_attempts);
  config.hedge.enabled = args.get_bool_or("hedge", config.hedge.enabled);
  config.hedge.delay_seconds = args.get_double_or("hedge-delay", config.hedge.delay_seconds);
  config.placement.replicas = args.get_int_or("replicas", config.placement.replicas);
  config.placement.reship_bandwidth_fraction =
      args.get_double_or("reship-bw", config.placement.reship_bandwidth_fraction);
  config.placement.warmup_runs = args.get_int_or("warmup-runs", config.placement.warmup_runs);
  config.quarantine_threshold =
      args.get_int_or("quarantine-threshold", config.quarantine_threshold);
  SCC_REQUIRE(config.quarantine_threshold >= 0,
              "--quarantine-threshold must be >= 0 (0 disables quarantine)");
  parse_fault_plan(args, config.faults);
  const auto run_cache = run_cache_from(args);
  const bool print_log = args.get_bool_or("log", false);
  const OutputOptions output = finish_flags(args);

  const auto requests = serve::generate_workload(workload);
  serve::MatrixPool pool = matrix_pool(run_cache);
  cluster::ClusterSimulator simulator(config, pool);
  obs::Recorder recorder;
  const bool observe = !output.trace_path.empty();
  const auto result = simulator.run(requests, observe ? &recorder : nullptr);
  write_trace(output, recorder);

  if (output.json()) {
    write_json_report(
        output, cluster::cluster_report_json(workload, config, result, &simulator.metrics()),
        out);
    return 0;
  }

  Table t("cluster serving simulation");
  t.set_header({"property", "value"});
  t.add_row({"chips / failover",
             Table::integer(config.chip_count) + " / " + (config.failover ? "on" : "off")});
  t.add_row({"policy", serve::to_string(config.chip.policy)});
  t.add_row({"offered load", Table::num(workload.offered_rps, 1) + " req/s"});
  t.add_row({"requests", Table::integer(workload.request_count)});
  t.add_row({"completed / rejected / dead-lettered",
             Table::integer(result.completed) + " / " + Table::integer(result.rejected) +
                 " / " + Table::integer(result.dead_lettered)});
  t.add_row({"availability", Table::num(result.availability * 100.0, 2) + "%"});
  t.add_row({"retries / failovers", Table::integer(result.retries) + " / " +
                                        Table::integer(result.failovers)});
  t.add_row({"hedges / wins",
             Table::integer(result.hedges) + " / " + Table::integer(result.hedge_wins)});
  t.add_row({"chip crashes / tile kills / brownouts",
             Table::integer(result.chip_crashes) + " / " + Table::integer(result.tile_kills) +
                 " / " + Table::integer(result.brownouts)});
  t.add_row({"restarts / rejoins", Table::integer(result.restarts) + " / " +
                                       Table::integer(result.rejoins)});
  t.add_row({"reships / bytes / cold runs",
             Table::integer(result.reships) + " / " +
                 Table::num(result.reship_bytes / 1024.0, 1) + " KB / " +
                 Table::integer(result.cold_runs)});
  t.add_row({"breaker trips", Table::integer(result.breaker_trips)});
  if (config.chip.verify != integrity::VerifyMode::kOff || result.sdc_corrupted > 0) {
    t.add_row({"verify mode", integrity::to_string(config.chip.verify)});
    t.add_row({"SDC detected / corrected / unrecoverable / escapes",
               Table::integer(result.sdc_detected) + " / " +
                   Table::integer(result.sdc_corrected) + " / " +
                   Table::integer(result.sdc_unrecoverable) + " / " +
                   Table::integer(result.sdc_escapes)});
    t.add_row({"quarantined chips", Table::integer(result.quarantines)});
  }
  t.add_row({"makespan", Table::num(result.makespan_seconds, 3) + " s"});
  t.add_row({"throughput", Table::num(result.throughput_rps, 1) + " req/s"});
  t.add_row({"latency p50/p95/p99",
             Table::num(result.latency_total.p50 * 1e3, 2) + " / " +
                 Table::num(result.latency_total.p95 * 1e3, 2) + " / " +
                 Table::num(result.latency_total.p99 * 1e3, 2) + " ms"});
  t.print(out);

  if (print_log && !result.log.empty()) {
    out << '\n';
    for (const auto& event : result.log) out << "  " << cluster::describe(event) << '\n';
  }
  return 0;
}

int cmd_autotune(const CliArgs& args, std::ostream& out) {

  // Matrices to tune: --matrix FILE, --id K, or --mix 26,27 (defaults to
  // the serving workload's default mix).
  MatrixSource input;
  std::vector<int> ids;
  if (args.has("matrix")) {
    input = input_from(args);
  } else if (args.has("id")) {
    ids = {args.get_int_or("id", 1)};
  } else if (const auto mix = args.get("mix")) {
    ids = parse_int_list(*mix, "--mix");
  } else {
    ids = serve::WorkloadSpec{}.matrix_mix;
  }
  const auto run_cache = run_cache_from(args);
  const tune::AutotuneConfig tuning = tuning_config_from(args);
  sim::EngineConfig engine;
  engine.freq = conf_from(args);
  const OutputOptions output = finish_flags(args);

  serve::MatrixPool pool = matrix_pool(run_cache);
  tune::Autotuner tuner(engine, tuning, pool.tuning_cache(tuning.cache), pool.run_cache());
  if (input) tuner.decide(input());
  for (const int id : ids) {
    tuner.decide(pool.entry(id).matrix, id);
  }

  const tune::Autotuner::Counters counters = tuner.counters();
  if (output.json()) {
    obs::Json report = obs::report_skeleton(obs::kKindAutotune);
    obs::Json config_json = obs::Json::object();
    obs::Json formats = obs::Json::array();
    for (const auto format : tune::kGrid.formats) formats.push_back(sim::to_string(format));
    config_json.set("formats", std::move(formats));
    config_json.set("try_reorder", true);  // RCM candidates on every square matrix
    obs::Json core_counts = obs::Json::array();
    for (const int cores : tune::kGrid.core_counts) core_counts.push_back(cores);
    config_json.set("core_counts", std::move(core_counts));
    obs::Json mappings = obs::Json::array();
    mappings.push_back(chip::to_string(tune::kGrid.mapping));
    config_json.set("mappings", std::move(mappings));
    config_json.set("feature_fastpath", tuning.feature_fastpath);
    config_json.set("core_time_weight", tune::kGrid.core_time_weight);
    report.set("config", std::move(config_json));

    // Reuse the serving report's decision rendering for the shared shape.
    serve::TuningSummary summary;
    summary.enabled = true;
    summary.cache_hits = counters.cache_hits;
    summary.predicted = counters.predicted;
    summary.explored = counters.explored;
    summary.explore_runs = counters.explore_runs;
    summary.explore_seconds = counters.explore_seconds;
    summary.decisions = tuner.log();
    report.set("decisions", serve::tuning_summary_json(summary).at("decisions"));

    obs::Json result = obs::Json::object();
    result.set("cache_hits", counters.cache_hits);
    result.set("predicted", counters.predicted);
    result.set("explored", counters.explored);
    result.set("explore_runs", counters.explore_runs);
    result.set("explore_seconds", counters.explore_seconds);
    report.set("result", std::move(result));
    write_json_report(output, report, out);
    return 0;
  }

  Table t("autotuned storage plans");
  t.set_header({"matrix", "format", "reorder", "cores", "mapping", "modeled ms",
                "csr ms", "speedup", "source"});
  for (const tune::DecisionRecord& record : tuner.log()) {
    const tune::TuningDecision& decision = record.decision;
    const double speedup = decision.modeled_seconds > 0.0
                               ? decision.baseline_seconds / decision.modeled_seconds
                               : 1.0;
    t.add_row({record.matrix_id >= 0 ? Table::integer(record.matrix_id) : std::string("-"),
               sim::to_string(decision.choice.format),
               sim::to_string(decision.choice.reorder),
               Table::integer(decision.choice.ue_count),
               chip::to_string(decision.choice.policy),
               Table::num(decision.modeled_seconds * 1e3, 3),
               Table::num(decision.baseline_seconds * 1e3, 3), Table::num(speedup, 2),
               decision.predicted ? "predicted" : "explored"});
  }
  t.print(out);
  out << "explored " << counters.explored << ", predicted " << counters.predicted
      << ", cache hits " << counters.cache_hits << ", engine runs "
      << counters.explore_runs << '\n';
  return 0;
}

int cmd_report(const CliArgs& args, std::ostream& out) {
  const OutputOptions output = finish_flags(args);
  const auto& positional = args.positional();  // positional[0] == "report"
  SCC_REQUIRE(positional.size() >= 2, "report needs at least one JSON file");

  struct Source {
    std::string file;
    obs::Json doc;
  };
  std::vector<Source> sources;
  for (std::size_t i = 1; i < positional.size(); ++i) {
    std::ifstream file(positional[i]);
    SCC_REQUIRE(file.good(), "cannot open '" << positional[i] << "'");
    std::ostringstream buffer;
    buffer << file.rdbuf();
    obs::Json doc = obs::Json::parse(buffer.str());
    const auto problems = obs::validate_report(doc);
    SCC_REQUIRE(problems.empty(), "'" << positional[i]
                                      << "' failed schema validation: " << problems.front());
    sources.push_back({positional[i], std::move(doc)});
  }

  // Comparison across runs: the first run report is the baseline for the
  // relative-time column. Bench reports interleave with their pass/fail.
  // Lookups go through find() with placeholder fallbacks rather than at():
  // a report from a newer schema revision (extra sections, extra keys) must
  // degrade to "-" cells, not abort the aggregation.
  const auto find_number = [](const obs::Json& parent, const char* key,
                              double fallback) -> double {
    const obs::Json* value = parent.find(key);
    return value != nullptr && value->is_number() ? value->as_double() : fallback;
  };
  double baseline_seconds = 0.0;
  obs::Json rows_json = obs::Json::array();
  Table t("report comparison");
  t.set_header({"file", "kind", "cores", "time [ms]", "MFLOPS/s", "rel", "faults", "ok"});
  for (const Source& source : sources) {
    const obs::Json* kind_json = source.doc.find("kind");
    const std::string kind =
        kind_json != nullptr && kind_json->is_string() ? kind_json->as_string() : "?";
    obs::Json summary = obs::Json::object();
    summary.set("file", source.file);
    summary.set("kind", kind);
    const obs::Json* result = source.doc.find("result");
    if (kind == obs::kKindRun && result != nullptr && result->is_object()) {
      const double seconds = find_number(*result, "seconds", 0.0);
      if (baseline_seconds == 0.0) baseline_seconds = seconds;
      const obs::Json* fault_log = source.doc.find("fault_log");
      const std::size_t faults = fault_log != nullptr ? fault_log->size() : 0;
      const obs::Json* run = source.doc.find("run");
      const obs::Json* cores_json = run != nullptr ? run->find("cores") : nullptr;
      const auto cores =
          static_cast<long long>(cores_json != nullptr ? cores_json->size() : 0);
      t.add_row({source.file, kind, Table::integer(cores), Table::num(seconds * 1e3, 3),
                 Table::num(find_number(*result, "gflops", 0.0) * 1000.0, 1),
                 baseline_seconds > 0.0 ? Table::num(seconds / baseline_seconds, 2) + "x" : "-",
                 Table::integer(static_cast<long long>(faults)), "-"});
      summary.set("cores", cores);
      summary.set("seconds", seconds);
      summary.set("gflops", find_number(*result, "gflops", 0.0));
      summary.set("relative_seconds",
                  baseline_seconds > 0.0 ? seconds / baseline_seconds : 1.0);
      summary.set("faults", faults);
    } else if (kind == obs::kKindServe && result != nullptr && result->is_object()) {
      const double makespan = find_number(*result, "makespan_seconds", 0.0);
      const double violations = find_number(*result, "slo_violations", 0.0);
      t.add_row({source.file, kind, "-", Table::num(makespan * 1e3, 3), "-", "-", "-",
                 violations == 0.0 ? "yes" : "NO"});
      summary.set("makespan_seconds", makespan);
      summary.set("throughput_rps", find_number(*result, "throughput_rps", 0.0));
      summary.set("completed", find_number(*result, "completed", 0.0));
      summary.set("rejected", find_number(*result, "rejected", 0.0));
      summary.set("slo_violations", violations);
    } else if (kind == obs::kKindBench) {
      const obs::Json* ok_json = source.doc.find("ok");
      const bool ok = ok_json != nullptr && ok_json->is_bool() && ok_json->as_bool();
      t.add_row({source.file, kind, "-", "-", "-", "-", "-", ok ? "yes" : "NO"});
      const obs::Json* name = source.doc.find("name");
      summary.set("name", name != nullptr && name->is_string() ? name->as_string() : "?");
      summary.set("ok", ok);
    } else {
      t.add_row({source.file, kind, "-", "-", "-", "-", "-", "-"});
    }
    rows_json.push_back(std::move(summary));
  }

  if (output.json()) {
    obs::Json report = obs::report_skeleton(obs::kKindReport);
    report.set("sources", std::move(rows_json));
    write_json_report(output, report, out);
    return 0;
  }
  t.print(out);
  return 0;
}

}  // namespace

int run_cli(const CliArgs& args, std::ostream& out, std::ostream& err) {
  static constexpr const char* kUsage =
      "usage: scc-spmv <command> [options]\n"
      "  generate  --family F --n N [--seed S] --out FILE      synthesize a matrix\n"
      "  testbed   --id 1..32 [--out FILE]                     export a Table-I stand-in\n"
      "  analyze   --matrix FILE | --id K                      structural report\n"
      "  simulate  --matrix FILE | --id K [--cores C] [--mapping standard|dr|ca]\n"
      "            [--conf 0|1|2] [--format csr|ell|bcsr2|bcsr4|hyb]\n"
      "            [--verify off|detect|correct] [--sdc-rate P --sdc-sticky P]\n"
      "            [--sdc-seed S --sdc-bits MIN:MAX --sdc-site K]\n"
      "  convert   --matrix FILE [--rcm] --out FILE            normalize / reorder\n"
      "  resilience [--matrix FILE | --id K | --family F] [--ues U]\n"
      "            [--kill-ranks 1,3 --kill-op N] [--transient-rate P] [--drop-rate P]\n"
      "            [--corrupt-rate P] [--delay-rate P] [--timeout S] [--fault-seed S]\n"
      "            [--mem-corrupt RANK:REGION:ELEMENT:BIT,...] [--mem-corrupt-rate P]\n"
      "            (REGION: val|col|ptr|x|partial) [--log]\n"
      "  serve     [--policy fifo|quadrants|matrix-aware] [--load RPS] [--requests N]\n"
      "            [--mix 19,22,27,30] [--interactive-fraction P] [--batch on|off]\n"
      "            [--batch-max K] [--queue-depth D] [--reserve R]\n"
      "            [--slo-interactive S] [--slo-batch S] [--conf 0|1|2]\n"
      "            [--verify off|detect|correct] [--sdc-rate P --sdc-sticky P\n"
      "            --sdc-seed S --sdc-bits MIN:MAX] (per-job SDC injection)\n"
      "  cluster   [--chips N] [--failover on|off] [--crash C:T,...]\n"
      "            [--tile-kill C:CORE:T,...] [--brownout C:MC:T0:DUR[:DERATE],...]\n"
      "            [--restart C:T,...] [--restart-downtime S] [--flap C:T0:CYCLES:PERIOD,...]\n"
      "            [--domain-outage D:T,...] [--chips-per-domain N]\n"
      "            [--fault-plan FILE.json] (seeded scenario; flags layer on top)\n"
      "            [--replicas R] [--reship-bw F] [--warmup-runs K]\n"
      "            [--crash-rate P --crash-horizon S] [--job-failure-rate P]\n"
      "            [--verify off|detect|correct] [--sdc-rate P --sdc-sticky P]\n"
      "            [--bad-dram CHIP:RATE[:STICKY],...] [--quarantine-threshold N]\n"
      "            [--retries K] [--hedge on|off --hedge-delay S] [--fault-seed S]\n"
      "            [--log] plus every serve workload/config flag but\n"
      "            --sdc-seed / --sdc-bits (SDC is seeded by the fault plan)\n"
      "  autotune  [--id K | --matrix FILE | --mix 26,27] [--conf 0|1|2]\n"
      "            explore format x reorder x cores x mapping per matrix and\n"
      "            pin the winner in the tuning cache\n"
      "  report    FILE.json [FILE.json ...]                   compare JSON reports\n"
      "every command also accepts --json[=FILE] (schema-versioned JSON output),\n"
      "--trace=FILE (JSON-lines span trace, where instrumented), --seed S\n"
      "(decimal or 0x-hex; seeds every randomized path of the command) and\n"
      "--sim-threads N (host threads for the engine's rank replay; overrides\n"
      "SCC_SIM_THREADS, 1 = serial, numbers identical either way); serve and\n"
      "cluster accept --no-run-cache (disable engine-run memoization),\n"
      "--run-cache-capacity N (bound the run cache) and --run-cache-file FILE\n"
      "(persist memoized runs across processes via a checksummed snapshot);\n"
      "serve and cluster accept --autotune on|off (tuned dispatch), and\n"
      "autotune/serve/cluster accept --tuning-cache-file FILE /\n"
      "--tuning-cache-capacity N (persist and bound the pinned winners) and\n"
      "--fastpath on|off (feature-based class fast path); a flag the command\n"
      "does not read, with the options given, is an error\n";
  try {
    if (args.positional().empty()) {
      err << kUsage;
      return 2;
    }
    if (args.has("sim-threads")) {
      const int threads = args.get_int_or("sim-threads", 0);
      SCC_REQUIRE(threads >= 1, "--sim-threads must be >= 1");
      common::set_sim_threads(threads);
    }
    const std::string& command = args.positional().front();
    if (command == "generate") return cmd_generate(args, out);
    if (command == "testbed") return cmd_testbed(args, out);
    if (command == "analyze") return cmd_analyze(args, out);
    if (command == "simulate") return cmd_simulate(args, out);
    if (command == "convert") return cmd_convert(args, out);
    if (command == "resilience") return cmd_resilience(args, out);
    if (command == "serve") return cmd_serve(args, out);
    if (command == "cluster") return cmd_cluster(args, out);
    if (command == "autotune") return cmd_autotune(args, out);
    if (command == "report") return cmd_report(args, out);
    err << "unknown command '" << command << "'\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace scc::tools
