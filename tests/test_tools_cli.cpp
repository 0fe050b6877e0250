#include "cli_commands.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/parallel.hpp"
#include "obs/report.hpp"
#include "sparse/io.hpp"
#include "sparse/properties.hpp"

namespace scc::tools {
namespace {

CliArgs make(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "scc-spmv");
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

TEST(Cli, NoCommandPrintsUsage) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(make({}), out, err), 2);
  EXPECT_NE(err.str().find("usage"), std::string::npos);
}

TEST(Cli, UnknownCommandRejected) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(make({"frobnicate"}), out, err), 2);
}

TEST(Cli, ErrorsMapToExitOne) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(make({"analyze"}), out, err), 1);  // neither --matrix nor --id
  EXPECT_NE(err.str().find("error:"), std::string::npos);
}

// A flag no code path of the command reads fails the run and names the
// flag, before the command writes any output or file.
TEST(Cli, UnreadFlagsFailBeforeAnyOutputOrFile) {
  setenv("SCC_TESTBED_SCALE", "0.05", 1);
  const std::string json = temp_path("cli_unread.json");
  const std::string mtx = temp_path("cli_unread.mtx");
  std::filesystem::remove(json);
  std::filesystem::remove(mtx);
  const std::string json_arg = "--json=" + json;
  const std::string out_arg = "--out=" + mtx;
  const std::string matrix_arg = "--matrix=" + mtx;
  const auto expect_rejected = [](std::vector<const char*> argv, const std::string& flag) {
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(make(argv), out, err), 1) << flag;
    EXPECT_EQ(err.str(),
              "error: unknown or unused flag " + flag + " for '" + argv.front() + "'\n");
    EXPECT_TRUE(out.str().empty()) << flag;
  };
  // Misspelled: serve used to run its default 200 requests and exit 0.
  expect_rejected({"serve", "--reqeusts=5", json_arg.c_str()}, "--reqeusts");
  expect_rejected({"generate", "--family=random", "--n=50", "--rwo-nnz=3", out_arg.c_str()},
                  "--rwo-nnz");
  // Another command's flag, and a flag the other options leave unread.
  expect_rejected({"simulate", "--id=3", "--requests=5"}, "--requests");
  expect_rejected({"analyze", matrix_arg.c_str(), "--id=3"}, "--id");
  EXPECT_FALSE(std::filesystem::exists(json));
  EXPECT_FALSE(std::filesystem::exists(mtx));
}

TEST(Cli, SharedFlagsAreAcceptedByEveryCommand) {
  setenv("SCC_TESTBED_SCALE", "0.05", 1);
  // analyze reads neither --seed nor --sim-threads; the usage text promises
  // every command takes them.
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(make({"analyze", "--id=3", "--seed=9", "--sim-threads=1", "--json"}), out,
                    err),
            0)
      << err.str();
  common::set_sim_threads(0);
}

TEST(Cli, GenerateWritesReadableMatrix) {
  const std::string path = temp_path("cli_gen.mtx");
  std::ostringstream out, err;
  const int rc = run_cli(make({"generate", "--family=random", "--n=200", "--row-nnz=5",
                               ("--out=" + path).c_str()}),
                         out, err);
  EXPECT_EQ(rc, 0) << err.str();
  const auto m = sparse::read_matrix_market_file(path);
  EXPECT_EQ(m.rows(), 200);
  EXPECT_EQ(m.nnz(), 200 * 6);
}

TEST(Cli, GenerateEveryFamily) {
  for (const char* family :
       {"banded", "stencil2d", "stencil3d", "fem", "random", "power-law", "circuit"}) {
    const std::string path = temp_path(std::string("cli_fam_") + family + ".mtx");
    std::ostringstream out, err;
    const std::string fam_arg = std::string("--family=") + family;
    const std::string out_arg = "--out=" + path;
    const int rc = run_cli(
        make({"generate", fam_arg.c_str(), "--n=300", "--side=8", "--blocks=20", out_arg.c_str()}),
        out, err);
    EXPECT_EQ(rc, 0) << family << ": " << err.str();
    EXPECT_GT(sparse::read_matrix_market_file(path).nnz(), 0) << family;
  }
}

TEST(Cli, GenerateRejectsUnknownFamily) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(make({"generate", "--family=quantum"}), out, err), 1);
}

TEST(Cli, TestbedExportsById) {
  setenv("SCC_TESTBED_SCALE", "0.05", 1);
  const std::string path = temp_path("cli_testbed.mtx");
  std::ostringstream out, err;
  const std::string out_arg = "--out=" + path;
  const int rc = run_cli(make({"testbed", "--id=24", out_arg.c_str()}), out, err);
  unsetenv("SCC_TESTBED_SCALE");
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("rajat15"), std::string::npos);
  EXPECT_GT(sparse::read_matrix_market_file(path).nnz(), 0);
}

TEST(Cli, AnalyzeReportsProperties) {
  const std::string path = temp_path("cli_analyze.mtx");
  std::ostringstream out, err;
  std::string out_arg = "--out=" + path;
  ASSERT_EQ(run_cli(make({"generate", "--family=banded", "--n=500", out_arg.c_str()}), out,
                    err),
            0);
  std::ostringstream report;
  std::string matrix_arg = "--matrix=" + path;
  ASSERT_EQ(run_cli(make({"analyze", matrix_arg.c_str()}), report, err), 0);
  EXPECT_NE(report.str().find("working set"), std::string::npos);
  EXPECT_NE(report.str().find("500"), std::string::npos);
}

TEST(Cli, SimulateReportsPerformance) {
  const std::string path = temp_path("cli_sim.mtx");
  std::ostringstream out, err;
  std::string out_arg = "--out=" + path;
  ASSERT_EQ(run_cli(make({"generate", "--family=random", "--n=2000", out_arg.c_str()}), out,
                    err),
            0);
  std::ostringstream report;
  std::string matrix_arg = "--matrix=" + path;
  ASSERT_EQ(run_cli(make({"simulate", matrix_arg.c_str(), "--cores=8", "--mapping=ca",
                          "--conf=1", "--format=hyb"}),
                    report, err),
            0)
      << err.str();
  EXPECT_NE(report.str().find("MFLOPS"), std::string::npos);
  EXPECT_NE(report.str().find("HYB"), std::string::npos);
  EXPECT_NE(report.str().find("contention-aware"), std::string::npos);
}

TEST(Cli, SimulateValidatesOptions) {
  const std::string path = temp_path("cli_sim2.mtx");
  std::ostringstream out, err;
  std::string out_arg = "--out=" + path;
  ASSERT_EQ(run_cli(make({"generate", "--family=banded", "--n=100", out_arg.c_str()}), out,
                    err),
            0);
  std::string matrix_arg = "--matrix=" + path;
  EXPECT_EQ(run_cli(make({"simulate", matrix_arg.c_str(), "--mapping=bogus"}), out, err), 1);
  EXPECT_EQ(run_cli(make({"simulate", matrix_arg.c_str(), "--conf=7"}), out, err), 1);
  EXPECT_EQ(run_cli(make({"simulate", matrix_arg.c_str(), "--format=csr5"}), out, err), 1);
}

TEST(Cli, ConvertWithRcmReducesBandwidth) {
  const std::string in_path = temp_path("cli_conv_in.mtx");
  const std::string out_path = temp_path("cli_conv_out.mtx");
  std::ostringstream out, err;
  std::string out_arg = "--out=" + in_path;
  // Circuit matrices are scattered; RCM should tighten them.
  ASSERT_EQ(run_cli(make({"generate", "--family=circuit", "--n=1500", out_arg.c_str()}), out,
                    err),
            0);
  std::ostringstream conv;
  std::string matrix_arg = "--matrix=" + in_path;
  std::string out2_arg = "--out=" + out_path;
  ASSERT_EQ(run_cli(make({"convert", matrix_arg.c_str(), "--rcm", out2_arg.c_str()}), conv,
                    err),
            0)
      << err.str();
  const auto before = sparse::read_matrix_market_file(in_path);
  const auto after = sparse::read_matrix_market_file(out_path);
  EXPECT_EQ(before.nnz(), after.nnz());
  EXPECT_LT(sparse::bandwidth(after), sparse::bandwidth(before));
}

std::string generate_matrix(const std::string& name) {
  const std::string path = temp_path(name);
  std::ostringstream out, err;
  const std::string out_arg = "--out=" + path;
  EXPECT_EQ(run_cli(make({"generate", "--family=banded", "--n=600", out_arg.c_str()}), out,
                    err),
            0)
      << err.str();
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

TEST(CliJson, SimulateBareJsonWritesValidReportToStdout) {
  const std::string path = generate_matrix("cli_json_stdout.mtx");
  std::ostringstream report, err;
  const std::string matrix_arg = "--matrix=" + path;
  ASSERT_EQ(run_cli(make({"simulate", matrix_arg.c_str(), "--cores=4", "--json"}), report,
                    err),
            0)
      << err.str();
  const auto doc = obs::Json::parse(report.str());
  EXPECT_TRUE(obs::validate_report(doc).empty());
  EXPECT_EQ(doc.at("kind").as_string(), "run");
  EXPECT_EQ(doc.at("schema_version").as_int(), obs::kSchemaVersion);
  EXPECT_EQ(doc.at("per_core").size(), 4u);
  EXPECT_TRUE(doc.has("metrics"));
}

TEST(CliJson, SimulateWritesJsonFileAndJsonlTrace) {
  const std::string path = generate_matrix("cli_json_file.mtx");
  const std::string json_path = temp_path("cli_run.json");
  const std::string trace_path = temp_path("cli_run.trace.jsonl");
  std::ostringstream out, err;
  const std::string matrix_arg = "--matrix=" + path;
  const std::string json_arg = "--json=" + json_path;
  const std::string trace_arg = "--trace=" + trace_path;
  ASSERT_EQ(run_cli(make({"simulate", matrix_arg.c_str(), "--cores=4", json_arg.c_str(),
                          trace_arg.c_str()}),
                    out, err),
            0)
      << err.str();

  const auto doc = obs::Json::parse(read_file(json_path));
  EXPECT_TRUE(obs::validate_report(doc).empty());

  // The trace is JSON-lines: every line parses and carries type/name/ts, and
  // the engine phases appear by their documented span names.
  std::ifstream trace(trace_path);
  std::string line;
  bool saw_partition = false;
  std::size_t lines = 0;
  while (std::getline(trace, line)) {
    ++lines;
    const auto event = obs::Json::parse(line);
    EXPECT_EQ(event.at("type").as_string(), "span");
    EXPECT_TRUE(event.has("ts"));
    if (event.at("name").as_string() == "engine.partition") saw_partition = true;
  }
  EXPECT_GT(lines, 4u);  // partition + 4 core traces + replay + contention
  EXPECT_TRUE(saw_partition);
}

TEST(CliJson, TraceFlagRequiresAPath) {
  const std::string path = generate_matrix("cli_trace_req.mtx");
  std::ostringstream out, err;
  const std::string matrix_arg = "--matrix=" + path;
  EXPECT_EQ(run_cli(make({"simulate", matrix_arg.c_str(), "--trace"}), out, err), 1);
  EXPECT_NE(err.str().find("error:"), std::string::npos);
}

TEST(CliJson, ReportAggregatesRunFiles) {
  const std::string path = generate_matrix("cli_report_in.mtx");
  const std::string run_a = temp_path("cli_report_a.json");
  const std::string run_b = temp_path("cli_report_b.json");
  const std::string matrix_arg = "--matrix=" + path;
  for (const auto& [cores, file] : {std::pair{"4", run_a}, std::pair{"8", run_b}}) {
    std::ostringstream out, err;
    const std::string cores_arg = std::string("--cores=") + cores;
    const std::string json_arg = "--json=" + file;
    ASSERT_EQ(run_cli(make({"simulate", matrix_arg.c_str(), cores_arg.c_str(),
                            json_arg.c_str()}),
                      out, err),
              0)
        << err.str();
  }

  std::ostringstream table, err;
  ASSERT_EQ(run_cli(make({"report", run_a.c_str(), run_b.c_str()}), table, err), 0)
      << err.str();
  EXPECT_NE(table.str().find("MFLOPS"), std::string::npos);
  EXPECT_NE(table.str().find("cli_report_a.json"), std::string::npos);

  std::ostringstream json_out;
  ASSERT_EQ(run_cli(make({"report", run_a.c_str(), run_b.c_str(), "--json"}), json_out, err),
            0)
      << err.str();
  const auto doc = obs::Json::parse(json_out.str());
  EXPECT_TRUE(obs::validate_report(doc).empty());
  EXPECT_EQ(doc.at("kind").as_string(), "report");
  EXPECT_EQ(doc.at("sources").size(), 2u);
}

TEST(CliJson, ReportRejectsInvalidInput) {
  const std::string bogus = temp_path("cli_report_bogus.json");
  std::ofstream(bogus) << "{\"kind\": \"run\"}\n";  // missing schema_version
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(make({"report", bogus.c_str()}), out, err), 1);
  EXPECT_NE(err.str().find("error:"), std::string::npos);
}

TEST(CliServe, TableRunSucceeds) {
  setenv("SCC_TESTBED_SCALE", "0.05", 1);
  std::ostringstream out, err;
  const int rc = run_cli(
      make({"serve", "--requests=20", "--load=500", "--policy=quadrants"}), out, err);
  unsetenv("SCC_TESTBED_SCALE");
  ASSERT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("throughput"), std::string::npos);
  EXPECT_NE(out.str().find("quadrants"), std::string::npos);
}

TEST(CliServe, JsonValidatesAndSeedControlsDeterminism) {
  setenv("SCC_TESTBED_SCALE", "0.05", 1);
  const auto run_once = [&](const char* seed) {
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(make({"serve", "--requests=20", "--load=500", seed, "--json"}),
                      out, err),
              0)
        << err.str();
    return out.str();
  };
  const std::string a = run_once("--seed=0x5e12e");
  const std::string b = run_once("--seed=0x5e12e");
  const std::string c = run_once("--seed=99");
  unsetenv("SCC_TESTBED_SCALE");
  EXPECT_EQ(a, b);  // byte-identical across same-seed runs
  EXPECT_NE(a, c);
  const auto doc = obs::Json::parse(a);
  EXPECT_TRUE(obs::validate_report(doc).empty());
  EXPECT_EQ(doc.at("kind").as_string(), "serve");
  EXPECT_TRUE(doc.at("result").at("latency").has("total"));
}

TEST(CliServe, BadPolicyOrSeedRejected) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(make({"serve", "--policy=round-robin"}), out, err), 1);
  EXPECT_NE(err.str().find("error:"), std::string::npos);
  std::ostringstream out2, err2;
  EXPECT_EQ(run_cli(make({"serve", "--seed=banana"}), out2, err2), 1);
}

TEST(CliServe, NumericFlagsMustParseWhole) {
  const auto expect_error = [](std::vector<const char*> argv, const std::string& hint) {
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(make(argv), out, err), 1) << hint;
    EXPECT_NE(err.str().find("error: " + hint), std::string::npos) << err.str();
  };
  expect_error({"serve", "--requests=20x"}, "--requests expects an integer, got '20x'");
  expect_error({"serve", "--load=fast"}, "--load expects a number, got 'fast'");
  // 2^32 + 20 would narrow to 20 requests.
  expect_error({"serve", "--requests=4294967316"},
               "--requests is out of range, got '4294967316'");
}

TEST(CliServe, SizeFlagsRejectNegatives) {
  for (const char* flag : {"run-cache-capacity", "tuning-cache-capacity"}) {
    const std::string arg = std::string("--") + flag + "=-1";
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(make({"serve", "--requests=5", arg.c_str()}), out, err), 1) << flag;
    EXPECT_NE(err.str().find(std::string("error: --") + flag + " must be non-negative, got -1"),
              std::string::npos)
        << err.str();
  }
}

TEST(CliServe, RetiredRunCacheFlagsAreRejected) {
  setenv("SCC_TESTBED_SCALE", "0.05", 1);
  for (const std::string flag : {"--run-cache-shards", "--run-cache-max-bytes"}) {
    const std::string arg = flag + "=8";
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(make({"serve", "--requests=5", arg.c_str()}), out, err), 1) << flag;
    EXPECT_EQ(err.str(), "error: unknown or unused flag " + flag + " for 'serve'\n");
    EXPECT_TRUE(out.str().empty()) << flag;
  }
}

TEST(CliServe, ReportAggregatesServeJson) {
  setenv("SCC_TESTBED_SCALE", "0.05", 1);
  const std::string file = temp_path("cli_serve_report.json");
  {
    std::ostringstream out, err;
    const std::string json_arg = "--json=" + file;
    ASSERT_EQ(run_cli(make({"serve", "--requests=20", "--load=500", json_arg.c_str()}),
                      out, err),
              0)
        << err.str();
  }
  unsetenv("SCC_TESTBED_SCALE");
  std::ostringstream table, err;
  ASSERT_EQ(run_cli(make({"report", file.c_str()}), table, err), 0) << err.str();
  EXPECT_NE(table.str().find("cli_serve_report.json"), std::string::npos);
  EXPECT_NE(table.str().find("serve"), std::string::npos);
}

TEST(CliCluster, TableRunSurvivesInjectedFaults) {
  setenv("SCC_TESTBED_SCALE", "0.05", 1);
  std::ostringstream out, err;
  const int rc = run_cli(make({"cluster", "--chips=3", "--requests=30", "--load=2000",
                               "--crash=1:0.02", "--tile-kill=0:7:0.01",
                               "--job-failure-rate=0.2", "--log"}),
                         out, err);
  unsetenv("SCC_TESTBED_SCALE");
  ASSERT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("availability"), std::string::npos);
  EXPECT_NE(out.str().find("chip_crash"), std::string::npos);  // --log lines
  EXPECT_NE(out.str().find("tile_kill"), std::string::npos);
}

TEST(CliCluster, JsonValidatesAndFaultSeedControlsDeterminism) {
  setenv("SCC_TESTBED_SCALE", "0.05", 1);
  const auto run_once = [&](const char* fault_seed) {
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(make({"cluster", "--chips=2", "--requests=20", "--load=1000",
                            "--crash-rate=0.5", "--crash-horizon=0.05",
                            "--job-failure-rate=0.3", fault_seed, "--json"}),
                      out, err),
              0)
        << err.str();
    return out.str();
  };
  const std::string a = run_once("--fault-seed=7");
  const std::string b = run_once("--fault-seed=7");
  const std::string c = run_once("--fault-seed=8");
  unsetenv("SCC_TESTBED_SCALE");
  EXPECT_EQ(a, b);  // byte-identical replay, fault log included
  EXPECT_NE(a, c);
  const auto doc = obs::Json::parse(a);
  EXPECT_TRUE(obs::validate_report(doc).empty());
  EXPECT_EQ(doc.at("kind").as_string(), "cluster");
  EXPECT_TRUE(doc.has("fault_log"));
  EXPECT_TRUE(doc.has("dead_letters"));
}

TEST(CliCluster, BadFaultSpecsRejected) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(make({"cluster", "--crash=banana"}), out, err), 1);
  EXPECT_NE(err.str().find("error:"), std::string::npos);
  std::ostringstream out2, err2;
  EXPECT_EQ(run_cli(make({"cluster", "--tile-kill=0:7"}), out2, err2), 1);
  std::ostringstream out3, err3;
  EXPECT_EQ(run_cli(make({"cluster", "--chips=0"}), out3, err3), 1);
}

TEST(CliCluster, FaultPlanFileDrivesRecoveryScenarioDeterministically) {
  const std::string plan_path = temp_path("cli_fault_plan.json");
  {
    std::ofstream plan(plan_path);
    plan << R"({
      "seed": 99, "chips_per_domain": 2,
      "restart_downtime_seconds": 0.004, "restart_jitter_fraction": 0.25,
      "events": [
        {"kind": "chip_crash", "chip": 1, "seconds": 0.004},
        {"kind": "domain_outage", "domain": 1, "seconds": 0.012}
      ]})";
  }
  setenv("SCC_TESTBED_SCALE", "0.05", 1);
  const auto run_once = [&]() {
    std::ostringstream out, err;
    const std::string plan_arg = "--fault-plan=" + plan_path;
    EXPECT_EQ(run_cli(make({"cluster", "--chips=4", "--requests=80", "--load=3000",
                            plan_arg.c_str(), "--json"}),
                      out, err),
              0)
        << err.str();
    return out.str();
  };
  const std::string a = run_once();
  const std::string b = run_once();
  unsetenv("SCC_TESTBED_SCALE");
  EXPECT_EQ(a, b);  // file-driven scenarios replay byte for byte

  const auto doc = obs::Json::parse(a);
  EXPECT_TRUE(obs::validate_report(doc).empty());
  // The file's knobs made it through: the crashed chip restarts, and the
  // domain outage took both chips of domain 1 down.
  EXPECT_EQ(doc.at("config").at("chips_per_domain").as_int(), 2);
  EXPECT_EQ(doc.at("config").at("fault_seed").as_int(), 99);
  EXPECT_GE(doc.at("result").at("restarts").as_int(), 1);
  EXPECT_EQ(doc.at("result").at("domain_outages").as_int(), 1);
  bool saw_restart = false, saw_outage = false;
  const obs::Json& log = doc.at("fault_log");
  for (std::size_t i = 0; i < log.size(); ++i) {
    const std::string& kind = log.at(i).at("kind").as_string();
    saw_restart = saw_restart || kind == "chip_restart";
    saw_outage = saw_outage || kind == "domain_outage";
  }
  EXPECT_TRUE(saw_restart);
  EXPECT_TRUE(saw_outage);
}

TEST(CliCluster, FaultPlanFileErrorsRejected) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(make({"cluster", "--fault-plan=/nonexistent/plan.json"}), out, err), 1);
  EXPECT_NE(err.str().find("error:"), std::string::npos);

  const std::string bad_path = temp_path("cli_bad_plan.json");
  {
    std::ofstream plan(bad_path);
    plan << R"({"events": [{"kind": "warp_core_breach", "seconds": 1}]})";
  }
  std::ostringstream out2, err2;
  const std::string plan_arg = "--fault-plan=" + bad_path;
  EXPECT_EQ(run_cli(make({"cluster", plan_arg.c_str()}), out2, err2), 1);
  EXPECT_NE(err2.str().find("error:"), std::string::npos);
}

TEST(CliJson, ReportToleratesUnknownTopLevelFields) {
  const std::string path = generate_matrix("cli_report_fwd.mtx");
  const std::string file = temp_path("cli_report_fwd.json");
  {
    std::ostringstream out, err;
    const std::string matrix_arg = "--matrix=" + path;
    const std::string json_arg = "--json=" + file;
    ASSERT_EQ(run_cli(make({"simulate", matrix_arg.c_str(), json_arg.c_str()}), out, err),
              0)
        << err.str();
  }
  // A future producer adds top-level keys: the aggregator must not care.
  auto doc = obs::Json::parse([&] {
    std::ifstream in(file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }());
  doc.set("added_in_v7", "ignored");
  std::ofstream(file) << doc.dump(2) << "\n";
  std::ostringstream table, err;
  ASSERT_EQ(run_cli(make({"report", file.c_str()}), table, err), 0) << err.str();
  EXPECT_NE(table.str().find("cli_report_fwd.json"), std::string::npos);
}

TEST(CliJson, AnalyzeEmitsAnalysisJson) {
  const std::string path = generate_matrix("cli_analyze_json.mtx");
  std::ostringstream out, err;
  const std::string matrix_arg = "--matrix=" + path;
  ASSERT_EQ(run_cli(make({"analyze", matrix_arg.c_str(), "--json"}), out, err), 0)
      << err.str();
  const auto doc = obs::Json::parse(out.str());
  EXPECT_TRUE(obs::validate_report(doc).empty());
  EXPECT_EQ(doc.at("kind").as_string(), "analysis");
}

// --- result integrity: --verify / --sdc-* / --bad-dram / --mem-corrupt ---

TEST(CliIntegrity, SimulateVerifyJsonCarriesIntegritySection) {
  const std::string path = generate_matrix("cli_integ_sim.mtx");
  std::ostringstream out, err;
  const std::string matrix_arg = "--matrix=" + path;
  ASSERT_EQ(run_cli(make({"simulate", matrix_arg.c_str(), "--cores=4",
                          "--verify=correct", "--json"}),
                    out, err),
            0)
      << err.str();
  const auto doc = obs::Json::parse(out.str());
  EXPECT_TRUE(obs::validate_report(doc).empty());
  EXPECT_EQ(doc.at("run").at("verify").as_string(), "correct");
  const obs::Json& integ = doc.at("integrity");
  EXPECT_EQ(integ.at("verify").as_string(), "correct");
  EXPECT_EQ(integ.at("outcome").as_string(), "clean");
  EXPECT_FALSE(integ.at("injected").as_bool());
  EXPECT_EQ(integ.at("attempts").as_int(), 1);
  EXPECT_GT(integ.at("verify_seconds").as_double(), 0.0);
}

TEST(CliIntegrity, SimulateInjectedSdcIsDetectedAndShownInTheTable) {
  const std::string path = generate_matrix("cli_integ_sdc.mtx");
  const std::string matrix_arg = "--matrix=" + path;
  std::ostringstream out, err;
  // Exponent-range flip at rate 1: the check must catch it.
  ASSERT_EQ(run_cli(make({"simulate", matrix_arg.c_str(), "--cores=4",
                          "--verify=detect", "--sdc-rate=1", "--sdc-bits=52:62",
                          "--json"}),
                    out, err),
            0)
      << err.str();
  const auto doc = obs::Json::parse(out.str());
  const obs::Json& integ = doc.at("integrity");
  EXPECT_TRUE(integ.at("injected").as_bool());
  EXPECT_EQ(integ.at("outcome").as_string(), "detected");
  EXPECT_GT(integ.at("residual").as_double(), integ.at("tolerance").as_double());

  std::ostringstream table, err2;
  ASSERT_EQ(run_cli(make({"simulate", matrix_arg.c_str(), "--cores=4",
                          "--verify=correct", "--sdc-rate=1", "--sdc-bits=52:62"}),
                    table, err2),
            0)
      << err2.str();
  EXPECT_NE(table.str().find("verify / outcome"), std::string::npos);
  EXPECT_NE(table.str().find("verify overhead"), std::string::npos);
}

TEST(CliIntegrity, MalformedIntegrityFlagsRejectedWithActionableErrors) {
  const std::string path = generate_matrix("cli_integ_bad.mtx");
  const std::string matrix_arg = "--matrix=" + path;
  const auto expect_error = [&](std::vector<const char*> argv, const std::string& hint) {
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(make(argv), out, err), 1) << hint;
    EXPECT_NE(err.str().find("error:"), std::string::npos) << hint;
    EXPECT_NE(err.str().find(hint), std::string::npos) << err.str();
  };
  expect_error({"simulate", matrix_arg.c_str(), "--verify=on"}, "unknown verify mode");
  expect_error({"simulate", matrix_arg.c_str(), "--sdc-rate=1.5"}, "--sdc-rate");
  expect_error({"simulate", matrix_arg.c_str(), "--sdc-rate=1", "--sdc-bits=52"},
               "--sdc-bits expects MIN:MAX");
  expect_error({"simulate", matrix_arg.c_str(), "--sdc-rate=1", "--sdc-bits=10:99"},
               "--sdc-bits needs 0 <= MIN <= MAX <= 63");
  expect_error({"serve", "--sdc-sticky=-0.1"}, "--sdc-sticky");
  expect_error({"cluster", "--bad-dram=1"}, "--bad-dram");
  expect_error({"cluster", "--bad-dram=1:2.0"}, "--bad-dram");
  expect_error({"cluster", "--quarantine-threshold=-1"}, "--quarantine-threshold");
  expect_error({"resilience", matrix_arg.c_str(), "--mem-corrupt=0:val"},
               "--mem-corrupt expects RANK:REGION:ELEMENT:BIT");
  expect_error({"resilience", matrix_arg.c_str(), "--mem-corrupt=0:nowhere:3:4"},
               "unknown memory region");
  expect_error({"resilience", matrix_arg.c_str(), "--mem-corrupt=99:val:3:4"},
               "out of range");
  expect_error({"resilience", matrix_arg.c_str(), "--mem-corrupt=0:val:-3:4"},
               "--mem-corrupt element -3 must be >= 0");
  expect_error({"resilience", matrix_arg.c_str(), "--mem-corrupt-rate=2"},
               "--mem-corrupt-rate");
}

/// `argv` must fail with exit 1 and an error naming `hint`.
void expect_cli_error(std::vector<const char*> argv, const std::string& hint) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli(make(argv), out, err), 1) << hint;
  EXPECT_NE(err.str().find("error: "), std::string::npos) << hint;
  EXPECT_NE(err.str().find(hint), std::string::npos) << err.str();
}

TEST(CliCluster, RejectsBatchMaxBelowOneLikeServe) {
  setenv("SCC_TESTBED_SCALE", "0.05", 1);
  for (const char* flag : {"--batch-max=0", "--batch-max=-3"}) {
    expect_cli_error({"serve", "--requests=5", flag}, "batch_max must be >= 1");
    expect_cli_error({"cluster", "--requests=5", flag}, "batch_max must be >= 1");
  }
  unsetenv("SCC_TESTBED_SCALE");
}

TEST(Cli, BadFlagErrorsCarryNoCheckTextOrSourcePath) {
  setenv("SCC_TESTBED_SCALE", "0.05", 1);
  const std::vector<std::vector<const char*>> cases = {
      {"simulate", "--id=3", "--cores=4294967320"},
      {"serve", "--requests=5", "--mix=26,+27"},
      {"cluster", "--requests=5", "--crash=0:-1"},
      {"generate", "--family=nope"}};
  for (const auto& argv : cases) {
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(make(argv), out, err), 1) << argv[1];
    EXPECT_NE(err.str().find("error: "), std::string::npos) << err.str();
    EXPECT_EQ(err.str().find("[check"), std::string::npos) << err.str();
    EXPECT_EQ(err.str().find("/src/"), std::string::npos) << err.str();
  }
  expect_cli_error({"simulate", "--id=3", "--cores=4294967320"},
                   "--cores is out of range, got '4294967320'\n");
  unsetenv("SCC_TESTBED_SCALE");
}

TEST(CliServe, ListFlagsParseWholeTokens) {
  setenv("SCC_TESTBED_SCALE", "0.05", 1);
  expect_cli_error({"serve", "--requests=5", "--mix=26,+27"},
                   "--mix expects an integer, got '+27'");
  expect_cli_error({"serve", "--requests=5", "--mix=26, 27"},
                   "--mix expects an integer, got ' 27'");
  expect_cli_error({"serve", "--requests=5", "--mix=26,,27"}, "--mix has an empty item");
  expect_cli_error({"serve", "--requests=5", "--mix=26,"}, "--mix has an empty item");
  expect_cli_error({"serve", "--requests=5", "--mix=4294967322"},
                   "--mix is out of range, got '4294967322'");
  expect_cli_error({"autotune", "--mix=26x"}, "--mix expects an integer, got '26x'");
  expect_cli_error({"resilience", "--family=banded", "--n=200", "--ues=4", "--kill-ranks=1,"},
                   "--kill-ranks has an empty item");
  // 2^32 + 1 would narrow to rank 1.
  expect_cli_error({"resilience", "--family=banded", "--n=200", "--ues=4",
                    "--mem-corrupt=4294967297:val:0:1"},
                   "--mem-corrupt is out of range, got '4294967297'");
  expect_cli_error({"resilience", "--family=banded", "--n=200", "--ues=4",
                    "--mem-corrupt=1:val:0:1,,2:val:0:1"},
                   "--mem-corrupt has an empty item");
  expect_cli_error({"resilience", "--family=banded", "--n=200", "--ues=4",
                    "--mem-corrupt=1:val:0:+1"},
                   "--mem-corrupt expects an integer, got '+1'");
  expect_cli_error({"serve", "--requests=5", "--sdc-rate=0.5", "--sdc-bits=+1:3"},
                   "--sdc-bits expects an integer, got '+1'");
  expect_cli_error({"serve", "--requests=5", "--sdc-rate=0.5", "--sdc-bits=1:3:5"},
                   "--sdc-bits expects MIN:MAX");
  unsetenv("SCC_TESTBED_SCALE");
}

TEST(CliCluster, FaultSpecsParseWholeFiniteTokens) {
  setenv("SCC_TESTBED_SCALE", "0.05", 1);
  expect_cli_error({"cluster", "--requests=5", "--crash=0: 0.1"},
                   "--crash expects a number, got ' 0.1'");
  expect_cli_error({"cluster", "--requests=5", "--crash=0:nan"},
                   "--crash expects a finite number, got 'nan'");
  expect_cli_error({"cluster", "--requests=5", "--crash=0:inf"},
                   "--crash expects a finite number, got 'inf'");
  expect_cli_error({"cluster", "--requests=5", "--crash=0.5:0.1"},
                   "--crash expects an integer, got '0.5'");
  expect_cli_error({"cluster", "--requests=5", "--crash=0:0.1,"}, "--crash has an empty item");
  expect_cli_error({"cluster", "--requests=5", "--tile-kill=0::0.1"},
                   "--tile-kill has an empty item");
  expect_cli_error({"cluster", "--requests=5", "--brownout=0:1:0.1:0.2:1e999"},
                   "--brownout is out of range, got '1e999'");
  expect_cli_error({"cluster", "--requests=5", "--flap=0:0.1:2.5:0.1"},
                   "--flap expects an integer, got '2.5'");
  // Parsed, then refused by the plan's own checks, which JSON plans share.
  expect_cli_error({"cluster", "--requests=5", "--crash=0:-1"},
                   "chip_crash seconds must be a finite time >= 0, got -1");
  expect_cli_error({"cluster", "--requests=5", "--tile-kill=0:7:-0.5"},
                   "tile_kill seconds must be a finite time >= 0");
  expect_cli_error({"cluster", "--requests=5", "--brownout=0:1:-0.1:0.2"},
                   "brownout seconds must be a finite time >= 0");
  expect_cli_error({"cluster", "--requests=5", "--domain-outage=0:-3"},
                   "domain_outage seconds must be a finite time >= 0");
  expect_cli_error({"cluster", "--requests=5", "--crash-horizon=inf"},
                   "crash_horizon_seconds must be finite");
  unsetenv("SCC_TESTBED_SCALE");
}

TEST(CliCluster, RejectsSdcSeedAndPointsToTheFaultPlan) {
  expect_cli_error({"cluster", "--verify=detect", "--sdc-rate=0.3", "--sdc-seed=12345"},
                   "--sdc-seed is a serve flag");
  expect_cli_error({"cluster", "--sdc-seed=7"}, "--fault-seed");
}

TEST(CliCluster, RejectsSdcBitsAndPointsToTheFaultPlan) {
  expect_cli_error({"cluster", "--verify=detect", "--sdc-rate=0.3", "--sdc-bits=0:3"},
                   "--sdc-bits is a serve flag");
  expect_cli_error({"cluster", "--sdc-bits=52:62"}, "--fault-seed");
}

TEST(CliIntegrity, ResilienceJsonCountsCorruptTransfersAndMemoryFlips) {
  const std::string path = generate_matrix("cli_integ_res.mtx");
  const std::string matrix_arg = "--matrix=" + path;
  std::ostringstream out, err;
  // A planned exponent flip corrupts the delivered product: the command
  // reports the corruption in fault_counts and exits 1 (wrong product).
  EXPECT_EQ(run_cli(make({"resilience", matrix_arg.c_str(), "--ues=4",
                          "--mem-corrupt=1:val:50:52", "--json"}),
                    out, err),
            1)
      << err.str();
  const auto doc = obs::Json::parse(out.str());
  EXPECT_TRUE(obs::validate_report(doc).empty());
  EXPECT_EQ(doc.at("fault_counts").at("mem_corrupts").as_int(), 1);
  EXPECT_FALSE(doc.at("resilience").at("correct").as_bool());
  EXPECT_GT(doc.at("resilience").at("max_error").as_double(), 1e-9);

  // Table mode surfaces both corruption rows.
  std::ostringstream table, err2;
  EXPECT_EQ(run_cli(make({"resilience", matrix_arg.c_str(), "--ues=4",
                          "--mem-corrupt=1:val:50:52"}),
                    table, err2),
            1)
      << err2.str();
  EXPECT_NE(table.str().find("transfer corruptions"), std::string::npos);
  EXPECT_NE(table.str().find("memory corruptions"), std::string::npos);
  EXPECT_NE(table.str().find("WRONG"), std::string::npos);
}

TEST(CliIntegrity, ServeAndClusterJsonCarryIntegritySections) {
  setenv("SCC_TESTBED_SCALE", "0.05", 1);
  std::ostringstream serve_out, serve_err;
  ASSERT_EQ(run_cli(make({"serve", "--requests=20", "--load=500",
                          "--verify=correct", "--sdc-rate=0.5", "--json"}),
                    serve_out, serve_err),
            0)
      << serve_err.str();
  const auto serve_doc = obs::Json::parse(serve_out.str());
  EXPECT_TRUE(obs::validate_report(serve_doc).empty());
  EXPECT_EQ(serve_doc.at("integrity").at("verify").as_string(), "correct");
  EXPECT_GT(serve_doc.at("integrity").at("sdc_corrupted").as_int(), 0);
  EXPECT_EQ(serve_doc.at("integrity").at("sdc_corrupted").as_int(),
            serve_doc.at("integrity").at("sdc_retries").as_int());

  std::ostringstream cluster_out, cluster_err;
  ASSERT_EQ(run_cli(make({"cluster", "--chips=2", "--requests=20", "--load=1000",
                          "--verify=correct", "--bad-dram=0:1:1",
                          "--quarantine-threshold=2", "--json"}),
                    cluster_out, cluster_err),
            0)
      << cluster_err.str();
  unsetenv("SCC_TESTBED_SCALE");
  const auto cluster_doc = obs::Json::parse(cluster_out.str());
  EXPECT_TRUE(obs::validate_report(cluster_doc).empty());
  const obs::Json& integ = cluster_doc.at("integrity");
  EXPECT_EQ(integ.at("verify").as_string(), "correct");
  EXPECT_GT(integ.at("sdc_detected").as_int(), 0);
  EXPECT_EQ(integ.at("sdc_escapes").as_int(), 0);
  EXPECT_EQ(integ.at("quarantines").as_int(), 1);
  EXPECT_EQ(cluster_doc.at("config").at("quarantine_threshold").as_int(), 2);
}

}  // namespace
}  // namespace scc::tools
