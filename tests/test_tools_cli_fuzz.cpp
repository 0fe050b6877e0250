// Seeded argv fuzzer over run_cli.
//
// Each subcommand has one small valid base line. A mutant changes one flag
// token of it: it truncates the value, flips or inserts a byte, splices in
// another flag's value, misspells the flag's name or drops its '='. Every
// mutant must return 0 or 1 without crashing (the ASan+UBSan job runs this
// suite too); an exit 1 prints exactly one line, "error: ...". A misspelled
// name must be the flag the error names, reported before the command
// writes any output or file.
//
// Mutants never ask for more work than their base: the testbed runs at
// scale 0.05, inserted and flipped bytes are never digits, 'e' or 'x' (so a
// number can only turn invalid or shrink), and spliced values come from the
// same small base line. Path-valued flags keep their values, which all lie
// in a per-test temporary directory; --sim-threads is never mutated, and the
// thread count is reset after every mutant.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli_commands.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace scc::tools {
namespace {

namespace fs = std::filesystem;

struct BaseLine {
  std::string command;
  std::vector<std::string> flags;       ///< "--key=value" or a bare "--flag"
  std::vector<std::string> positional{};  ///< after the command, never mutated
};

/// Flags whose value names a file: never mutated, never spliced.
bool path_valued(const std::string& key) {
  static const std::set<std::string> kPaths = {
      "out", "matrix", "json", "trace", "run-cache-file", "tuning-cache-file", "fault-plan"};
  return kPaths.contains(key);
}

std::string key_of(const std::string& flag) {
  const auto eq = flag.find('=');
  return flag.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
}

std::string value_of(const std::string& flag) {
  const auto eq = flag.find('=');
  return eq == std::string::npos ? std::string() : flag.substr(eq + 1);
}

/// Replacement bytes: never a digit, 'e'/'E' (an exponent) or 'x'/'X' (a
/// hex prefix), and never NUL.
char fuzz_byte(Rng& rng) {
  static const std::string kBytes = "abcdfgkqzABZ-+.,:=/ _~!@#%^&*()[]{}<>?|;'\"\t\x7f\x80\xff";
  return kBytes[rng.uniform(kBytes.size())];
}

struct Mutant {
  std::vector<std::string> flags;
  std::string misspelled;  ///< the new flag name when the mutant misspelled one
};

/// One mutation of one flag of `base`, or nothing when the chosen operator
/// does not apply to the chosen flag.
std::optional<Mutant> mutate(const BaseLine& base, Rng& rng) {
  Mutant mutant{base.flags, ""};
  const std::size_t i = rng.uniform(mutant.flags.size());
  std::string& flag = mutant.flags[i];
  const std::string key = key_of(flag);
  if (key == "sim-threads") return std::nullopt;
  const bool has_value = flag.find('=') != std::string::npos;
  const bool value_mutable = has_value && !path_valued(key);
  // Positions a byte edit may touch: the name, plus the value when mutable.
  const std::size_t editable = value_mutable ? flag.size() : 2 + key.size();
  switch (rng.uniform(6)) {
    case 0: {  // truncate the value
      const std::string value = value_of(flag);
      if (!value_mutable || value.empty()) return std::nullopt;
      flag = "--" + key + "=" + value.substr(0, rng.uniform(value.size()));
      return mutant;
    }
    case 1:  // flip a byte
      flag[2 + rng.uniform(editable - 2)] = fuzz_byte(rng);
      return mutant;
    case 2:  // insert a byte
      flag.insert(2 + rng.uniform(editable - 1), 1, fuzz_byte(rng));
      return mutant;
    case 3: {  // splice in another flag's value
      if (!value_mutable) return std::nullopt;
      const std::string& donor = base.flags[rng.uniform(base.flags.size())];
      const std::string donor_key = key_of(donor);
      if (donor == flag || donor_key == "sim-threads" || path_valued(donor_key) ||
          donor.find('=') == std::string::npos) {
        return std::nullopt;
      }
      flag = "--" + key + "=" + value_of(donor);
      return mutant;
    }
    case 4: {  // misspell the name: swap two neighbours, or double a letter
      std::string name = key;
      const std::size_t at = rng.uniform(name.size());
      if (at + 1 < name.size() && name[at] != name[at + 1] && rng.uniform(2) == 0) {
        std::swap(name[at], name[at + 1]);
      } else {
        name.insert(at, 1, name[at]);
      }
      mutant.misspelled = name;
      flag = "--" + name + (has_value ? "=" + value_of(flag) : "");
      return mutant;
    }
    default:  // drop the '='
      if (!has_value) return std::nullopt;
      flag.erase(flag.find('='), 1);
      return mutant;
  }
}

std::set<std::string> files_in(const fs::path& dir) {
  std::set<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) files.insert(entry.path().string());
  return files;
}

int run(const std::string& command, const std::vector<std::string>& flags, std::ostream& out,
        std::ostream& err, const std::vector<std::string>& positional = {}) {
  std::vector<const char*> argv = {"scc-spmv", command.c_str()};
  for (const std::string& arg : positional) argv.push_back(arg.c_str());
  for (const std::string& flag : flags) argv.push_back(flag.c_str());
  return run_cli(CliArgs(static_cast<int>(argv.size()), argv.data()), out, err);
}

class CliFuzz : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    setenv("SCC_TESTBED_SCALE", "0.05", 1);
    dir_ = fs::path(::testing::TempDir()) / ("cli_fuzz_" + GetParam());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  /// The subcommand's base line; its input files are made here.
  BaseLine base_line() {
    const std::string& command = GetParam();
    std::ostringstream out, err;
    if (command == "generate") {
      return {command,
              {"--family=random", "--n=200", "--row-nnz=5", "--seed=7", "--out=" + path("g.mtx")}};
    }
    if (command == "testbed") return {command, {"--id=24", "--out=" + path("t.mtx")}};
    if (command == "analyze") return {command, {"--id=3", "--json"}};
    if (command == "simulate") {
      return {command,
              {"--id=3", "--cores=4", "--mapping=ca", "--format=hyb", "--conf=1",
               "--verify=detect", "--sim-threads=2"}};
    }
    if (command == "convert") {
      EXPECT_EQ(run("generate", {"--family=banded", "--n=300", "--out=" + path("in.mtx")}, out,
                    err),
                0)
          << err.str();
      return {command, {"--matrix=" + path("in.mtx"), "--rcm", "--out=" + path("c.mtx")}};
    }
    if (command == "resilience") {
      return {command, {"--family=banded", "--n=40", "--ues=3", "--timeout=0.5", "--seed=5"}};
    }
    if (command == "serve") {
      return {command,
              {"--requests=20", "--load=50", "--mix=26,27", "--policy=fifo", "--seed=3",
               "--batch-max=4", "--json"}};
    }
    if (command == "cluster") {
      return {command,
              {"--chips=2", "--requests=20", "--crash=1:0.05", "--mix=26,27", "--seed=3",
               "--retries=2"}};
    }
    if (command == "autotune") {
      return {command, {"--mix=26", "--conf=1", "--fastpath=off", "--tuning-cache-capacity=8"}};
    }
    EXPECT_EQ(command, "report");
    EXPECT_EQ(run("simulate", {"--id=3", "--cores=4", "--json=" + path("run.json")}, out, err), 0)
        << err.str();
    return {command, {"--json"}, {path("run.json")}};
  }

  fs::path dir_;
};

TEST_P(CliFuzz, MutantsExitZeroOrOneWithOneErrorLine) {
  const BaseLine base = base_line();
  {
    std::ostringstream out, err;
    ASSERT_EQ(run(base.command, base.flags, out, err, base.positional), 0) << err.str();
    common::set_sim_threads(0);
  }
  common::Fnv1a seed;
  seed.text(GetParam());
  Rng rng(seed.value());
  int mutants = 0;
  int misspelled = 0;
  while (mutants < 200) {
    const std::optional<Mutant> mutant = mutate(base, rng);
    if (!mutant) continue;
    ++mutants;
    std::string line = base.command;
    for (const std::string& flag : mutant->flags) line += " " + flag;
    const std::set<std::string> files_before = files_in(dir_);
    std::ostringstream out, err;
    const int rc = run(base.command, mutant->flags, out, err, base.positional);
    common::set_sim_threads(0);
    ASSERT_TRUE(rc == 0 || rc == 1) << line << " -> " << rc;
    if (rc == 1) {
      const std::string text = err.str();
      EXPECT_EQ(text.rfind("error: ", 0), 0U) << line << ": " << text;
      EXPECT_EQ(text.find('\n'), text.size() - 1) << line << ": " << text;
    }
    if (!mutant->misspelled.empty()) {
      ++misspelled;
      EXPECT_EQ(rc, 1) << line;
      EXPECT_NE(err.str().find("--" + mutant->misspelled + " "), std::string::npos)
          << line << ": " << err.str();
      EXPECT_TRUE(out.str().empty()) << line;
      EXPECT_EQ(files_in(dir_), files_before) << line;
    }
  }
  EXPECT_GT(misspelled, 0);
}

INSTANTIATE_TEST_SUITE_P(Commands, CliFuzz,
                         ::testing::Values("generate", "testbed", "analyze", "simulate",
                                           "convert", "resilience", "serve", "cluster",
                                           "autotune", "report"),
                         [](const ::testing::TestParamInfo<std::string>& command) {
                           return command.param;
                         });

}  // namespace
}  // namespace scc::tools
