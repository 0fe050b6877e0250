// Minimal command-line option parsing for the bench and example binaries.
//
// Supports `--key=value`, `--key value` and boolean `--flag` forms; anything
// not starting with "--" is a positional argument. Unknown keys are kept so
// binaries can reject them explicitly.
//
// Also home of the shared output-selection flags every scc-spmv subcommand
// understands (`--json[=FILE]`, `--trace=FILE`), parsed once by
// `parse_output_options` so the commands agree on semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace scc {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

  bool has(const std::string& key) const { return options_.count(key) != 0; }

  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, const std::string& fallback) const;
  /// Numeric values must parse whole (`--requests=20x` is an error naming
  /// the flag, never 20); get_size_or also rejects negatives.
  long long get_int_or(const std::string& key, long long fallback) const;
  double get_double_or(const std::string& key, double fallback) const;
  std::size_t get_size_or(const std::string& key, std::size_t fallback) const;
  bool get_bool_or(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Keys that were parsed; lets binaries validate against a known set.
  std::vector<std::string> keys() const;

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// How a command renders its result.
enum class OutputFormat { kTable, kJson };

/// Shared output flags: `--json` selects JSON on stdout, `--json=FILE`
/// JSON into FILE; `--trace=FILE` requests a JSON-lines span/event trace.
struct OutputOptions {
  OutputFormat format = OutputFormat::kTable;
  std::string json_path;   ///< destination file; empty = stdout
  std::string trace_path;  ///< empty = tracing disabled

  bool json() const { return format == OutputFormat::kJson; }
};

/// Parse `--json[=FILE]` / `--trace=FILE` from `args`. Throws on a bare
/// `--trace` with no file.
OutputOptions parse_output_options(const CliArgs& args);

/// The shared `--seed` flag: every randomized path (generators, fault
/// injection, the serve load generator) derives its stream from this one
/// value so a whole command reproduces from a single flag. Accepts decimal
/// or 0x-prefixed hex (common::rng parse_seed); returns `fallback` when the
/// flag is absent, throws on unparsable text.
std::uint64_t seed_option(const CliArgs& args, std::uint64_t fallback);

}  // namespace scc
