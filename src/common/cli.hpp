// Minimal command-line option parsing for the bench and example binaries.
//
// Supports `--key=value`, `--key value` and boolean `--flag` forms; anything
// not starting with "--" is a positional argument. Unknown keys are kept so
// binaries can reject them explicitly: every lookup marks its key read, and
// `unread` lists the keys no lookup asked for.
//
// Also home of the shared output-selection flags every scc-spmv subcommand
// understands (`--json[=FILE]`, `--trace=FILE`), parsed once by
// `parse_output_options` so the commands agree on semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
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
  /// Numeric values must parse whole and fit their type (`--requests=20x`
  /// and `--cores=4294967320` are errors naming the flag, never 20 or 24);
  /// get_size_or also rejects negatives.
  int get_int_or(const std::string& key, int fallback) const;
  double get_double_or(const std::string& key, double fallback) const;
  std::size_t get_size_or(const std::string& key, std::size_t fallback) const;
  bool get_bool_or(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Parsed keys no get()/get_*_or() call has looked up yet, in key order
  /// (has() is not a lookup); lets binaries reject flags they never read.
  std::vector<std::string> unread() const;

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

/// One item of a list or `:`-separated flag value (`--mix=26,27`,
/// `--crash=0:0.5`), parsed by the rules of CliArgs::get_int_or /
/// get_double_or: the whole token must parse and fit its type, and a number
/// must also be finite. Errors name `flag` (e.g. "--mix") and the token.
int parse_int_token(const std::string& flag, const std::string& token);
double parse_finite_token(const std::string& flag, const std::string& token);

/// `text` split at every `separator`. An empty item (`1,,2`, `1,`, `,1`) is
/// an error naming `flag`; empty `text` is the empty list.
std::vector<std::string> split_items(const std::string& flag, const std::string& text,
                                     char separator);

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
