#include "common/cli.hpp"

#include <charconv>
#include <cstddef>
#include <system_error>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace scc {

CliArgs::CliArgs(int argc, const char* const* argv) {
  SCC_REQUIRE(argc >= 1, "CliArgs requires argv[0]");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--key value` when the next token is not itself an option; otherwise a
    // bare boolean flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "true";
    }
  }
}

std::optional<std::string> CliArgs::get(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& key, const std::string& fallback) const {
  return get(key).value_or(fallback);
}

namespace {

/// Parses all of `text` as a T; throws naming `--key` when it is empty, out
/// of range or has a tail (`20x`).
template <typename T>
T parse_whole(const std::string& key, const std::string& text, const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  SCC_REQUIRE(ec == std::errc() && ptr == end,
              "--" << key << " expects " << expected << ", got '" << text << "'");
  return value;
}

}  // namespace

long long CliArgs::get_int_or(const std::string& key, long long fallback) const {
  const auto value = get(key);
  return value ? parse_whole<long long>(key, *value, "an integer") : fallback;
}

double CliArgs::get_double_or(const std::string& key, double fallback) const {
  const auto value = get(key);
  return value ? parse_whole<double>(key, *value, "a number") : fallback;
}

std::size_t CliArgs::get_size_or(const std::string& key, std::size_t fallback) const {
  const long long value = get_int_or(key, static_cast<long long>(fallback));
  SCC_REQUIRE(value >= 0, "--" << key << " must be non-negative, got " << value);
  return static_cast<std::size_t>(value);
}

bool CliArgs::get_bool_or(const std::string& key, bool fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  return *value == "true" || *value == "1" || *value == "yes" || *value == "on";
}

std::vector<std::string> CliArgs::keys() const {
  std::vector<std::string> out;
  out.reserve(options_.size());
  for (const auto& [key, _] : options_) out.push_back(key);
  return out;
}

OutputOptions parse_output_options(const CliArgs& args) {
  OutputOptions options;
  if (const auto json = args.get("json")) {
    options.format = OutputFormat::kJson;
    // A bare `--json` parses as the value "true": JSON to stdout.
    if (*json != "true") options.json_path = *json;
  }
  if (const auto trace = args.get("trace")) {
    SCC_REQUIRE(*trace != "true" && !trace->empty(),
                "--trace requires a file: --trace=FILE");
    options.trace_path = *trace;
  }
  return options;
}

std::uint64_t seed_option(const CliArgs& args, std::uint64_t fallback) {
  const auto text = args.get("seed");
  if (!text) return fallback;
  return parse_seed(*text);
}

}  // namespace scc
