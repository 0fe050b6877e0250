#include "common/cli.hpp"

#include <charconv>
#include <cmath>
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
  read_.insert(key);
  return it->second;
}

std::string CliArgs::get_or(const std::string& key, const std::string& fallback) const {
  return get(key).value_or(fallback);
}

namespace {

/// Parses all of `text` as a T; throws naming `flag` when it is empty, out
/// of T's range or has a tail (`20x`).
template <typename T>
T parse_whole(const std::string& flag, const std::string& text, const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  SCC_REQUIRE(ec != std::errc::result_out_of_range,
              flag << " is out of range, got '" << text << "'");
  SCC_REQUIRE(ec == std::errc() && ptr == end,
              flag << " expects " << expected << ", got '" << text << "'");
  return value;
}

}  // namespace

int CliArgs::get_int_or(const std::string& key, int fallback) const {
  const auto value = get(key);
  return value ? parse_int_token("--" + key, *value) : fallback;
}

double CliArgs::get_double_or(const std::string& key, double fallback) const {
  const auto value = get(key);
  return value ? parse_whole<double>("--" + key, *value, "a number") : fallback;
}

std::size_t CliArgs::get_size_or(const std::string& key, std::size_t fallback) const {
  const auto text = get(key);
  if (!text) return fallback;
  const auto value = parse_whole<long long>("--" + key, *text, "an integer");
  SCC_REQUIRE(value >= 0, "--" << key << " must be non-negative, got " << value);
  return static_cast<std::size_t>(value);
}

int parse_int_token(const std::string& flag, const std::string& token) {
  return parse_whole<int>(flag, token, "an integer");
}

double parse_finite_token(const std::string& flag, const std::string& token) {
  const auto value = parse_whole<double>(flag, token, "a number");
  SCC_REQUIRE(std::isfinite(value), flag << " expects a finite number, got '" << token << "'");
  return value;
}

std::vector<std::string> split_items(const std::string& flag, const std::string& text,
                                     char separator) {
  std::vector<std::string> items;
  if (text.empty()) return items;
  std::size_t begin = 0;
  while (true) {
    const std::size_t end = text.find(separator, begin);
    items.push_back(text.substr(begin, end == std::string::npos ? end : end - begin));
    SCC_REQUIRE(!items.back().empty(),
                flag << " has an empty item in '" << text << "'");
    if (end == std::string::npos) return items;
    begin = end + 1;
  }
}

bool CliArgs::get_bool_or(const std::string& key, bool fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  return *value == "true" || *value == "1" || *value == "yes" || *value == "on";
}

std::vector<std::string> CliArgs::unread() const {
  std::vector<std::string> out;
  for (const auto& [key, _] : options_) {
    if (!read_.contains(key)) out.push_back(key);
  }
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
