#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace scc {
namespace {

CliArgs make(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return CliArgs(static_cast<int>(v.size()), v.data());
}

TEST(Cli, ProgramName) {
  const auto args = make({"prog"});
  EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, KeyEqualsValue) {
  const auto args = make({"prog", "--cores=24"});
  EXPECT_EQ(args.get_or("cores", ""), "24");
  EXPECT_EQ(args.get_int_or("cores", 0), 24);
}

TEST(Cli, KeySpaceValue) {
  const auto args = make({"prog", "--cores", "24"});
  EXPECT_EQ(args.get_int_or("cores", 0), 24);
}

TEST(Cli, BareFlagIsTrue) {
  const auto args = make({"prog", "--fast"});
  EXPECT_TRUE(args.has("fast"));
  EXPECT_TRUE(args.get_bool_or("fast", false));
}

TEST(Cli, FlagFollowedByFlag) {
  const auto args = make({"prog", "--fast", "--cores=8"});
  EXPECT_TRUE(args.get_bool_or("fast", false));
  EXPECT_EQ(args.get_int_or("cores", 0), 8);
}

TEST(Cli, MissingKeyUsesFallback) {
  const auto args = make({"prog"});
  EXPECT_EQ(args.get_int_or("cores", 48), 48);
  EXPECT_DOUBLE_EQ(args.get_double_or("scale", 1.5), 1.5);
  EXPECT_FALSE(args.get_bool_or("fast", false));
  EXPECT_FALSE(args.get("cores").has_value());
}

TEST(Cli, PositionalArguments) {
  const auto args = make({"prog", "input.mtx", "--cores=2", "output.txt"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.mtx");
  EXPECT_EQ(args.positional()[1], "output.txt");
}

TEST(Cli, DoubleParsing) {
  const auto args = make({"prog", "--scale=0.25"});
  EXPECT_DOUBLE_EQ(args.get_double_or("scale", 1.0), 0.25);
}

TEST(Cli, BoolSpellings) {
  EXPECT_TRUE(make({"p", "--f=yes"}).get_bool_or("f", false));
  EXPECT_TRUE(make({"p", "--f=1"}).get_bool_or("f", false));
  EXPECT_TRUE(make({"p", "--f=on"}).get_bool_or("f", false));
  EXPECT_FALSE(make({"p", "--f=no"}).get_bool_or("f", true));
}

TEST(Cli, KeysEnumerated) {
  const auto args = make({"prog", "--a=1", "--b=2", "--c"});
  EXPECT_EQ(args.unread(), (std::vector<std::string>{"a", "b", "c"}));
  // A lookup marks its key read; presence checks and absent keys do not.
  EXPECT_TRUE(args.has("a"));
  EXPECT_EQ(args.get_int_or("b", 0), 2);
  EXPECT_FALSE(args.get("d"));
  EXPECT_EQ(args.unread(), (std::vector<std::string>{"a", "c"}));
}

TEST(Cli, LastOccurrenceWins) {
  const auto args = make({"prog", "--n=1", "--n=2"});
  EXPECT_EQ(args.get_int_or("n", 0), 2);
}

TEST(OutputOptions, DefaultsToTable) {
  const auto output = parse_output_options(make({"prog"}));
  EXPECT_EQ(output.format, OutputFormat::kTable);
  EXPECT_FALSE(output.json());
  EXPECT_TRUE(output.json_path.empty());
  EXPECT_TRUE(output.trace_path.empty());
}

TEST(OutputOptions, BareJsonMeansStdout) {
  const auto output = parse_output_options(make({"prog", "--json"}));
  EXPECT_EQ(output.format, OutputFormat::kJson);
  EXPECT_TRUE(output.json());
  EXPECT_TRUE(output.json_path.empty());
}

TEST(OutputOptions, JsonWithPathAndTrace) {
  const auto output =
      parse_output_options(make({"prog", "--json=run.json", "--trace=run.jsonl"}));
  EXPECT_TRUE(output.json());
  EXPECT_EQ(output.json_path, "run.json");
  EXPECT_EQ(output.trace_path, "run.jsonl");
}

TEST(OutputOptions, BareTraceRejected) {
  EXPECT_THROW(parse_output_options(make({"prog", "--trace"})), std::invalid_argument);
}

TEST(SeedOption, FallbackWhenAbsent) {
  EXPECT_EQ(seed_option(make({"prog"}), 0x5cc), 0x5ccu);
}

TEST(SeedOption, DecimalAndHexAccepted) {
  EXPECT_EQ(seed_option(make({"prog", "--seed=42"}), 0), 42u);
  EXPECT_EQ(seed_option(make({"prog", "--seed=0xBEEF"}), 0), 0xbeefu);
  EXPECT_EQ(seed_option(make({"prog", "--seed", "7"}), 0), 7u);
}

TEST(SeedOption, BadSeedThrows) {
  EXPECT_THROW(seed_option(make({"prog", "--seed=banana"}), 0), std::invalid_argument);
  EXPECT_THROW(seed_option(make({"prog", "--seed="}), 0), std::invalid_argument);
}

}  // namespace
}  // namespace scc
