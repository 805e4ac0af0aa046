#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace rcp::cli {
namespace {

TEST(CliNumber, AcceptsWholeUnsignedTokens) {
  EXPECT_EQ(parse_number<std::uint32_t>("7"), 7u);
  EXPECT_EQ(parse_number<std::uint32_t>("0"), 0u);
  EXPECT_EQ(parse_number<std::uint16_t>("65535"), 65535u);
  EXPECT_EQ(parse_number<std::uint32_t>("4294967295"), 4294967295u);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_number<std::uint64_t>("ff", 16), 255u);
}

TEST(CliNumber, RejectsTrailingGarbageSignsAndBlanks) {
  for (const char* bad : {"7x", "12x", "abc", "", " 7", "7 ", "0x10", "1.5",
                          "-1", "+1", "-0"}) {
    EXPECT_EQ(parse_number<std::uint32_t>(bad), std::nullopt) << bad;
    EXPECT_EQ(parse_number<std::uint64_t>(bad), std::nullopt) << bad;
  }
}

TEST(CliNumber, RejectsValuesOutOfRangeForTheTarget) {
  EXPECT_EQ(parse_number<std::uint16_t>("65536"), std::nullopt);
  EXPECT_EQ(parse_number<std::uint32_t>("4294967296"), std::nullopt);
  // Seven more than 2^32: a cast from a wider parse would give 7.
  EXPECT_EQ(parse_number<std::uint32_t>("4294967303"), std::nullopt);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551616"),
            std::nullopt);
}

TEST(CliNumber, ParsesDoublesWithoutASign) {
  EXPECT_EQ(parse_number<double>("0.02"), 0.02);
  EXPECT_EQ(parse_number<double>("1e-2"), 0.01);
  EXPECT_EQ(parse_number<double>("3"), 3.0);
  for (const char* bad : {"-0.5", "+0.5", "0.5x", "", "x"}) {
    EXPECT_EQ(parse_number<double>(bad), std::nullopt) << bad;
  }
}

TEST(CliNumber, ParsePairSplitsAtTheFirstSeparator) {
  std::uint32_t a = 9;
  std::uint64_t b = 9;
  EXPECT_TRUE(parse_pair("4@1", '@', a, b));
  EXPECT_EQ(a, 4u);
  EXPECT_EQ(b, 1u);
  for (const char* bad : {"4", "@1", "4@", "4@1x", "x@1", "4@-1", "4:1"}) {
    EXPECT_FALSE(parse_pair(bad, '@', a, b)) << bad;
  }
  EXPECT_EQ(a, 4u);  // a rejected pair leaves both targets alone
  EXPECT_EQ(b, 1u);
}

TEST(CliNumber, PositionalFallsBackWhenAbsentAndExitsTwoWhenMalformed) {
  std::string prog = "prog";
  std::string seed = "12";
  std::string bad = "12x";
  char* good_argv[] = {prog.data(), seed.data()};
  EXPECT_EQ(positional<std::uint64_t>(2, good_argv, 1, 42, "[seed]"), 12u);
  EXPECT_EQ(positional<std::uint64_t>(2, good_argv, 2, 42, "[seed]"), 42u);
  char* bad_argv[] = {prog.data(), bad.data()};
  EXPECT_EXIT((void)positional<std::uint64_t>(2, bad_argv, 1, 42, "[seed]"),
              testing::ExitedWithCode(2), "usage: prog \\[seed\\]");
}

/// Runs `parser` over {"prog", args...}; returns the verdict and stderr.
std::pair<bool, std::string> run(const Parser& parser,
                                 std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  testing::internal::CaptureStderr();
  const bool ok = parser.parse(static_cast<int>(argv.size()), argv.data());
  return {ok, testing::internal::GetCapturedStderr()};
}

enum class Shape : std::uint8_t { circle, square };
struct ShapeName {
  Shape kind;
  const char* token;
};
constexpr std::array<ShapeName, 2> kShapes{{
    {Shape::circle, "circle"},
    {Shape::square, "square"},
}};

struct Options {
  std::uint16_t port = 0;
  std::uint32_t n = 7;
  std::uint64_t seed = 1;
  double drop = 0.0;
  std::string path;
  std::optional<std::uint32_t> k;
  std::uint32_t groups = 4;
  Shape shape = Shape::circle;
  std::optional<Shape> extra;
  std::string mode = "sim";
  bool minimize = true;
  std::vector<std::uint32_t> crashes;
};

Parser flags(Options& opt) {
  Parser p;
  p.value("--port", "P", opt.port, "u16")
      .value("--n", "N", opt.n, "u32")
      .value("--seed", "S", opt.seed, "u64")
      .value("--drop", "P", opt.drop, "double")
      .value("--path", "FILE", opt.path, "string")
      .value("--k", "K", opt.k, "optional")
      .value("--groups", "G", opt.groups, "at least 1", 1)
      .choice("--shape", opt.shape, kShapes, "enum")
      .choice("--extra", opt.extra, kShapes, "optional enum")
      .choice("--mode", opt.mode, {"sim", "net"}, "string choice")
      .set("--minimize", opt.minimize, true, "on")
      .set("--no-minimize", opt.minimize, false, "off")
      .custom("--crash", "ID", "repeatable", [&opt](std::string_view v) {
        const auto id = parse_number<std::uint32_t>(v);
        if (id) {
          opt.crashes.push_back(*id);
        }
        return id.has_value();
      });
  return p;
}

TEST(CliParser, StoresEveryKindOfValue) {
  Options opt;
  const auto [ok, err] =
      run(flags(opt), {"--port", "9200", "--n", "31", "--seed",
                       "18446744073709551615", "--drop", "0.25", "--path",
                       "a b", "--k", "3", "--groups", "2", "--shape", "square",
                       "--extra", "circle", "--mode", "net"});
  EXPECT_TRUE(ok) << err;
  EXPECT_EQ(err, "");
  EXPECT_EQ(opt.port, 9200u);
  EXPECT_EQ(opt.n, 31u);
  EXPECT_EQ(opt.seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(opt.drop, 0.25);
  EXPECT_EQ(opt.path, "a b");
  EXPECT_EQ(opt.k, 3u);
  EXPECT_EQ(opt.groups, 2u);
  EXPECT_EQ(opt.shape, Shape::square);
  EXPECT_EQ(opt.extra, Shape::circle);
  EXPECT_EQ(opt.mode, "net");

  EXPECT_TRUE(run(flags(opt), {"--extra", "none"}).first);
  EXPECT_EQ(opt.extra, std::nullopt);
}

TEST(CliParser, RejectsEveryMalformedFormWithTheUsageText) {
  const std::vector<std::vector<std::string>> bad = {
      {"--n", "7x"},         // trailing garbage
      {"--n", "abc"},        // not a number
      {"--n", "-1"},         // a sign (would wrap to 4294967295)
      {"--seed", "+1"},      // a sign
      {"--drop", "-0.5"},    // a sign on a double
      {"--port", "65536"},   // u16 overflow
      {"--n", "4294967303"}, // u32 overflow
      {"--seed", "18446744073709551616"},  // u64 overflow
      {"--k", ""},           // empty optional
      {"--groups", "0"},     // below the declared minimum
      {"--n"},               // missing value
      {"--crash"},           // missing value on a custom flag
      {"--crash", "1x"},     // rejected by the handler
      {"--bogus"},           // unknown flag
      {"7"},                 // stray positional
      {"--shape", "triangle"},  // bad choice
      {"--shape", "none"},   // `none` only for an optional target
      {"--mode", "both"},    // bad string choice
  };
  for (const auto& args : bad) {
    Options opt;
    const auto [ok, err] = run(flags(opt), args);
    EXPECT_FALSE(ok) << args[0];
    EXPECT_NE(err.find("error: "), std::string::npos) << err;
    EXPECT_NE(err.find("usage: prog [flags]"), std::string::npos) << err;
    EXPECT_EQ(opt.n, 7u);  // a rejected value never lands
  }
}

TEST(CliParser, RepeatedFlags) {
  Options opt;
  EXPECT_TRUE(run(flags(opt), {"--crash", "1", "--n", "5", "--crash", "3",
                               "--n", "9", "--crash", "1"})
                  .first);
  EXPECT_EQ(opt.crashes, (std::vector<std::uint32_t>{1, 3, 1}));
  EXPECT_EQ(opt.n, 9u);

  for (const auto& [args, want] :
       std::initializer_list<std::pair<std::vector<std::string>, bool>>{
           {{"--no-minimize"}, false},
           {{"--no-minimize", "--minimize"}, true},
           {{"--minimize", "--no-minimize"}, false},
           {{"--minimize", "--no-minimize", "--minimize"}, true},
       }) {
    Options o;
    EXPECT_TRUE(run(flags(o), args).first);
    EXPECT_EQ(o.minimize, want) << args.size();
  }
}

TEST(CliParser, UsageListsEveryFlagWithItsValues) {
  Options opt;
  std::ostringstream os;
  flags(opt).print_usage(os, "prog");
  const std::string usage = os.str();
  for (const char* line :
       {"usage: prog [flags]\n", "  --port P ", "  --shape circle|square ",
        "  --extra none|circle|square\n", "  --mode sim|net ",
        "  --minimize ", "  --no-minimize ", "  --crash ID "}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line << "\n" << usage;
  }
}

}  // namespace
}  // namespace rcp::cli
