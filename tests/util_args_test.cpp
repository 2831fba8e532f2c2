#include "util/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "rng/round_rng.hpp"
#include "text_mutator.hpp"

namespace qoslb {
namespace {

ArgParser make(std::initializer_list<const char*> args) {
  static std::vector<const char*> storage;
  storage.assign(args.begin(), args.end());
  return ArgParser(static_cast<int>(storage.size()), storage.data());
}

TEST(ArgParser, EqualsSyntax) {
  auto args = make({"prog", "--n=42", "--rate=0.5", "--name=exp1"});
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.5);
  EXPECT_EQ(args.get_string("name", ""), "exp1");
  args.finish();
}

TEST(ArgParser, SpaceSyntax) {
  auto args = make({"prog", "--n", "7"});
  EXPECT_EQ(args.get_int("n", 0), 7);
  args.finish();
}

TEST(ArgParser, DefaultsWhenAbsent) {
  auto args = make({"prog"});
  EXPECT_EQ(args.get_int("n", 13), 13);
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
  EXPECT_EQ(args.get_string("s", "d"), "d");
  EXPECT_FALSE(args.get_flag("v"));
  args.finish();
}

TEST(ArgParser, BareFlag) {
  auto args = make({"prog", "--csv"});
  EXPECT_TRUE(args.get_flag("csv"));
  args.finish();
}

TEST(ArgParser, FlagWithExplicitValue) {
  auto args = make({"prog", "--csv=false", "--log=true"});
  EXPECT_FALSE(args.get_flag("csv"));
  EXPECT_TRUE(args.get_flag("log"));
  args.finish();
}

TEST(ArgParser, IntList) {
  auto args = make({"prog", "--sizes=8,16,32"});
  const auto sizes = args.get_int_list("sizes", {});
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[2], 32);
  args.finish();
}

TEST(ArgParser, UnknownArgumentFailsAtFinish) {
  auto args = make({"prog", "--typo=1"});
  EXPECT_THROW(args.finish(), std::invalid_argument);
}

TEST(ArgParser, PositionalArgumentRejected) {
  EXPECT_THROW(make({"prog", "positional"}), std::invalid_argument);
}

TEST(ArgParser, BadIntegerRejected) {
  auto args = make({"prog", "--n=4x"});
  EXPECT_THROW(args.get_int("n", 0), std::invalid_argument);
}

TEST(ArgParser, CountReturnsValueOrDefault) {
  auto args = make({"prog", "--n=42", "--zero=0"});
  EXPECT_EQ(args.get_count("n", 7), 42u);
  EXPECT_EQ(args.get_count("zero", 7), 0u);
  EXPECT_EQ(args.get_count("absent", 7), 7u);
  args.finish();
}

TEST(ArgParser, NegativeCountNamesTheFlag) {
  auto args = make({"prog", "--extra-edges=-1", "--n", "-3"});
  try {
    args.get_count("extra-edges", 2);
    ADD_FAILURE() << "a negative count was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "--extra-edges must be non-negative, got -1");
  }
  EXPECT_THROW(args.get_count("n", 1), std::invalid_argument);
}

TEST(ArgParser, BadCountRejected) {
  auto args = make({"prog", "--reps=3x"});
  EXPECT_THROW(args.get_count("reps", 1), std::invalid_argument);
}

TEST(ArgParser, CountListReturnsValuesOrDefault) {
  auto args = make({"prog", "--sizes=8,0,32"});
  EXPECT_EQ(args.get_count_list("sizes", {1}),
            (std::vector<long long>{8, 0, 32}));
  EXPECT_EQ(args.get_count_list("threads", {1, 2}),
            (std::vector<long long>{1, 2}));
  args.finish();
}

TEST(ArgParser, NegativeCountListEntryNamesTheFlag) {
  auto args = make({"prog", "--threads=1,-2,4", "--sizes=-1"});
  try {
    args.get_count_list("threads", {});
    ADD_FAILURE() << "a negative list entry was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "--threads entries must be non-negative, got -2");
  }
  EXPECT_THROW(args.get_count_list("sizes", {}), std::invalid_argument);
}

/// Runs `get`, which must throw std::invalid_argument with exactly
/// `message`.
void expect_refusal(const std::function<void()>& get,
                    const std::string& message) {
  try {
    get();
    ADD_FAILURE() << "accepted; expected: " << message;
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(error.what(), message);
  }
}

TEST(ArgParser, MalformedNumbersNameTheFlag) {
  // std::stoll and std::stod throw their own std::invalid_argument
  // ("stoll") when no digit leads the text; the getters name the flag.
  auto args = make({"prog", "--n=abc", "--slack=x1", "--reps", "--sizes=abc",
                    "--threads=1,x"});
  expect_refusal([&] { args.get_int("n", 0); },
                 "--n expects an integer, got 'abc'");
  expect_refusal([&] { args.get_double("slack", 0.0); },
                 "--slack expects a number, got 'x1'");
  expect_refusal([&] { args.get_count("reps", 1); },
                 "--reps expects an integer, got ''");
  expect_refusal([&] { args.get_int_list("sizes", {}); },
                 "--sizes expects a comma-separated list of integers, got "
                 "'abc'");
  expect_refusal([&] { args.get_count_list("threads", {}); },
                 "--threads expects a comma-separated list of integers, got "
                 "'1,x'");
}

TEST(ArgParser, OutOfRangeNumbersNameTheFlag) {
  // std::out_of_range is not a std::invalid_argument: before the getters
  // caught it, these aborted every bench (bench_common.hpp's run_bench
  // catches std::invalid_argument only).
  auto args = make({"prog", "--n=99999999999999999999999", "--slack=1e999",
                    "--m=-99999999999999999999",
                    "--sizes=8,99999999999999999999999"});
  expect_refusal([&] { args.get_int("n", 0); },
                 "--n is out of range, got '99999999999999999999999'");
  expect_refusal([&] { args.get_double("slack", 0.0); },
                 "--slack is out of range, got '1e999'");
  expect_refusal([&] { args.get_count("m", 1); },
                 "--m is out of range, got '-99999999999999999999'");
  expect_refusal([&] { args.get_count_list("sizes", {}); },
                 "--sizes expects a comma-separated list of integers, got "
                 "'8,99999999999999999999999'");
}

TEST(ArgParser, NumbersAtTheTypeLimitsParse) {
  auto args = make({"prog", "--lo=-9223372036854775808",
                    "--hi=9223372036854775807", "--big=1e308"});
  EXPECT_EQ(args.get_int("lo", 0), INT64_MIN);
  EXPECT_EQ(args.get_int("hi", 0), INT64_MAX);
  EXPECT_DOUBLE_EQ(args.get_double("big", 0.0), 1e308);
  args.finish();
}

// Seeded mutation fuzz of the flag getters: flag texts, one argv token per
// whitespace-separated word, mutated by text_mutator.hpp (byte flips,
// dropped and duplicated flags, numbers swapped for hostile values). Every
// getter must return a value or throw std::invalid_argument naming its
// flag, and the parser itself may refuse only with std::invalid_argument;
// no other exception type may escape. The seeds carry a 30-digit integer,
// a word and a double past DBL_MAX, whose std::stoll/std::stod errors once
// escaped unnamed or as std::out_of_range.
TEST(ArgParserFuzz, MutatedFlagsReturnOrThrowInvalidArgument) {
  constexpr std::uint64_t kSeed = 0xA6C5F022;
  constexpr std::uint64_t kIterations = 400;
  const std::string base =
      "--n 5000\n--m 50\n--seed 7\n--slack 0.05\n--lambda 0.5\n"
      "--sizes 256,512,1024\n--threads 1,2,4\n--name flood\n--csv\n";
  const std::vector<std::string> seeds = {
      base,
      "--n 123456789012345678901234567890\n--sizes 256\n--slack 0.5\n",
      "--n abc\n--m 2\n--sizes abc\n--lambda 0.5\n",
      "--slack 1e999\n--lambda 1e999\n--n 8\n--threads 1\n",
  };
  // Every getter over the flags above; each returns or refuses alone.
  const struct {
    const char* flag;
    std::function<void(ArgParser&)> get;
  } getters[] = {
      {"n", [](ArgParser& a) { a.get_int("n", 1); }},
      {"m", [](ArgParser& a) { a.get_count("m", 1); }},
      {"seed", [](ArgParser& a) { a.get_int("seed", 1); }},
      {"slack", [](ArgParser& a) { a.get_double("slack", 0.0); }},
      {"lambda", [](ArgParser& a) { a.get_double("lambda", 0.0); }},
      {"sizes", [](ArgParser& a) { a.get_int_list("sizes", {}); }},
      {"threads", [](ArgParser& a) { a.get_count_list("threads", {}); }},
      {"name", [](ArgParser& a) { a.get_string("name", ""); }},
      {"csv", [](ArgParser& a) { a.get_flag("csv"); }},
  };
  std::uint64_t accepted = 0;
  std::uint64_t refused = 0;
  const auto check = [&](const std::string& text) {
    std::vector<std::string> words;
    std::istringstream in(text);
    for (std::string word; in >> word;) words.push_back(word);
    std::vector<const char*> argv = {"prog"};
    for (const std::string& word : words) argv.push_back(word.c_str());
    std::optional<ArgParser> args;
    try {
      args.emplace(static_cast<int>(argv.size()), argv.data());
    } catch (const std::invalid_argument&) {
      ++refused;
      return;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "the parser threw a non-std::invalid_argument error: "
                    << error.what() << "\n--- input ---\n"
                    << text;
      return;
    }
    for (const auto& getter : getters) {
      try {
        getter.get(*args);
        ++accepted;
      } catch (const std::invalid_argument& error) {
        ++refused;
        const std::string prefix = std::string("--") + getter.flag + ' ';
        EXPECT_EQ(std::string(error.what()).rfind(prefix, 0), 0u)
            << "refusal does not name " << prefix << ": " << error.what()
            << "\n--- input ---\n"
            << text;
      } catch (const std::exception& error) {
        ADD_FAILURE() << "--" << getter.flag
                      << " threw a non-std::invalid_argument error: "
                      << error.what() << "\n--- input ---\n"
                      << text;
      }
    }
    try {
      args->finish();
    } catch (const std::invalid_argument&) {
      ++refused;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "finish() threw a non-std::invalid_argument error: "
                    << error.what() << "\n--- input ---\n"
                    << text;
    }
  };
  for (std::uint64_t s = 0; s < seeds.size(); ++s) {
    check(seeds[s]);
    const RoundRng streams(kSeed, s);
    for (std::uint64_t i = 0; i < kIterations; ++i) {
      PhiloxEngine rng = streams.user_stream(i);
      check(mutate(seeds[s], rng));
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(ArgParser, NegativeNumbersViaEquals) {
  auto args = make({"prog", "--delta=-3"});
  EXPECT_EQ(args.get_int("delta", 0), -3);
  args.finish();
}

}  // namespace
}  // namespace qoslb
