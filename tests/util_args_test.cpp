#include "util/args.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

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

TEST(ArgParser, NegativeNumbersViaEquals) {
  auto args = make({"prog", "--delta=-3"});
  EXPECT_EQ(args.get_int("delta", 0), -3);
  args.finish();
}

}  // namespace
}  // namespace qoslb
