#include "util/strings.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace qoslb {
namespace {

TEST(Split, BasicFields) {
  const auto fields = split("a,b,c", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(Split, KeepsEmptyFields) {
  const auto fields = split(",x,,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "");
  EXPECT_EQ(fields[1], "x");
  EXPECT_EQ(fields[2], "");
  EXPECT_EQ(fields[3], "");
}

TEST(Split, SingleFieldWithoutSeparator) {
  const auto fields = split("hello", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "hello");
}

TEST(Split, EmptyInputYieldsOneEmptyField) {
  const auto fields = split("", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "");
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Trim, PreservesInnerWhitespace) {
  EXPECT_EQ(trim("  a b  "), "a b");
}

TEST(FormatDouble, IntegersAndFractions) {
  EXPECT_EQ(format_double(12.0), "12");
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(-3.25), "-3.25");
}

TEST(FormatDouble, SpecialValues) {
  EXPECT_EQ(format_double(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()), "-inf");
}

TEST(FormatDouble, RejectsBadDigitCounts) {
  EXPECT_THROW(format_double(1.0, -1), std::invalid_argument);
  EXPECT_THROW(format_double(1.0, 18), std::invalid_argument);
}

TEST(FormatExact, ReadsBackAsTheSameDouble) {
  for (const double value : {0.5000001, 0.1, 1.0 / 3.0, 1e-300, 0.05, 1.0}) {
    const std::string text = format_exact(value);
    EXPECT_EQ(std::stod(text), value) << text;
  }
  EXPECT_EQ(format_exact(0.5000001), "0.5000001");
}

// Protocol names print lambda with format_exact; on every value of at most
// six significant digits it agrees with the format_double(value, 3) the
// names used before, so no name of a lambda in use changed.
TEST(FormatExact, AgreesWithFormatDoubleOnSixSignificantDigits) {
  for (const double value : {1.0, 0.5, 0.25, 0.1, 0.05, 0.01, 0.001, 1e-4,
                             1e-5, 0.3, 0.75, 0.123456, 0.0, 10.0, 1200.0}) {
    EXPECT_EQ(format_exact(value), format_double(value, 3)) << value;
  }
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-flag", "--"));
  EXPECT_TRUE(starts_with("abc", ""));
  EXPECT_FALSE(starts_with("", "a"));
}

TEST(ParseIntList, ParsesAndTrims) {
  const auto values = parse_int_list("8, 16 ,32");
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0], 8);
  EXPECT_EQ(values[1], 16);
  EXPECT_EQ(values[2], 32);
}

TEST(ParseIntList, SkipsEmptyEntries) {
  EXPECT_EQ(parse_int_list("1,,2").size(), 2u);
  EXPECT_TRUE(parse_int_list("").empty());
}

TEST(ParseIntList, RejectsGarbage) {
  EXPECT_THROW(parse_int_list("1,2x,3"), std::invalid_argument);
}

TEST(ParseIntList, RejectsNonNumbersAndOutOfRangeAsInvalidArgument) {
  // std::stoll's own errors (std::invalid_argument "stoll",
  // std::out_of_range) must not escape: every bad entry is named.
  for (const char* bad : {"abc", "1,abc", "99999999999999999999999", "-",
                          "1,-99999999999999999999999"}) {
    try {
      parse_int_list(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("bad integer in list"),
                std::string::npos)
          << error.what();
    }
  }
}

}  // namespace
}  // namespace qoslb
