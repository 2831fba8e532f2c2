// The tools' list specs (tools/list_specs.hpp): --kill, --fail/--recover
// and --crash. Valid specs parse to the plans the tools run; every bad
// number is refused with std::invalid_argument naming the flag and the raw
// text; and a seeded mutation fuzz feeds each parsed churn list through
// ChurnPlan::validate and each crash window through FaultPlan::validate,
// where every step must return or throw std::invalid_argument.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "tools/list_specs.hpp"
#include "rng/round_rng.hpp"
#include "text_mutator.hpp"

namespace qoslb {
namespace {

std::string refusal(const std::function<void()>& parse) {
  try {
    parse();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(ListSpecs, ValidSpecsParse) {
  EXPECT_EQ(parse_kill_spec("1,5,25"), (std::vector<std::uint64_t>{1, 5, 25}));
  EXPECT_EQ(parse_kill_spec(",7,,18446744073709551615,"),
            (std::vector<std::uint64_t>{7, 18446744073709551615ULL}));
  EXPECT_TRUE(parse_kill_spec("").empty());

  // Round order across both lists; within a round failures come first.
  const ChurnPlan plan = parse_churn_specs("3:10,1:40", "2:5,3:40");
  ASSERT_EQ(plan.events.size(), 4u);
  const struct {
    std::uint64_t round;
    ResourceId resource;
    ChurnKind kind;
  } expected[] = {{5, 2, ChurnKind::kRecover},
                  {10, 3, ChurnKind::kFail},
                  {40, 1, ChurnKind::kFail},
                  {40, 3, ChurnKind::kRecover}};
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(plan.events[i].round, expected[i].round) << i;
    EXPECT_EQ(plan.events[i].resource, expected[i].resource) << i;
    EXPECT_EQ(plan.events[i].kind, expected[i].kind) << i;
  }
  EXPECT_FALSE(parse_churn_specs("", "").any());

  const std::vector<CrashWindow> windows = parse_crash_spec("2:10:120,0:0.5:1e2");
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].agent, 2u);
  EXPECT_EQ(windows[0].t_crash, 10.0);
  EXPECT_EQ(windows[0].t_recover, 120.0);
  EXPECT_EQ(windows[1].agent, 0u);
  EXPECT_EQ(windows[1].t_crash, 0.5);
  EXPECT_EQ(windows[1].t_recover, 100.0);
}

TEST(ListSpecs, EveryNumberFollowsTheStrictRule) {
  const struct {
    std::function<void()> parse;
    std::string message;
  } cases[] = {
      {[] { parse_kill_spec("99999999999999999999999"); },
       "--kill is out of range, got '99999999999999999999999'"},
      {[] { parse_kill_spec("2x"); }, "--kill expects a round, got '2x'"},
      {[] { parse_kill_spec("-1"); }, "--kill expects a round, got '-1'"},
      {[] { parse_kill_spec("+1"); }, "--kill expects a round, got '+1'"},
      {[] { parse_kill_spec(" 1"); }, "--kill expects a round, got ' 1'"},
      {[] { parse_kill_spec("1:2"); }, "--kill expects a round, got '1:2'"},
      {[] { parse_kill_spec("5,5"); },
       "--kill rounds must be strictly increasing"},
      {[] { parse_churn_specs("abc:3", ""); },
       "--fail expects a resource, got 'abc'"},
      {[] { parse_churn_specs("1x:3", ""); },
       "--fail expects a resource, got '1x'"},
      {[] { parse_churn_specs("4294967296:3", ""); },
       "--fail is out of range, got '4294967296'"},
      {[] { parse_churn_specs("1:", ""); }, "--fail expects a round, got ''"},
      {[] { parse_churn_specs("1", ""); }, "--fail expects R:ROUND, got '1'"},
      {[] { parse_churn_specs("", "3:-40"); },
       "--recover expects a round, got '-40'"},
      {[] { parse_crash_spec("1:abc:3"); },
       "--crash expects a time, got 'abc'"},
      {[] { parse_crash_spec("1:0:3x"); }, "--crash expects a time, got '3x'"},
      {[] { parse_crash_spec("1:-0:3"); }, "--crash expects a time, got '-0'"},
      {[] { parse_crash_spec("1:nan:3"); }, "--crash expects a time, got 'nan'"},
      {[] { parse_crash_spec("1:0:inf"); }, "--crash expects a time, got 'inf'"},
      {[] { parse_crash_spec("1:1e999:3"); },
       "--crash is out of range, got '1e999'"},
      {[] { parse_crash_spec("-1:0:3"); }, "--crash expects an agent, got '-1'"},
      {[] { parse_crash_spec("1:0"); }, "--crash expects R:T0:T1, got '1:0'"},
  };
  for (const auto& c : cases) EXPECT_EQ(refusal(c.parse), c.message);
}

/// A spec as mutator text: one item per line, fields separated by spaces,
/// so line mutations drop or repeat items and number swaps hit one field.
std::string as_text(std::string spec) {
  for (char& c : spec) c = c == ',' ? '\n' : c == ':' ? ' ' : c;
  return spec + '\n';
}

std::string as_spec(std::string text) {
  for (char& c : text) c = c == '\n' ? ',' : c == ' ' ? ':' : c;
  return text;
}

TEST(ListSpecsFuzz, MutatedSpecsReturnOrThrowInvalidArgument) {
  constexpr std::uint64_t kSeed = 0x5BEC5;
  constexpr std::uint64_t kIterations = 300;
  constexpr std::size_t kResources = 8;
  enum class Flag { kKill, kFail, kRecover, kCrash };
  const struct {
    Flag flag;
    std::string spec;
    bool valid;
  } seeds[] = {
      {Flag::kKill, "1,5,25", true},
      {Flag::kFail, "3:10,4:20", true},
      {Flag::kRecover, "3:40", true},
      {Flag::kCrash, "1:0.5:3,2:10:120", true},
      // The inputs the tools once mishandled: each must be refused.
      {Flag::kKill, "99999999999999999999999", false},
      {Flag::kFail, "abc:3", false},
      {Flag::kKill, "2x", false},
      {Flag::kKill, "-1", false},
      {Flag::kCrash, "1:abc:3", false},
      {Flag::kFail, "1x:3", false},
  };
  std::uint64_t accepted = 0;
  std::uint64_t refused = 0;
  // Returns true when every step accepted the spec.
  const auto check = [&](Flag flag, const std::string& spec) {
    try {
      switch (flag) {
        case Flag::kKill:
          parse_kill_spec(spec);
          break;
        case Flag::kFail:
          parse_churn_specs(spec, "").validate(kResources);
          break;
        case Flag::kRecover:
          parse_churn_specs("3:10", spec).validate(kResources);
          break;
        case Flag::kCrash: {
          FaultPlan plan;
          plan.crashes = parse_crash_spec(spec);
          plan.validate();
          break;
        }
      }
      ++accepted;
      return true;
    } catch (const std::invalid_argument&) {
      ++refused;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "threw a non-std::invalid_argument error: "
                    << error.what() << "\n--- spec ---\n"
                    << spec;
    }
    return false;
  };
  for (std::uint64_t s = 0; s < std::size(seeds); ++s) {
    EXPECT_EQ(check(seeds[s].flag, seeds[s].spec), seeds[s].valid)
        << seeds[s].spec;
    const RoundRng streams(kSeed, s);
    for (std::uint64_t i = 0; i < kIterations; ++i) {
      PhiloxEngine rng = streams.user_stream(i);
      check(seeds[s].flag, as_spec(mutate(as_text(seeds[s].spec), rng)));
    }
  }
  EXPECT_GT(accepted, std::size(seeds));
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace qoslb
