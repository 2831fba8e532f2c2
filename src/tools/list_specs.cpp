#include "tools/list_specs.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/strings.hpp"

namespace qoslb {
namespace {

[[noreturn]] void refuse(std::string_view flag, std::string_view verdict,
                         std::string_view raw) {
  throw std::invalid_argument(std::string(flag) + ' ' + std::string(verdict) +
                              ", got '" + std::string(raw) + "'");
}

/// The non-empty items of `spec`, each split into exactly `arity`
/// colon-separated fields.
std::vector<std::vector<std::string>> items(std::string_view spec,
                                            std::string_view flag,
                                            std::size_t arity,
                                            std::string_view shape) {
  std::vector<std::vector<std::string>> out;
  for (const std::string& item : split(spec, ',')) {
    if (item.empty()) continue;
    std::vector<std::string> fields = split(item, ':');
    if (fields.size() != arity)
      refuse(flag, "expects " + std::string(shape), item);
    out.push_back(std::move(fields));
  }
  return out;
}

/// Decimal digits and nothing else (from_chars takes no sign for an
/// unsigned type), at most `max`.
std::uint64_t whole_number(std::string_view field, std::string_view flag,
                           std::string_view what, std::uint64_t max) {
  std::uint64_t value = 0;
  const char* const end = field.data() + field.size();
  const auto [stop, error] = std::from_chars(field.data(), end, value);
  if (field.empty() || error == std::errc::invalid_argument || stop != end)
    refuse(flag, "expects " + std::string(what), field);
  if (error == std::errc::result_out_of_range || value > max)
    refuse(flag, "is out of range", field);
  return value;
}

/// A finite decimal time without a sign (from_chars would take a '-').
double time_value(std::string_view field, std::string_view flag) {
  double value = 0.0;
  const char* const end = field.data() + field.size();
  const auto [stop, error] = std::from_chars(field.data(), end, value);
  if (field.empty() || field.front() == '-' ||
      error == std::errc::invalid_argument || stop != end)
    refuse(flag, "expects a time", field);
  if (error == std::errc::result_out_of_range)
    refuse(flag, "is out of range", field);
  if (!std::isfinite(value)) refuse(flag, "expects a time", field);
  return value;
}

constexpr std::uint64_t kAnyRound = std::numeric_limits<std::uint64_t>::max();

std::vector<ChurnEvent> churn_list(std::string_view spec,
                                   std::string_view flag, ChurnKind kind) {
  std::vector<ChurnEvent> events;
  for (const auto& fields : items(spec, flag, 2, "R:ROUND")) {
    ChurnEvent event;
    event.resource = static_cast<ResourceId>(
        whole_number(fields[0], flag, "a resource",
                     std::numeric_limits<ResourceId>::max()));
    event.round = whole_number(fields[1], flag, "a round", kAnyRound);
    event.kind = kind;
    events.push_back(event);
  }
  return events;
}

}  // namespace

std::vector<std::uint64_t> parse_kill_spec(std::string_view spec) {
  std::vector<std::uint64_t> rounds;
  for (const auto& fields : items(spec, "--kill", 1, "a round"))
    rounds.push_back(whole_number(fields[0], "--kill", "a round", kAnyRound));
  for (std::size_t i = 1; i < rounds.size(); ++i)
    if (rounds[i] <= rounds[i - 1])
      throw std::invalid_argument("--kill rounds must be strictly increasing");
  return rounds;
}

ChurnPlan parse_churn_specs(std::string_view fail_spec,
                            std::string_view recover_spec) {
  const std::vector<ChurnEvent> fails =
      churn_list(fail_spec, "--fail", ChurnKind::kFail);
  const std::vector<ChurnEvent> recovers =
      churn_list(recover_spec, "--recover", ChurnKind::kRecover);
  ChurnPlan plan;
  std::size_t fi = 0, ri = 0;
  while (fi < fails.size() || ri < recovers.size()) {
    const bool take_fail =
        ri >= recovers.size() ||
        (fi < fails.size() && fails[fi].round <= recovers[ri].round);
    plan.events.push_back(take_fail ? fails[fi++] : recovers[ri++]);
  }
  return plan;
}

std::vector<CrashWindow> parse_crash_spec(std::string_view spec) {
  std::vector<CrashWindow> windows;
  for (const auto& fields : items(spec, "--crash", 3, "R:T0:T1")) {
    CrashWindow window;
    window.agent = static_cast<AgentId>(whole_number(
        fields[0], "--crash", "an agent", std::numeric_limits<AgentId>::max()));
    window.t_crash = time_value(fields[1], "--crash");
    window.t_recover = time_value(fields[2], "--crash");
    windows.push_back(window);
  }
  return windows;
}

}  // namespace qoslb
