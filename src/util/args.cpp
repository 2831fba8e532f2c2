#include "util/args.hpp"

#include <stdexcept>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace qoslb {
namespace {

/// Parses all of `raw` with `parse` (std::stoll or std::stod) and turns
/// every failure (no number, trailing text, a value out of range) into
/// std::invalid_argument naming the flag and the raw text.
template <typename Parse>
auto parse_whole(const std::string& name, const std::string& raw,
                 const char* expected, Parse parse) {
  std::size_t consumed = 0;
  try {
    const auto value = parse(raw, &consumed);
    if (consumed == raw.size()) return value;
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("--" + name + " is out of range, got '" + raw +
                                "'");
  } catch (const std::invalid_argument&) {
  }
  throw std::invalid_argument("--" + name + " expects " + expected + ", got '" +
                              raw + "'");
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  QOSLB_REQUIRE(argc >= 1, "argc must include the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (!starts_with(token, "--"))
      throw std::invalid_argument("unexpected positional argument: " + token);
    token.erase(0, 2);
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      values_[token.substr(0, eq)] = token.substr(eq + 1);
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      values_[token] = argv[++i];
    } else {
      values_[token] = "";  // bare flag
    }
  }
  for (const auto& [name, value] : values_) consumed_[name] = false;
}

std::string ArgParser::take(const std::string& name, bool* present) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    *present = false;
    return {};
  }
  consumed_[name] = true;
  *present = true;
  return it->second;
}

long long ArgParser::get_int(const std::string& name, long long default_value) {
  bool present = false;
  const std::string raw = take(name, &present);
  if (!present) return default_value;
  return parse_whole(name, raw, "an integer",
                     [](const std::string& text, std::size_t* consumed) {
                       return std::stoll(text, consumed);
                     });
}

std::uint64_t ArgParser::get_count(const std::string& name,
                                   std::uint64_t default_value) {
  if (!has(name)) return default_value;
  const long long value = get_int(name, 0);
  if (value < 0)
    throw std::invalid_argument("--" + name + " must be non-negative, got " +
                                std::to_string(value));
  return static_cast<std::uint64_t>(value);
}

double ArgParser::get_double(const std::string& name, double default_value) {
  bool present = false;
  const std::string raw = take(name, &present);
  if (!present) return default_value;
  return parse_whole(name, raw, "a number",
                     [](const std::string& text, std::size_t* consumed) {
                       return std::stod(text, consumed);
                     });
}

std::string ArgParser::get_string(const std::string& name,
                                  const std::string& default_value) {
  bool present = false;
  const std::string raw = take(name, &present);
  return present ? raw : default_value;
}

bool ArgParser::get_flag(const std::string& name) {
  bool present = false;
  const std::string raw = take(name, &present);
  if (!present) return false;
  if (raw.empty() || raw == "1" || raw == "true") return true;
  if (raw == "0" || raw == "false") return false;
  throw std::invalid_argument("--" + name + " is a flag; got value '" + raw + "'");
}

std::vector<long long> ArgParser::get_int_list(
    const std::string& name, const std::vector<long long>& default_value) {
  bool present = false;
  const std::string raw = take(name, &present);
  if (!present) return default_value;
  try {
    return parse_int_list(raw);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("--" + name +
                                " expects a comma-separated list of integers, "
                                "got '" + raw + "'");
  }
}

std::vector<long long> ArgParser::get_count_list(
    const std::string& name, const std::vector<long long>& default_value) {
  const std::vector<long long> values = get_int_list(name, default_value);
  for (const long long value : values)
    if (value < 0)
      throw std::invalid_argument("--" + name +
                                  " entries must be non-negative, got " +
                                  std::to_string(value));
  return values;
}

void ArgParser::finish() const {
  for (const auto& [name, used] : consumed_) {
    if (!used)
      throw std::invalid_argument("unknown argument --" + name + " (see " +
                                  program_ + " source for options)");
  }
}

}  // namespace qoslb
