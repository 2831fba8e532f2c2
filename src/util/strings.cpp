#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/check.hpp"

namespace qoslb {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

std::string format_double(double value, int digits) {
  QOSLB_REQUIRE(digits >= 0 && digits <= 17, "digits out of range");
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits + 3, value);
  // %g already trims trailing zeros; additionally clamp very long fixed forms.
  std::string s(buf);
  if (s.size() > 18) {
    std::snprintf(buf, sizeof buf, "%.*e", digits, value);
    s = buf;
  }
  return s;
}

std::string format_exact(double value) {
  char buf[64];
  const auto result =
      std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general);
  return std::string(buf, result.ptr);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::vector<long long> parse_int_list(std::string_view text) {
  std::vector<long long> out;
  for (const std::string& part : split(text, ',')) {
    const std::string_view token = trim(part);
    if (token.empty()) continue;
    std::size_t consumed = 0;
    long long value = 0;
    try {
      value = std::stoll(std::string(token), &consumed);
    } catch (const std::logic_error&) {
      // No digits, or out of range: `consumed` stays 0, refused below.
    }
    if (consumed != token.size())
      throw std::invalid_argument("bad integer in list: '" + std::string(token) + "'");
    out.push_back(value);
  }
  return out;
}

}  // namespace qoslb
