// The seeded text mutator the reader fuzz tests share
// (core_text_fuzz_test.cpp, util_json_test.cpp): byte flips, dropped and
// duplicated lines, and number tokens swapped for hostile values. Every
// choice is drawn from a Philox stream, so a fixed (seed, stream) pair names
// one mutant exactly and a failure reproduces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/philox.hpp"

namespace qoslb {

/// Values a number token is swapped for: past every size type, past 64
/// bits, negative, and non-integral.
inline constexpr const char* kHostileNumbers[] = {
    "4611686018427387904", "1099511627776",  "18446744073709551615",
    "18446744073709551616", "99999999999999999999", "-1",
    "-9223372036854775808", "-0",            "1e308",
    "-1e308",               "0.5",           "nan",
};

inline std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

inline std::string joined(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  return text;
}

/// (offset, length) of every whitespace-delimited token that starts with a
/// digit.
inline std::vector<std::pair<std::size_t, std::size_t>> number_tokens(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> tokens;
  const auto space = [](char c) { return c == ' ' || c == '\n' || c == '\t'; };
  for (std::size_t i = 0; i < text.size(); ++i) {
    if ((i > 0 && !space(text[i - 1])) || text[i] < '0' || text[i] > '9')
      continue;
    std::size_t end = i;
    while (end < text.size() && !space(text[end])) ++end;
    tokens.emplace_back(i, end - i);
    i = end;
  }
  return tokens;
}

/// One mutant of `text`: one to three mutations, every choice drawn from
/// `rng`.
inline std::string mutate(std::string text, PhiloxEngine& rng) {
  const std::uint64_t ops = 1 + uniform_u64_below(rng, 3);
  for (std::uint64_t op = 0; op < ops; ++op) {
    switch (uniform_u64_below(rng, 5)) {
      case 0: {  // flip one bit of one byte
        if (text.empty()) break;
        const std::uint64_t at = uniform_u64_below(rng, text.size());
        text[at] = static_cast<char>(text[at] ^ (1 << uniform_u64_below(rng, 8)));
        break;
      }
      case 1:
      case 2: {  // drop or duplicate a line
        std::vector<std::string> lines = lines_of(text);
        if (lines.empty()) break;
        const auto at = static_cast<std::ptrdiff_t>(
            uniform_u64_below(rng, lines.size()));
        if (uniform_u64_below(rng, 2) == 0) {
          lines.erase(lines.begin() + at);
        } else {
          lines.insert(lines.begin() + at, lines[static_cast<std::size_t>(at)]);
        }
        text = joined(lines);
        break;
      }
      default: {  // swap a number for a hostile one
        const auto tokens = number_tokens(text);
        if (tokens.empty()) break;
        const auto [at, length] = tokens[uniform_u64_below(rng, tokens.size())];
        constexpr std::size_t kChoices = std::size(kHostileNumbers);
        text.replace(at, length,
                     kHostileNumbers[uniform_u64_below(rng, kChoices)]);
        break;
      }
    }
  }
  return text;
}

}  // namespace qoslb
