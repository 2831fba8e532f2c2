#include "core/io/text_codec.hpp"

#include <charconv>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace qoslb {
namespace {

/// Unsigned decimal digits and nothing else: from_chars takes no sign, and
/// the whole token must be consumed.
std::optional<std::uint64_t> digits(std::string_view token) {
  std::uint64_t value = 0;
  const auto [stop, error] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (token.empty() || error != std::errc() ||
      stop != token.data() + token.size())
    return std::nullopt;
  return value;
}

}  // namespace

TextWriter::TextWriter(std::ostream& out)
    : out_(out),
      previous_precision_(
          out.precision(std::numeric_limits<double>::max_digits10)) {}

TextWriter::~TextWriter() { out_.precision(previous_precision_); }

TextReader::TextReader(std::istream& in, std::string format)
    : in_(in), format_(std::move(format)) {}

void TextReader::fail(const std::string& message) const {
  throw std::invalid_argument(format_ + ": " + message);
}

std::string TextReader::next_line(std::string_view what) {
  std::string line;
  while (std::getline(in_, line)) {
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    return std::string(trimmed);
  }
  fail("unexpected end of input while reading " + std::string(what));
}

std::size_t TextReader::magic(std::initializer_list<std::string_view> known) {
  const std::string line = next_line("the format magic");
  for (std::size_t i = 0; i < known.size(); ++i)
    if (line == known.begin()[i]) return i;
  fail("unsupported format '" + line + "'");
}

std::string TextReader::rest(std::string_view keyword) {
  const std::string line = next_line(keyword);
  if (line.size() <= keyword.size() || line.compare(0, keyword.size(), keyword) != 0 ||
      line[keyword.size()] != ' ')
    fail("expected '" + std::string(keyword) + " <text>', got '" + line + "'");
  return line.substr(keyword.size() + 1);
}

std::string TextReader::word(std::string_view keyword) {
  const std::string line = next_line(keyword);
  std::istringstream parts(line);
  std::string name, value, extra;
  if (!(parts >> name >> value) || name != keyword || (parts >> extra))
    fail("expected '" + std::string(keyword) + " <value>', got '" + line + "'");
  return value;
}

std::uint64_t TextReader::integer(std::string_view keyword) {
  const std::string token = word(keyword);
  if (const std::optional<std::uint64_t> value = digits(token)) return *value;
  fail("bad integer '" + token + "' for '" + std::string(keyword) + "'");
}

void TextReader::field(std::string_view keyword, double& value) {
  value = to_number(word(keyword), keyword);
}

void TextReader::field(std::string_view keyword, bool& value) {
  value = to_id(word(keyword), 2, keyword) != 0;
}

double TextReader::number(std::string_view what) {
  const std::string line = next_line(what);
  return to_number(line, line);
}

std::uint64_t TextReader::id(std::string_view what, std::uint64_t bound) {
  const std::string line = next_line(what);
  return to_id(line, bound, line);
}

double TextReader::to_number(const std::string& token,
                             std::string_view line) const {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed == 0 || consumed != token.size())
    fail("bad number '" + token + "' on '" + std::string(line) + "'");
  return value;
}

std::uint64_t TextReader::to_id(std::string_view token, std::uint64_t bound,
                                std::string_view line) const {
  const std::optional<std::uint64_t> value = digits(token);
  if (value && *value < bound) return *value;
  fail("bad id '" + std::string(token) + "' (must be below " +
       std::to_string(bound) + ") on '" + std::string(line) + "'");
}

}  // namespace qoslb
