#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace qoslb {

/// The line codec behind every qoslb text format: instance and state files
/// (core/io/instance_io.hpp), checkpoints (core/snapshot.hpp) and protocol
/// cross-round state (Protocol::snapshot_write). After a magic line, a
/// format is made of fields (`<keyword> <value>`) and blocks (a
/// `<keyword> <count>` header, then one entry per line). Counts, ids and
/// integer fields are unsigned decimal digits and nothing else, and a line
/// carries exactly the tokens its shape names.

/// Holds the stream at max_digits10 while alive, so every double
/// round-trips value-exactly, and restores the caller's precision after.
class TextWriter {
 public:
  explicit TextWriter(std::ostream& out);
  ~TextWriter();
  TextWriter(const TextWriter&) = delete;
  TextWriter& operator=(const TextWriter&) = delete;

  void line(std::string_view text) { out_ << text << '\n'; }

  template <class T>
  void field(std::string_view keyword, const T& value) {
    out_ << keyword << ' ';
    put(out_, value);
    out_ << '\n';
  }

  /// The header, then one line per entry, written by `put_entry`.
  template <class T, class Put>
  void block(std::string_view keyword, const std::vector<T>& values,
             Put put_entry) {
    field(keyword, values.size());
    for (const T& value : values) {
      put_entry(out_, value);
      out_ << '\n';
    }
  }
  template <class T>
  void block(std::string_view keyword, const std::vector<T>& values) {
    block(keyword, values, [](std::ostream& out, const T& v) { put(out, v); });
  }

  /// `<keyword> <k>`, then one field per entry of T's (keyword, member)
  /// list, T::for_each_field.
  template <class T>
  void record(std::string_view keyword, const T& value) {
    std::size_t fields = 0;
    T::for_each_field([&fields](const char*, const auto&) { ++fields; },
                      value);
    field(keyword, fields);
    T::for_each_field(
        [this](const char* name, const auto& member) { field(name, member); },
        value);
  }

 private:
  template <class T>
  static void put(std::ostream& out, const T& value) {
    if constexpr (std::is_arithmetic_v<T>) {
      out << +value;  // unary + prints bool and uint8_t as numbers
    } else {
      out << value;
    }
  }

  std::ostream& out_;
  std::streamsize previous_precision_;
};

/// Throws std::invalid_argument on any line that is not what it expects.
/// Blank lines and `#` comment lines are skipped. A block grows as its
/// entries arrive, so a count line never sizes anything ahead of its data.
class TextReader {
 public:
  /// `format` prefixes every error message ("qoslb snapshot", ...).
  TextReader(std::istream& in, std::string format);

  [[noreturn]] void fail(const std::string& message) const;

  /// The next non-blank, non-comment line, trimmed.
  std::string next_line(std::string_view what);

  /// Returns the index of the entry of `known` the magic line matches.
  std::size_t magic(std::initializer_list<std::string_view> known);

  /// `<keyword> <text>`: the rest of the line, spaces included.
  std::string rest(std::string_view keyword);
  /// `<keyword> <word>`.
  std::string word(std::string_view keyword);
  std::uint64_t integer(std::string_view keyword);

  void field(std::string_view keyword, std::uint64_t& value) {
    value = integer(keyword);
  }
  void field(std::string_view keyword, double& value);
  void field(std::string_view keyword, bool& value);  // 0 or 1

  /// Block entries holding one number, or one integer below `bound`.
  double number(std::string_view what);
  std::uint64_t id(std::string_view what, std::uint64_t bound);

  /// One token of an entry line; `line` is quoted in the error.
  double to_number(const std::string& token, std::string_view line) const;
  std::uint64_t to_id(std::string_view token, std::uint64_t bound,
                      std::string_view line) const;

  /// The header, then its entries, each read by `entry()`. An `expected`
  /// count is one that earlier blocks fixed.
  template <class T, class Entry>
  std::vector<T> block(std::string_view keyword, Entry entry,
                       std::optional<std::uint64_t> expected = {}) {
    const std::uint64_t count = integer(keyword);
    if (expected && count != *expected)
      fail("'" + std::string(keyword) + "' block lists " +
           std::to_string(count) + " entries, expected " +
           std::to_string(*expected));
    std::vector<T> values;
    for (std::uint64_t i = 0; i < count; ++i) values.push_back(entry());
    return values;
  }

  /// The inverse of TextWriter::record.
  template <class T>
  void record(std::string_view keyword, T& value) {
    std::uint64_t fields = 0;
    T::for_each_field([&fields](const char*, const auto&) { ++fields; },
                      value);
    if (integer(keyword) != fields)
      fail("'" + std::string(keyword) + "' block must list exactly " +
           std::to_string(fields) + " fields");
    T::for_each_field(
        [this](const char* name, auto& member) { field(name, member); },
        value);
  }

 private:
  std::istream& in_;
  std::string format_;
};

}  // namespace qoslb
