#pragma once

// Minimal JSON support for the repo's own machine-readable artifacts — the
// BENCH_*.json files (bench/bench_json.hpp), the CI floor table
// (bench/floors.json), the telemetry JSONL streams (src/obs/) and the lint
// SARIF log. The reader is a full JSON value model (null / bool / number /
// string / array / object), recursive descent, no external dependency.
// Objects preserve member order and reject duplicate keys; numbers are
// doubles (every value the benches emit fits). parse() throws
// std::invalid_argument with a line/column prefix on malformed input. The
// writers emit hand-built documents, so they need only the two value
// encoders below: escape() for strings and number() for doubles.

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qoslb::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  static Value make_null() { return Value(); }
  static Value make_bool(bool b);
  static Value make_number(double n);
  static Value make_string(std::string s);
  static Value make_array(std::vector<Value> items);
  static Value make_object(std::vector<std::pair<std::string, Value>> members);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw std::invalid_argument on a kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& items() const;
  const std::vector<std::pair<std::string, Value>>& members() const;

  /// Object member lookup; null when absent. Throws on non-objects.
  const Value* find(const std::string& key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Arrays and objects nested deeper than this are a parse error, so hostile
/// input cannot exhaust the recursive descent's stack. The deepest document
/// the repo writes, a SARIF log, nests fewer than 10 levels.
inline constexpr std::size_t kMaxDepth = 256;

/// Parses one JSON document (trailing whitespace allowed, nothing else).
Value parse(std::string_view text);

/// Reads and parses a JSON file; throws std::invalid_argument (prefixed with
/// the path) when the file is unreadable or malformed.
Value parse_file(const std::string& path);

/// `text` as the inside of a JSON string literal: quotes and backslashes
/// escaped, control bytes as \n, \t, \r or \u00XX, everything else as is.
std::string escape(std::string_view text);

/// `value` as every artifact writer prints a double: ostream formatting at
/// 12 significant digits (2.5, 0.333333333333, 1e+20).
std::string number(double value);

}  // namespace qoslb::json
