#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace qoslb::json {
namespace {

[[noreturn]] void fail_kind(const char* wanted) {
  throw std::invalid_argument(std::string("json: value is not a ") + wanted);
}

/// Recursive-descent parser over a string_view with line/column tracking.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after the document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    std::ostringstream out;
    out << "json: line " << line << " column " << column << ": " << what;
    throw std::invalid_argument(out.str());
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Value parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth)
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        ++depth_;
        Value nested = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return nested;
      }
      case '"':
        return Value::make_string(parse_string());
      case 't':
        if (consume_literal("true")) return Value::make_bool(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value::make_bool(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value::make_null();
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    std::vector<std::pair<std::string, Value>> members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Value::make_object(std::move(members));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      for (const auto& [existing, value] : members)
        if (existing == key) fail("duplicate object key \"" + key + "\"");
      skip_whitespace();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value::make_object(std::move(members));
    }
  }

  Value parse_array() {
    expect('[');
    std::vector<Value> items;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Value::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value::make_array(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control byte in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported —
          // nothing in the repo's artifacts emits them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    double value = 0.0;
    const auto [end, err] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (err != std::errc{} || end != text_.data() + pos_) {
      pos_ = start;
      fail("invalid number");
    }
    return Value::make_number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // arrays/objects open around pos_
};

}  // namespace

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double n) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::make_array(std::vector<Value> items) {
  Value v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

Value Value::make_object(std::vector<std::pair<std::string, Value>> members) {
  Value v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

bool Value::as_bool() const {
  if (!is_bool()) fail_kind("bool");
  return bool_;
}

double Value::as_number() const {
  if (!is_number()) fail_kind("number");
  return number_;
}

const std::string& Value::as_string() const {
  if (!is_string()) fail_kind("string");
  return string_;
}

const std::vector<Value>& Value::items() const {
  if (!is_array()) fail_kind("array");
  return items_;
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  if (!is_object()) fail_kind("object");
  return members_;
}

const Value* Value::find(const std::string& key) const {
  for (const auto& [name, value] : members())
    if (name == key) return &value;
  return nullptr;
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("json: cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse(buffer.str());
  } catch (const std::invalid_argument& error) {
    throw std::invalid_argument(path + ": " + error.what());
  }
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string number(double value) {
  std::ostringstream out;
  out.precision(12);
  out << value;
  return out.str();
}

}  // namespace qoslb::json
