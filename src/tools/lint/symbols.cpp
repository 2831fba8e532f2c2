#include "tools/lint/symbols.hpp"

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>

namespace qoslb::lint {

namespace {

/// Names that look like `name (...)` in code but never start a definition.
/// `constexpr` is here for `if constexpr (...) {`, which is a branch, not a
/// function named constexpr that every other `if constexpr` would call.
bool is_control_keyword(const std::string& name) {
  static const std::set<std::string> kKeywords = {
      "if",       "for",      "while",   "switch",        "return",
      "catch",    "sizeof",   "alignof", "decltype",      "noexcept",
      "new",      "delete",   "throw",   "static_assert", "alignas",
      "defined",  "typeid",   "assert",  "co_await",      "co_return",
      "co_yield", "requires", "else",    "case",          "do",
      "constexpr",
  };
  return kKeywords.count(name) != 0;
}

bool is_access_specifier(const std::string& word) {
  return word == "public" || word == "private" || word == "protected";
}

/// True when the candidate at `pos` sits in a constructor member-init list
/// (`: member_(...)` / `, member_(...)`) rather than starting a definition.
/// A lone `:` is allowed only when it closes an access specifier.
bool in_member_init_list(const std::string& text, std::size_t pos) {
  std::size_t i = pos;
  while (i > 0 && std::isspace(static_cast<unsigned char>(text[i - 1]))) --i;
  if (i == 0) return false;
  const char prev = text[i - 1];
  if (prev == ',') return true;
  if (prev != ':') return false;
  if (i >= 2 && text[i - 2] == ':') return false;  // `::` — qualified name
  std::size_t w = i - 1;
  while (w > 0 && std::isspace(static_cast<unsigned char>(text[w - 1]))) --w;
  std::size_t begin = w;
  while (begin > 0 &&
         (std::isalnum(static_cast<unsigned char>(text[begin - 1])) ||
          text[begin - 1] == '_'))
    --begin;
  return !is_access_specifier(text.substr(begin, w - begin));
}

/// Advances past a balanced `(...)` group starting at `open`; returns the
/// index of the closing paren, or npos.
std::size_t match_paren(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i;
  }
  return std::string::npos;
}

std::size_t match_brace(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}' && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Blanks balanced template argument lists (`<...>`) so a `(` inside one —
/// e.g. `std::function<void(const SnapshotV1&)>` — cannot make a data
/// member look like a method declaration. Conservative: an unbalanced `<`
/// (a real less-than) leaves the text untouched past it.
std::string blank_template_args(const std::string& text) {
  std::string out = text;
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    if (c == '<') {
      stack.push_back(i);
    } else if (c == '>') {
      if (!stack.empty()) {
        const std::size_t open = stack.back();
        stack.pop_back();
        if (stack.empty())
          for (std::size_t j = open; j <= i; ++j) out[j] = ' ';
      }
    } else if (c == ';' || c == '=') {
      stack.clear();
    }
  }
  return out;
}

/// Statement-level annotation lookup: scans the comments view on `line` and
/// directly preceding comment-only lines for `qoslb-snapshot:` directives.
void read_snapshot_annotation(const SourceFile& f, int line, FieldDef& field) {
  static const std::regex kDirective(
      R"(qoslb-snapshot:\s*(transient|as\(\s*(\w+)\s*\)))");
  const auto apply = [&](const std::string& comment) {
    std::smatch m;
    if (!std::regex_search(comment, m, kDirective)) return false;
    if (m[1].str() == "transient")
      field.transient = true;
    else
      field.serialized_as = m[2].str();
    return true;
  };
  if (line < 1 || static_cast<std::size_t>(line) > f.comments.size()) return;
  std::size_t i = static_cast<std::size_t>(line) - 1;
  if (apply(f.comments[i])) return;
  const auto blank = [&](std::size_t k) {
    const std::string& s = f.code[k];
    return std::all_of(s.begin(), s.end(), [](unsigned char c) {
      return std::isspace(c) != 0;
    });
  };
  while (i > 0 && blank(i - 1)) {
    --i;
    if (apply(f.comments[i])) return;
  }
}

/// Parses the data members out of one class body (text between the class's
/// braces, exclusive). Statements accumulate at body depth 0 and are
/// classified at their `;`; a brace at depth 0 (an inline method body or a
/// nested type) poisons the current statement, which is discarded when the
/// brace closes. Access-specifier labels stay in the buffer and are stripped
/// at classification time.
void parse_fields(const SourceFile& f, const std::string& body_text,
                  int body_begin_line, StructDef& out) {
  static const std::regex kName(R"(([A-Za-z_]\w*)\s*$)");
  std::string statement;
  int depth = 0;
  int line = body_begin_line;
  for (const char c : body_text) {
    if (c == '\n') ++line;
    if (depth > 0) {
      if (c == '{') ++depth;
      if (c == '}' && --depth == 0) statement.clear();
      continue;
    }
    if (c == '{') {
      ++depth;
      continue;
    }
    if (c != ';') {
      if (!std::isspace(static_cast<unsigned char>(c)) || !statement.empty())
        statement += c;
      continue;
    }
    std::string decl = statement;
    statement.clear();
    const int at = line;
    for (const char* label : {"public:", "private:", "protected:"}) {
      const std::size_t p = decl.rfind(label);
      if (p != std::string::npos)
        decl = decl.substr(p + std::string(label).size());
    }
    const std::size_t eq = decl.find('=');
    if (eq != std::string::npos) decl = decl.substr(0, eq);
    decl = blank_template_args(decl);
    // Anything with a parameter list, a destructor tilde, or a non-member
    // keyword is not a plain data member.
    if (decl.find('(') != std::string::npos) continue;
    if (decl.find('~') != std::string::npos) continue;
    bool skip = false;
    for (const char* kw : {"using ", "typedef ", "static ", "friend ",
                           "enum ", "struct ", "class ", "operator"})
      if (decl.find(kw) != std::string::npos) skip = true;
    if (skip) continue;
    while (!decl.empty() &&
           std::isspace(static_cast<unsigned char>(decl.back())))
      decl.pop_back();
    // The final identifier is the member name; require a preceding type.
    std::smatch m;
    if (!std::regex_search(decl, m, kName)) continue;
    if (m.position() == 0) continue;
    const std::string head = decl.substr(0, static_cast<std::size_t>(m.position()));
    if (head.find_first_not_of(" \t\n&*") == std::string::npos) continue;
    FieldDef field;
    field.name = m[1].str();
    field.line = at;
    read_snapshot_annotation(f, at, field);
    out.fields.push_back(std::move(field));
  }
}

}  // namespace

std::vector<std::string> strip_preprocessor(
    const std::vector<std::string>& code) {
  std::vector<std::string> out = code;
  bool continued = false;
  for (std::string& s : out) {
    const bool is_directive = [&] {
      for (const char c : s) {
        if (std::isspace(static_cast<unsigned char>(c))) continue;
        return c == '#';
      }
      return false;
    }();
    const bool blank_it = continued || is_directive;
    continued = blank_it && !s.empty() && s.back() == '\\';
    if (blank_it) s.assign(s.size(), ' ');
  }
  return out;
}

SymbolIndex SymbolIndex::build(const Tree& tree) {
  static const std::regex kCandidate(
      R"((?:([A-Za-z_]\w*)\s*::\s*)?([A-Za-z_]\w*)\s*\()");
  static const std::regex kStruct(
      R"((\benum\s+)?\b(?:struct|class)\s+([A-Za-z_]\w*)\b([^;{}()]*)\{)");
  SymbolIndex index;
  for (std::size_t fi = 0; fi < tree.files.size(); ++fi) {
    const SourceFile& f = tree.files[fi];
    if (!starts_with(f.rel, "src/")) continue;
    std::vector<std::string> scan = strip_preprocessor(f.code);
    const std::string text = join(scan);

    for (auto it = std::sregex_iterator(text.begin(), text.end(), kCandidate);
         it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[2].str();
      if (is_control_keyword(name)) continue;
      const auto pos = static_cast<std::size_t>(it->position());
      if (in_member_init_list(text, pos)) continue;
      const std::size_t open = pos + it->length() - 1;
      const std::size_t close = match_paren(text, open);
      if (close == std::string::npos) continue;
      // A definition has `{` before `;` after its parameter list (possibly
      // through const/noexcept/override/trailing-return/init-list tokens).
      std::size_t i = close + 1;
      bool body = false;
      for (; i < text.size(); ++i) {
        if (text[i] == '{') {
          body = true;
          break;
        }
        if (text[i] == ';' || text[i] == '}') break;
        // A bare `)` means the candidate's parens were nested inside an
        // enclosing group — `while (!q.empty()) {` is not a definition of
        // `empty` — because match_paren consumed every balanced group.
        if (text[i] == ')') break;
        if (text[i] == '(') {  // init-list member: skip its argument group
          const std::size_t inner = match_paren(text, i);
          if (inner == std::string::npos) break;
          i = inner;
        }
      }
      if (!body) continue;
      const std::size_t end = match_brace(text, i);
      if (end == std::string::npos) continue;
      FunctionDef def;
      def.name = name;
      def.qualifier = (*it)[1].matched ? (*it)[1].str() : "";
      def.file = fi;
      def.begin_line = line_of(text, pos);
      def.end_line = line_of(text, end);
      index.by_name_.emplace(def.name, index.functions_.size());
      index.functions_.push_back(std::move(def));
    }

    for (auto it = std::sregex_iterator(text.begin(), text.end(), kStruct);
         it != std::sregex_iterator(); ++it) {
      if ((*it)[1].matched) continue;  // enum class
      const auto open =
          static_cast<std::size_t>(it->position() + it->length() - 1);
      const std::size_t close = match_brace(text, open);
      if (close == std::string::npos) continue;
      StructDef def;
      def.name = (*it)[2].str();
      def.file = fi;
      def.begin_line = line_of(text, it->position());
      def.end_line = line_of(text, close);
      parse_fields(f, text.substr(open + 1, close - open - 1),
                   line_of(text, open + 1), def);
      index.structs_.push_back(std::move(def));
    }

    index.scan_.emplace(fi, std::move(scan));
  }
  return index;
}

std::vector<std::size_t> SymbolIndex::functions_named(
    const std::string& name) const {
  std::vector<std::size_t> out;
  const auto [begin, end] = by_name_.equal_range(name);
  for (auto it = begin; it != end; ++it) out.push_back(it->second);
  return out;
}

const std::vector<std::string>* SymbolIndex::scan_lines(
    std::size_t file) const {
  const auto it = scan_.find(file);
  return it == scan_.end() ? nullptr : &it->second;
}

std::string SymbolIndex::body(const FunctionDef& fn) const {
  const std::vector<std::string>* lines = scan_lines(fn.file);
  if (lines == nullptr) return {};
  return join_range(*lines, DefRange{fn.begin_line, fn.end_line});
}

const StructDef* SymbolIndex::enclosing_struct(std::size_t file,
                                               int line) const {
  const StructDef* best = nullptr;
  for (const StructDef& s : structs_) {
    if (s.file != file || line < s.begin_line || line > s.end_line) continue;
    if (best == nullptr || s.begin_line > best->begin_line) best = &s;
  }
  return best;
}

}  // namespace qoslb::lint
