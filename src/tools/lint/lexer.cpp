#include "tools/lint/lexer.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <regex>
#include <sstream>

namespace qoslb::lint {

namespace fs = std::filesystem;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else if (c != '\r') {
      current += c;
    }
  }
  lines.push_back(current);
  return lines;
}

void lex(const std::string& text, std::string& code_out,
         std::string& comments_out) {
  enum class Mode { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  Mode mode = Mode::kCode;
  std::string raw_delim;  // for kRaw: the ")delim\"" terminator
  code_out.clear();
  comments_out.clear();
  code_out.reserve(text.size());
  comments_out.reserve(text.size());
  const std::size_t n = text.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = text[i];
    const char next = i + 1 < n ? text[i + 1] : '\0';
    if (c == '\n') {  // newlines survive in both views, in every mode
      code_out += '\n';
      comments_out += '\n';
      if (mode == Mode::kLineComment) mode = Mode::kCode;
      continue;
    }
    switch (mode) {
      case Mode::kCode:
        if (c == '/' && next == '/') {
          mode = Mode::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          mode = Mode::kBlockComment;
          ++i;
        } else if (c == 'R' && next == '"') {
          // R"delim( ... )delim" — find the delimiter.
          std::size_t open = text.find('(', i + 2);
          if (open == std::string::npos) {
            code_out += c;
            break;
          }
          raw_delim = ")" + text.substr(i + 2, open - (i + 2)) + "\"";
          code_out += "R\"\"";
          mode = Mode::kRaw;
          i = open;  // consume through the opening '('
        } else if (c == '"') {
          code_out += c;
          mode = Mode::kString;
        } else if (c == '\'') {
          code_out += c;
          mode = Mode::kChar;
        } else {
          code_out += c;
        }
        break;
      case Mode::kLineComment:
        comments_out += c;
        break;
      case Mode::kBlockComment:
        if (c == '*' && next == '/') {
          mode = Mode::kCode;
          ++i;
        } else {
          comments_out += c;
        }
        break;
      case Mode::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          code_out += c;
          mode = Mode::kCode;
        }
        break;
      case Mode::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          code_out += c;
          mode = Mode::kCode;
        }
        break;
      case Mode::kRaw:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          mode = Mode::kCode;
        }
        break;
    }
  }
}

namespace {

/// Parses `qoslb-lint: allow(QL001, QL002)` / `allow-file(QLxxx)` directives
/// out of the per-line comment text.
void parse_suppressions(SourceFile& f) {
  static const std::regex kDirective(
      R"(qoslb-lint:\s*allow(-file)?\(([^)]*)\))");
  static const std::regex kRuleId(R"(QL\d{3})");
  f.allow.assign(f.comments.size(), {});
  for (std::size_t i = 0; i < f.comments.size(); ++i) {
    auto begin = std::sregex_iterator(f.comments[i].begin(),
                                      f.comments[i].end(), kDirective);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const bool file_wide = (*it)[1].matched;
      const std::string ids = (*it)[2].str();
      auto id_begin = std::sregex_iterator(ids.begin(), ids.end(), kRuleId);
      for (auto id = id_begin; id != std::sregex_iterator(); ++id) {
        if (file_wide)
          f.allow_file.insert(id->str());
        else
          f.allow[i].insert(id->str());
      }
    }
  }
}

bool is_blank(const std::string& s) {
  return std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return std::isspace(c) != 0; });
}

bool has_extension(const fs::path& p) {
  static const std::set<std::string> kExts = {".cpp", ".hpp", ".h", ".cc",
                                              ".cxx", ".hh"};
  return kExts.count(p.extension().string()) != 0;
}

bool skipped_dir(const std::string& name) {
  return name == ".git" || name == "CMakeFiles" || name == "_deps" ||
         name == "bench-build" || name.rfind("build", 0) == 0;
}

}  // namespace

std::string to_rel(const fs::path& p, const fs::path& root) {
  return p.lexically_relative(root).generic_string();
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Tree collect_tree(const fs::path& root) {
  Tree tree;
  tree.root = root.lexically_normal();
  std::vector<fs::path> stack = {tree.root};
  while (!stack.empty()) {
    const fs::path dir = stack.back();
    stack.pop_back();
    for (const auto& entry : fs::directory_iterator(dir)) {
      const fs::path& p = entry.path();
      if (entry.is_directory()) {
        if (skipped_dir(p.filename().string())) continue;
        if (to_rel(p, tree.root) == "tests/lint_fixtures") continue;
        stack.push_back(p);
      } else if (entry.is_regular_file()) {
        if (p.filename() == "CMakeLists.txt") {
          tree.cmake_lists.push_back(p);
        } else if (has_extension(p)) {
          SourceFile f;
          f.rel = to_rel(p, tree.root);
          const std::string text = read_file(p);
          std::string code;
          std::string comments;
          lex(text, code, comments);
          f.raw = split_lines(text);
          f.code = split_lines(code);
          f.comments = split_lines(comments);
          parse_suppressions(f);
          tree.files.push_back(std::move(f));
        }
      }
    }
  }
  std::sort(
      tree.files.begin(), tree.files.end(),
      [](const SourceFile& a, const SourceFile& b) { return a.rel < b.rel; });
  std::sort(tree.cmake_lists.begin(), tree.cmake_lists.end());
  return tree;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i) out += '\n';
    out += lines[i];
  }
  return out;
}

int line_of(const std::string& text, std::size_t pos) {
  return 1 +
         static_cast<int>(std::count(text.begin(), text.begin() + pos, '\n'));
}

const SourceFile* find_file(const std::vector<SourceFile>& files,
                            const std::string& rel) {
  for (const SourceFile& f : files)
    if (f.rel == rel) return &f;
  return nullptr;
}

bool suppressed(const SourceFile& f, int line, const std::string& rule) {
  if (f.allow_file.count(rule)) return true;
  if (line < 1 || static_cast<std::size_t>(line) > f.allow.size()) return false;
  std::size_t i = static_cast<std::size_t>(line) - 1;
  if (f.allow[i].count(rule)) return true;
  while (i > 0 && is_blank(f.code[i - 1])) {
    --i;
    if (f.allow[i].count(rule)) return true;
  }
  return false;
}

std::string join_range(const std::vector<std::string>& lines,
                       const DefRange& range) {
  std::string out;
  for (int i = range.begin_line; i <= range.end_line; ++i) {
    if (i < 1 || static_cast<std::size_t>(i) > lines.size()) continue;
    out += lines[static_cast<std::size_t>(i) - 1];
    out += '\n';
  }
  return out;
}

std::set<std::string> string_literal_fields(const std::string& raw_span) {
  static const std::regex kField(R"(^[a-z_][a-z0-9_]*$)");
  std::set<std::string> fields;
  enum class Mode { kCode, kLineComment, kBlockComment, kString, kChar };
  Mode mode = Mode::kCode;
  std::string literal;
  const std::size_t n = raw_span.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = raw_span[i];
    const char next = i + 1 < n ? raw_span[i + 1] : '\0';
    switch (mode) {
      case Mode::kCode:
        if (c == '/' && next == '/') {
          mode = Mode::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          mode = Mode::kBlockComment;
          ++i;
        } else if (c == '"') {
          mode = Mode::kString;
          literal.clear();
        } else if (c == '\'') {
          mode = Mode::kChar;
        }
        break;
      case Mode::kLineComment:
        if (c == '\n') mode = Mode::kCode;
        break;
      case Mode::kBlockComment:
        if (c == '*' && next == '/') {
          mode = Mode::kCode;
          ++i;
        }
        break;
      case Mode::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          mode = Mode::kCode;
          // Field keywords start at the beginning of the literal (a trailing
          // separator space is fine: `"assignment "`). A leading space marks
          // a connector fragment inside a spliced message (`" of "`), never
          // a field name.
          std::size_t end = literal.size();
          while (end > 0 && literal[end - 1] == ' ') --end;
          const std::string trimmed = literal.substr(0, end);
          if (std::regex_match(trimmed, kField)) fields.insert(trimmed);
        } else {
          literal += c;
        }
        break;
      case Mode::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          mode = Mode::kCode;
        }
        break;
    }
  }
  return fields;
}

}  // namespace qoslb::lint
