#pragma once

#include <filesystem>
#include <set>
#include <string>
#include <vector>

// Pass 1 of the analyzer (docs/static-analysis.md): file discovery and
// lexing. One walk of the tree produces every artifact the later passes
// share — the lexed source files *and* the CMakeLists.txt list — so the
// include-graph builder and QL004's reachability scan can never disagree
// about which files exist or scan a build tree twice.
namespace qoslb::lint {

/// A scanned source file. `code` is the file with comments and string/char
/// literal contents blanked (delimiters kept), so token rules never fire on
/// prose or on a pattern quoted inside a string; `comments` holds the
/// comment text per line, which is where suppression directives and
/// `qoslb-snapshot:` annotations live; `raw` is the file verbatim, used by
/// rules that must see `#include` paths and serialized-field string
/// literals.
struct SourceFile {
  std::string rel;
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::vector<std::string> comments;
  std::set<std::string> allow_file;          // rules allowed file-wide
  std::vector<std::set<std::string>> allow;  // rules allowed per line
};

/// Everything one discovery pass found: the lexed sources (sorted by rel
/// path) plus every CMakeLists.txt. Built once per run; every later pass —
/// include graph, symbol index, call graph, token rules — reads this.
struct Tree {
  std::filesystem::path root;
  std::vector<SourceFile> files;
  std::vector<std::filesystem::path> cmake_lists;
};

/// Walks `root` collecting the Tree: *.cpp/*.hpp/*.h/*.cc/*.cxx/*.hh files,
/// skipping build trees (build*, bench-build, CMakeFiles, _deps, .git) and
/// the checked-in violation fixtures (tests/lint_fixtures).
Tree collect_tree(const std::filesystem::path& root);

/// Single-pass lexer producing the code/comment views. Handles //, /* */,
/// "..." and '...' with escapes, and R"delim(...)delim" raw strings.
void lex(const std::string& text, std::string& code_out,
         std::string& comments_out);

std::vector<std::string> split_lines(const std::string& text);
std::string read_file(const std::filesystem::path& p);
std::string to_rel(const std::filesystem::path& p,
                   const std::filesystem::path& root);

bool starts_with(const std::string& s, const std::string& prefix);
std::string join(const std::vector<std::string>& lines);
int line_of(const std::string& text, std::size_t pos);

const SourceFile* find_file(const std::vector<SourceFile>& files,
                            const std::string& rel);

/// True when a finding at 1-based `line` for `rule` is suppressed: the rule
/// is allowed file-wide, on the line itself, or on a directly preceding run
/// of comment-only lines.
bool suppressed(const SourceFile& f, int line, const std::string& rule);

/// 1-based inclusive line range of a function definition's full text.
struct DefRange {
  int begin_line = 0;
  int end_line = 0;
};

std::string join_range(const std::vector<std::string>& lines,
                       const DefRange& range);

/// Serialized field names mentioned in a raw text span: every string literal
/// (comments and char literals skipped) whose content — after trimming a
/// trailing separator space — is a single lowercase identifier.
/// `"assignment "` names the field `assignment`; prose never matches.
std::set<std::string> string_literal_fields(const std::string& raw_span);

}  // namespace qoslb::lint
