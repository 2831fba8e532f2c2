#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "tools/lint/lexer.hpp"

// Pass 3 of the analyzer: the symbol index. Scans the blanked code view of
// every src/** file for function definitions and struct/class field lists —
// no libclang, just balanced-delimiter heuristics. Preprocessor lines
// are blanked before scanning, so macro *bodies* (QOSLB_REQUIRE and friends)
// are invisible: a macro-mediated throw is part of the check-macro contract,
// not of the function that invokes it (docs/static-analysis.md).
namespace qoslb::lint {

/// One function (or method) definition: a name, a balanced parameter list,
/// and a `{` before any `;`. `qualifier` is the class for out-of-line
/// `Class::method` definitions, empty otherwise. Lines are 1-based and
/// inclusive; the range covers signature through closing brace.
struct FunctionDef {
  std::string name;
  std::string qualifier;
  std::size_t file = 0;  // index into Tree::files
  int begin_line = 0;
  int end_line = 0;
};

/// One data member of a struct/class body, with its snapshot-coverage
/// annotations (`// qoslb-snapshot: transient` / `// qoslb-snapshot:
/// as(field)` on the member's line or a directly preceding comment line).
struct FieldDef {
  std::string name;
  int line = 0;
  bool transient = false;
  std::string serialized_as;  // from as(...); empty = derive from the name
};

/// One struct/class definition with its parsed field list. Only plain data
/// members parse as fields; anything with a parameter list (after blanking
/// template argument lists) is a method and is skipped.
struct StructDef {
  std::string name;
  std::size_t file = 0;
  int begin_line = 0;
  int end_line = 0;
  std::vector<FieldDef> fields;
};

/// Blanks preprocessor lines (`#...` plus backslash continuations) out of a
/// code view, preserving line count. The def/call scanners run on this, so
/// `#define` bodies never register as definitions or call sites.
std::vector<std::string> strip_preprocessor(
    const std::vector<std::string>& code);

class SymbolIndex {
 public:
  /// Scans every file under src/ in the tree (fixture trees ship their own
  /// src/; the real tests/ and bench/ trees are deliberately out of scope —
  /// the symbol rules guard the library, not its harnesses).
  static SymbolIndex build(const Tree& tree);

  const std::vector<FunctionDef>& functions() const { return functions_; }
  const std::vector<StructDef>& structs() const { return structs_; }

  /// Indices of every function named `name` (conservative name-based
  /// resolution: overloads and same-named methods all match).
  std::vector<std::size_t> functions_named(const std::string& name) const;

  /// The preprocessor-stripped code view of a scanned file, or nullptr when
  /// the file was outside the index's scope.
  const std::vector<std::string>* scan_lines(std::size_t file) const;

  /// Joined scan-view text of a definition, signature through closing brace.
  std::string body(const FunctionDef& fn) const;

  /// The struct in `file` whose body contains `line`, or nullptr.
  const StructDef* enclosing_struct(std::size_t file, int line) const;

 private:
  std::vector<FunctionDef> functions_;
  std::vector<StructDef> structs_;
  std::map<std::size_t, std::vector<std::string>> scan_;
  std::multimap<std::string, std::size_t> by_name_;
};

}  // namespace qoslb::lint
