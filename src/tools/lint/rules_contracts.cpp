#include <cctype>
#include <filesystem>
#include <regex>
#include <set>

#include "tools/lint/rules.hpp"

namespace qoslb::lint {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// QL004 — CMake reachability
// ---------------------------------------------------------------------------

/// QL004 consumes Tree::cmake_lists — the same discovery
/// walk that produced the source files and the include graph, so the three
/// can never disagree about which files exist.
void rule_ql004_cmake(const Tree& tree, std::vector<Finding>& out) {
  if (tree.cmake_lists.empty()) return;
  // Every `foo.cpp` token in a CMakeLists.txt, resolved against that file's
  // directory. `#` comments are stripped first — a commented-out source is
  // exactly the dead-translation-unit case this check exists for. Tokens
  // with unexpanded ${...} variables are skipped.
  static const std::regex kCppToken(R"(([\w./-]+\.cpp)\b)");
  std::set<std::string> reachable;
  for (const fs::path& cml : tree.cmake_lists) {
    std::string text;
    for (const std::string& line : split_lines(read_file(cml))) {
      const std::size_t hash = line.find('#');
      text += hash == std::string::npos ? line : line.substr(0, hash);
      text += '\n';
    }
    for (auto it = std::sregex_iterator(text.begin(), text.end(), kCppToken);
         it != std::sregex_iterator(); ++it) {
      const std::string token = (*it)[1].str();
      const fs::path resolved =
          (cml.parent_path() / token).lexically_normal();
      reachable.insert(to_rel(resolved, tree.root));
    }
  }
  for (const SourceFile& f : tree.files) {
    if (!starts_with(f.rel, "src/")) continue;
    if (f.rel.size() < 4 || f.rel.substr(f.rel.size() - 4) != ".cpp") continue;
    if (reachable.count(f.rel) == 0) {
      out.push_back({"QL004", f.rel, 1,
                     "not reachable from any CMakeLists.txt — dead "
                     "translation units drift out of sync with the contract "
                     "the build enforces"});
    }
  }
}

// ---------------------------------------------------------------------------
// QL006 — .clang-format-allowlist hygiene
// ---------------------------------------------------------------------------

void rule_ql006(const fs::path& root, std::vector<Finding>& out) {
  const fs::path allowlist = root / ".clang-format-allowlist";
  if (!fs::exists(allowlist)) return;
  const std::vector<std::string> lines = split_lines(read_file(allowlist));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string entry = lines[i];
    const std::size_t hash = entry.find('#');
    if (hash != std::string::npos) entry = entry.substr(0, hash);
    while (!entry.empty() && std::isspace(static_cast<unsigned char>(
                                 entry.back())) != 0)
      entry.pop_back();
    while (!entry.empty() && std::isspace(static_cast<unsigned char>(
                                 entry.front())) != 0)
      entry.erase(entry.begin());
    if (entry.empty()) continue;
    if (!fs::is_regular_file(root / entry)) {
      out.push_back({"QL006", ".clang-format-allowlist",
                     static_cast<int>(i) + 1,
                     "stale entry '" + entry +
                         "': no such file — the format gate would silently "
                         "check nothing"});
    }
  }
}

}  // namespace

void rules_contracts(const Context& ctx, std::vector<Finding>& out) {
  rule_ql004_cmake(ctx.tree, out);
  rule_ql006(ctx.tree.root, out);
}

}  // namespace qoslb::lint
