#include <cctype>
#include <filesystem>
#include <regex>
#include <set>
#include <utility>

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

// ---------------------------------------------------------------------------
// QL016 — telemetry schema catalog (docs/observability.md)
// ---------------------------------------------------------------------------

/// The documented-name catalog: every backticked span in
/// docs/observability.md. `<ident>` segments are wildcards matching one
/// identifier; one-level `{a,b,c}` identifier alternations expand into one
/// entry per alternative. Prose spans that never look like telemetry names
/// simply never match anything — a larger catalog is harmless.
struct SchemaCatalog {
  bool present = false;
  std::vector<std::string> spans;     // raw span text (JSONL-key containment)
  std::vector<std::string> expanded;  // alternation-expanded (fragment check)
  std::vector<std::regex> exact;      // anchored wildcard matchers
};

/// `perf/<phase>_{cycles,misses}` -> {perf/<phase>_cycles, perf/<phase>_misses}.
std::vector<std::string> expand_alternations(const std::string& span) {
  static const std::regex kAlt(R"(\{([A-Za-z0-9_]+(?:,[A-Za-z0-9_]+)+)\})");
  std::vector<std::string> work = {span};
  bool grew = true;
  while (grew) {
    grew = false;
    std::vector<std::string> next;
    for (const std::string& s : work) {
      std::smatch m;
      if (!std::regex_search(s, m, kAlt)) {
        next.push_back(s);
        continue;
      }
      grew = true;
      const std::string head = s.substr(0, static_cast<std::size_t>(m.position()));
      const std::string tail =
          s.substr(static_cast<std::size_t>(m.position() + m.length()));
      const std::string alts = m[1].str();
      std::size_t start = 0;
      while (start <= alts.size()) {
        const std::size_t comma = alts.find(',', start);
        const std::size_t len =
            comma == std::string::npos ? std::string::npos : comma - start;
        next.push_back(head + alts.substr(start, len) + tail);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    }
    work = std::move(next);
  }
  return work;
}

/// Anchored matcher for one expanded entry: `<ident>` spans become
/// identifier wildcards, everything else matches literally.
std::regex wildcard_matcher(const std::string& entry) {
  static const std::string kSpecial = R"(\^$.|?*+()[]{})";
  std::string pattern = "^";
  std::size_t i = 0;
  while (i < entry.size()) {
    if (entry[i] == '<') {
      const std::size_t close = entry.find('>', i + 1);
      bool ident = close != std::string::npos && close > i + 1;
      for (std::size_t j = i + 1; ident && j < close; ++j)
        ident = std::isalnum(static_cast<unsigned char>(entry[j])) != 0 ||
                entry[j] == '_';
      if (ident) {
        pattern += "[A-Za-z0-9_]+";
        i = close + 1;
        continue;
      }
    }
    if (kSpecial.find(entry[i]) != std::string::npos) pattern += '\\';
    pattern += entry[i++];
  }
  pattern += "$";
  return std::regex(pattern);
}

SchemaCatalog load_schema_catalog(const fs::path& root) {
  SchemaCatalog catalog;
  const fs::path doc = root / "docs" / "observability.md";
  if (!fs::is_regular_file(doc)) return catalog;
  catalog.present = true;
  const std::string text = read_file(doc);
  static const std::regex kSpan("`([^`\r\n]+)`");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kSpan);
       it != std::sregex_iterator(); ++it) {
    const std::string span = (*it)[1].str();
    catalog.spans.push_back(span);
    for (const std::string& entry : expand_alternations(span)) {
      catalog.expanded.push_back(entry);
      catalog.exact.push_back(wildcard_matcher(entry));
    }
  }
  return catalog;
}

bool name_documented(const SchemaCatalog& catalog, const std::string& name) {
  for (const std::regex& re : catalog.exact)
    if (std::regex_match(name, re)) return true;
  return false;
}

/// A composed registration (prefix/suffix concatenation) is documented when
/// one catalog entry carries every literal fragment as a substring.
bool fragments_documented(const SchemaCatalog& catalog,
                          const std::vector<std::string>& fragments) {
  for (const std::string& entry : catalog.expanded) {
    bool all = true;
    for (const std::string& fragment : fragments)
      if (entry.find(fragment) == std::string::npos) {
        all = false;
        break;
      }
    if (all) return true;
  }
  return false;
}

/// A JSONL key is documented as a standalone backticked token or inside a
/// backticked JSON example (`{"metric":...,"type":...}`).
bool key_documented(const SchemaCatalog& catalog, const std::string& key) {
  for (const std::string& span : catalog.spans)
    if (span == key || span.find("\"" + key + "\"") != std::string::npos)
      return true;
  return false;
}

/// Index one past the ')' matching the '(' at `open`, honoring string
/// literals; npos when unbalanced.
std::size_t past_matching_paren(const std::string& text, std::size_t open) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = open; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '(') ++depth;
    else if (c == ')' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

/// The first top-level argument of the span between '(' at `open` and the
/// matching ')' — a registration's name expression.
std::string first_argument(const std::string& text, std::size_t open,
                           std::size_t past_close) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = open; i + 1 < past_close; ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '(') ++depth;
    else if (c == ')') --depth;
    else if (c == ',' && depth == 1)
      return text.substr(open + 1, i - open - 1);
  }
  return text.substr(open + 1, past_close - open - 2);
}

std::string trim_copy(std::string s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0)
    s.pop_back();
  while (!s.empty() &&
         std::isspace(static_cast<unsigned char>(s.front())) != 0)
    s.erase(s.begin());
  return s;
}

void rule_ql016(const Tree& tree, std::vector<Finding>& out) {
  const SchemaCatalog catalog = load_schema_catalog(tree.root);
  if (!catalog.present) return;
  // Registration sites: member calls on a registry. The name is either one
  // whole-argument string literal (exact catalog match, wildcards allowed)
  // or a concatenation whose literal fragments must all land in one entry.
  static const std::regex kCall(
      R"((?:\.|->)\s*(counter|gauge|histogram)\s*\()");
  static const std::regex kLiteral(R"re("((?:[^"\\]|\\.)*)")re");
  // Emitted JSONL keys: escaped `\"key\":` inside obs serializer literals.
  static const std::regex kEscapedKey(R"(\\"([A-Za-z0-9_]+)\\":)");
  for (const SourceFile& f : tree.files) {
    if (!starts_with(f.rel, "src/")) continue;
    const std::string raw_text = join(f.raw);
    for (auto it = std::sregex_iterator(raw_text.begin(), raw_text.end(),
                                        kCall);
         it != std::sregex_iterator(); ++it) {
      const std::size_t open =
          static_cast<std::size_t>(it->position() + it->length()) - 1;
      const std::size_t past_close = past_matching_paren(raw_text, open);
      if (past_close == std::string::npos) continue;
      const std::string arg =
          trim_copy(first_argument(raw_text, open, past_close));
      std::vector<std::string> fragments;
      for (auto lit = std::sregex_iterator(arg.begin(), arg.end(), kLiteral);
           lit != std::sregex_iterator(); ++lit)
        fragments.push_back((*lit)[1].str());
      if (fragments.empty()) continue;  // dynamic name (e.g. merge())
      const int line =
          line_of(raw_text, static_cast<std::size_t>(it->position()));
      if (fragments.size() == 1 && arg == "\"" + fragments[0] + "\"") {
        if (!name_documented(catalog, fragments[0])) {
          out.push_back({"QL016", f.rel, line,
                         "telemetry name '" + fragments[0] +
                             "' is registered here but missing from the "
                             "docs/observability.md schema catalog — "
                             "document it (backticked) or reuse a "
                             "documented name"});
        }
      } else if (!fragments_documented(catalog, fragments)) {
        std::string list;
        for (const std::string& fragment : fragments) {
          if (!list.empty()) list += "' + '";
          list += fragment;
        }
        out.push_back({"QL016", f.rel, line,
                       "composed telemetry name (literal fragments '" + list +
                           "') matches no single docs/observability.md "
                           "catalog entry"});
      }
    }
    if (!starts_with(f.rel, "src/obs/")) continue;
    for (auto it = std::sregex_iterator(raw_text.begin(), raw_text.end(),
                                        kEscapedKey);
         it != std::sregex_iterator(); ++it) {
      const std::string key = (*it)[1].str();
      if (key_documented(catalog, key)) continue;
      out.push_back(
          {"QL016", f.rel,
           line_of(raw_text, static_cast<std::size_t>(it->position())),
           "JSONL key '" + key +
               "' is emitted here but missing from the "
               "docs/observability.md schema catalog — qoslb-report would "
               "flag the artifact as schema drift"});
    }
  }
}

}  // namespace

void rules_contracts(const Context& ctx, std::vector<Finding>& out) {
  rule_ql004_cmake(ctx.tree, out);
  rule_ql006(ctx.tree.root, out);
  rule_ql016(ctx.tree, out);
}

}  // namespace qoslb::lint
