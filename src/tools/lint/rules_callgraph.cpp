#include <cctype>
#include <regex>
#include <set>
#include <string>

#include "tools/lint/rules.hpp"

namespace qoslb::lint {

namespace {

// The per-round hot path QL015 guards: the Protocol::step_users() hook the
// engine's decide fan-out runs shard-concurrently, and commit_round(), which
// runs single-threaded but inside the round loop.
const std::vector<std::string>& hot_roots() {
  static const std::vector<std::string> kRoots = {"step_users",
                                                  "commit_round"};
  return kRoots;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::size_t match_paren(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Splits an argument/parameter list at top-level commas (nesting-aware for
/// parens, braces, brackets, and template angle lists).
std::vector<std::string> split_top_level(const std::string& text) {
  std::vector<std::string> parts;
  std::string current;
  int round = 0;
  int curly = 0;
  int square = 0;
  int angle = 0;
  for (const char c : text) {
    switch (c) {
      case '(': ++round; break;
      case ')': --round; break;
      case '{': ++curly; break;
      case '}': --curly; break;
      case '[': ++square; break;
      case ']': --square; break;
      case '<': ++angle; break;
      case '>':
        if (angle > 0) --angle;
        break;
      default: break;
    }
    if (c == ',' && round == 0 && curly == 0 && square == 0 && angle == 0) {
      parts.push_back(trim(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!trim(current).empty() || !parts.empty()) parts.push_back(trim(current));
  return parts;
}

/// The call chain behind a reachability finding, rendered one step per entry.
std::vector<std::string> render_path(const Context& ctx,
                                     const std::vector<std::size_t>& parents,
                                     std::size_t fn) {
  std::vector<std::string> out;
  for (const std::size_t step : CallGraph::path_to(parents, fn)) {
    const FunctionDef& def = ctx.symbols.functions()[step];
    out.push_back(ctx.tree.files[def.file].rel + ":" +
                  std::to_string(def.begin_line) + " " +
                  (def.qualifier.empty() ? "" : def.qualifier + "::") +
                  def.name);
  }
  return out;
}

// ---------------------------------------------------------------------------
// QL013 — Philox key discipline outside src/rng/
// ---------------------------------------------------------------------------

/// Tokens that mark a key expression as flowing through the keyed-stream
/// helpers. round_rng covers both the RoundRng type's factories and the
/// conventional variable name for one.
bool sanctioned_expr(const std::string& expr) {
  static const std::regex kSanctioned(
      R"(\b(derive_seed|user_stream|mix64|round_key|round_rng|RoundRng)\b)");
  return std::regex_search(expr, kSanctioned);
}

/// 0-based position of parameter `id` in a parameter list, or npos.
std::size_t param_position(const std::string& params, const std::string& id) {
  static const std::regex kLastWord(R"(([A-Za-z_]\w*)\s*$)");
  const std::vector<std::string> parts = split_top_level(params);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    std::string p = parts[i];
    const std::size_t eq = p.find('=');  // default argument
    if (eq != std::string::npos) p = trim(p.substr(0, eq));
    std::smatch m;
    if (std::regex_search(p, m, kLastWord) && m[1].str() == id) return i;
  }
  return static_cast<std::size_t>(-1);
}

/// True when `expr`, evaluated inside function `fn_idx`, provably flows
/// through a sanctioned keying helper: the expression mentions one directly,
/// or it is an identifier whose local initializer does, or it is a parameter
/// whose every discovered call-site argument does (recursing up to `depth`
/// caller hops). Anything unresolvable is NOT sanctioned — the rule is
/// conservative in the flagging direction.
bool key_is_sanctioned(const Context& ctx, std::size_t fn_idx,
                       const std::string& raw_expr, int depth) {
  const std::string expr = trim(raw_expr);
  if (expr.empty()) return false;
  if (sanctioned_expr(expr)) return true;
  static const std::regex kIdent(R"(^[A-Za-z_]\w*$)");
  if (!std::regex_match(expr, kIdent)) return false;
  const FunctionDef& fn = ctx.symbols.functions()[fn_idx];
  const std::string body = ctx.symbols.body(fn);
  // Local initializer: `id = ...;` / `id(...)` / `id{...}` after the
  // declaration's type.
  const std::regex init("\\b" + expr + R"(\s*([=({]))");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), init);
       it != std::sregex_iterator(); ++it) {
    const std::size_t at =
        static_cast<std::size_t>(it->position() + it->length()) - 1;
    std::string value;
    if (body[at] == '=') {
      const std::size_t semi = body.find(';', at);
      value = body.substr(at + 1, semi == std::string::npos
                                      ? std::string::npos
                                      : semi - at - 1);
    } else {
      const char close = body[at] == '(' ? ')' : '}';
      int nest = 0;
      std::size_t end = at;
      for (; end < body.size(); ++end) {
        if (body[end] == body[at]) ++nest;
        if (body[end] == close && --nest == 0) break;
      }
      if (end < body.size()) value = body.substr(at + 1, end - at - 1);
    }
    if (sanctioned_expr(value)) return true;
  }
  // Parameter: chase the argument at this position through every caller.
  const std::size_t pos = param_position(fn.params, expr);
  if (pos == static_cast<std::size_t>(-1)) return false;
  if (depth <= 0) return false;
  const std::regex call("\\b" + fn.name + R"(\s*\()");
  bool found_site = false;
  for (std::size_t g = 0; g < ctx.symbols.functions().size(); ++g) {
    if (g == fn_idx) continue;
    const auto& callees = ctx.calls.callees_of(g);
    bool calls_fn = false;
    for (const std::size_t c : callees) calls_fn = calls_fn || c == fn_idx;
    if (!calls_fn) continue;
    const std::string caller_body = ctx.symbols.body(ctx.symbols.functions()[g]);
    for (auto it = std::sregex_iterator(caller_body.begin(), caller_body.end(),
                                        call);
         it != std::sregex_iterator(); ++it) {
      const std::size_t open =
          static_cast<std::size_t>(it->position() + it->length()) - 1;
      const std::size_t close = match_paren(caller_body, open);
      if (close == std::string::npos) continue;
      const std::vector<std::string> args =
          split_top_level(caller_body.substr(open + 1, close - open - 1));
      if (pos >= args.size()) continue;
      found_site = true;
      if (!key_is_sanctioned(ctx, g, args[pos], depth - 1)) return false;
    }
  }
  return found_site;
}

void rule_ql013(const Context& ctx, std::vector<Finding>& out) {
  static const std::regex kCtor(R"(\bPhiloxEngine\b\s*(\w+)?\s*\()");
  for (std::size_t fi = 0; fi < ctx.tree.files.size(); ++fi) {
    const SourceFile& f = ctx.tree.files[fi];
    if (!starts_with(f.rel, "src/") || starts_with(f.rel, "src/rng/"))
      continue;
    const std::vector<std::string>* lines = ctx.symbols.scan_lines(fi);
    if (lines == nullptr) continue;
    const std::string text = join(*lines);
    for (auto it = std::sregex_iterator(text.begin(), text.end(), kCtor);
         it != std::sregex_iterator(); ++it) {
      const int line = line_of(text, static_cast<std::size_t>(it->position()));
      // `PhiloxEngine name(...)` at a definition start is a function
      // returning an engine, not a construction.
      if ((*it)[1].matched) {
        bool is_def = false;
        for (const std::size_t cand :
             ctx.symbols.functions_named((*it)[1].str())) {
          const FunctionDef& d = ctx.symbols.functions()[cand];
          is_def = is_def || (d.file == fi && d.begin_line == line);
        }
        if (is_def) continue;
      }
      const std::size_t open =
          static_cast<std::size_t>(it->position() + it->length()) - 1;
      const std::size_t close = match_paren(text, open);
      if (close == std::string::npos) continue;
      const std::vector<std::string> args =
          split_top_level(text.substr(open + 1, close - open - 1));
      if (args.empty() || args[0].empty()) continue;  // default-constructed
      const FunctionDef* enclosing = ctx.symbols.enclosing_function(fi, line);
      const bool ok =
          enclosing == nullptr
              ? sanctioned_expr(args[0])
              : key_is_sanctioned(
                    ctx,
                    static_cast<std::size_t>(enclosing -
                                             ctx.symbols.functions().data()),
                    args[0], 4);
      if (ok) continue;
      Finding finding{
          "QL013", f.rel, line,
          "PhiloxEngine keyed with '" + args[0] +
              "', which does not flow through derive_seed()/user_stream()/"
              "mix64() — ad-hoc keys collide across "
              "(seed, round, user) substreams and break replay"};
      if (enclosing != nullptr) {
        finding.why = {f.rel + ":" + std::to_string(enclosing->begin_line) +
                       " " + enclosing->name};
      }
      out.push_back(std::move(finding));
    }
  }
}

// ---------------------------------------------------------------------------
// QL015 — hot-path hygiene
// ---------------------------------------------------------------------------

void rule_ql015(const Context& ctx, std::vector<Finding>& out) {
  static const std::vector<std::pair<std::regex, const char*>> kBanned = {
      {std::regex(
           R"(\bstd::(mutex|shared_mutex|recursive_mutex|lock_guard|unique_lock|scoped_lock|condition_variable)\b)"),
       "lock acquisition"},
      {std::regex(R"(\bstd::make_unique\b|\bstd::make_shared\b|\bnew\b|\bmalloc\s*\()"),
       "heap allocation"},
      {std::regex(R"(\bthrow\b)"), "throw"},
  };
  const std::vector<std::size_t> parents =
      ctx.calls.reachable_from(ctx.symbols, hot_roots());
  for (std::size_t i = 0; i < ctx.symbols.functions().size(); ++i) {
    if (parents[i] == CallGraph::npos) continue;
    const FunctionDef& fn = ctx.symbols.functions()[i];
    const std::vector<std::string>* lines = ctx.symbols.scan_lines(fn.file);
    if (lines == nullptr) continue;
    for (int line = fn.begin_line; line <= fn.end_line; ++line) {
      if (line < 1 || static_cast<std::size_t>(line) > lines->size()) continue;
      const std::string& text = (*lines)[static_cast<std::size_t>(line) - 1];
      for (const auto& [re, what] : kBanned) {
        if (!std::regex_search(text, re)) continue;
        Finding finding{"QL015", ctx.tree.files[fn.file].rel, line,
                        std::string(what) +
                            " reachable from the per-round hot path "
                            "(step_users/commit_round) — locks serialize the "
                            "shards, allocation and exceptions stall the "
                            "round loop; hoist it to setup or annotate the "
                            "call site with allow(QL015)"};
        finding.why = render_path(ctx, parents, i);
        out.push_back(std::move(finding));
      }
    }
  }
}

}  // namespace

void rules_callgraph(const Context& ctx, std::vector<Finding>& out) {
  rule_ql013(ctx, out);
  rule_ql015(ctx, out);
}

}  // namespace qoslb::lint
