#include <filesystem>
#include <regex>
#include <set>
#include <utility>

#include "tools/lint/rules.hpp"

namespace qoslb::lint {

namespace {

namespace fs = std::filesystem;

struct Pattern {
  std::regex re;
  std::string what;  // human name of the banned construct
};

void scan_patterns(const SourceFile& f, const std::vector<Pattern>& patterns,
                   const char* rule, const std::string& message_suffix,
                   std::vector<Finding>& out) {
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    for (const Pattern& p : patterns) {
      if (std::regex_search(f.code[i], p.re)) {
        out.push_back({rule, f.rel, static_cast<int>(i) + 1,
                       p.what + message_suffix});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// QL001 — unkeyed randomness outside src/rng/
// ---------------------------------------------------------------------------

void rule_ql001(const SourceFile& f, std::vector<Finding>& out) {
  if (starts_with(f.rel, "src/rng/")) return;
  static const std::vector<Pattern> kBanned = {
      {std::regex(R"(\bstd::mt19937)"), "std::mt19937"},
      {std::regex(R"(\bstd::random_device\b)"), "std::random_device"},
      {std::regex(R"(\bstd::default_random_engine\b)"),
       "std::default_random_engine"},
      {std::regex(R"(\bstd::minstd_rand)"), "std::minstd_rand"},
      {std::regex(R"(\bstd::shuffle\b)"), "std::shuffle"},
      {std::regex(R"(\bstd::sample\b)"), "std::sample"},
      {std::regex(R"((^|[^:\w])s?rand\s*\()"), "rand()/srand()"},
  };
  scan_patterns(f, kBanned, "QL001",
                " outside src/rng/ — draw from the per-(seed, round, user) "
                "Philox substreams (rng/round_rng.hpp) instead",
                out);
}

// ---------------------------------------------------------------------------
// QL002 — unordered-container iteration in determinism-critical files
// ---------------------------------------------------------------------------

void rule_ql002(const SourceFile& f, std::vector<Finding>& out) {
  // Every protocol, loop and index under the simulation core decides or
  // commits in iteration order — the same scope as QL003.
  if (!starts_with(f.rel, "src/core/") && !starts_with(f.rel, "src/sim/"))
    return;
  // Pass 1: names declared (or bound) as unordered containers in this file.
  static const std::regex kDecl(
      R"((?:std::)?unordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s+(\w+)\s*[;={(])");
  std::set<std::string> unordered_names;
  for (const std::string& line : f.code) {
    auto begin = std::sregex_iterator(line.begin(), line.end(), kDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it)
      unordered_names.insert((*it)[1].str());
  }
  if (unordered_names.empty()) return;
  // Pass 2: range-for over, or begin()/end() on, any of those names. Bucket
  // order is implementation- and size-defined, so any walk is a
  // platform-dependent result order in a file that must replay exactly.
  static const std::regex kRangeFor(R"(for\s*\([^;:()]*:\s*(\w+)\s*\))");
  static const std::regex kBegin(R"((\w+)\s*\.\s*c?(?:begin|end|rbegin)\s*\()");
  const std::string suffix =
      "' — hash-order walk in a determinism-critical file; use a sorted "
      "container or an index-ordered vector";
  const std::vector<std::pair<const std::regex*, const char*>> kIteration = {
      {&kRangeFor, "range-for over unordered '"},
      {&kBegin, "iterator walk of unordered '"},
  };
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    for (const auto& [re, what] : kIteration) {
      auto begin = std::sregex_iterator(line.begin(), line.end(), *re);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        const std::string name = (*it)[1].str();
        if (unordered_names.count(name)) {
          out.push_back({"QL002", f.rel, static_cast<int>(i) + 1,
                         what + name + suffix});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// QL003 — wall-clock and environment reads in src/core/ and src/sim/
// ---------------------------------------------------------------------------

void rule_ql003(const SourceFile& f, std::vector<Finding>& out) {
  if (!starts_with(f.rel, "src/core/") && !starts_with(f.rel, "src/sim/"))
    return;
  static const std::vector<Pattern> kBanned = {
      {std::regex(R"(\bsystem_clock\b)"), "std::chrono::system_clock"},
      {std::regex(R"(\bhigh_resolution_clock\b)"),
       "std::chrono::high_resolution_clock"},
      {std::regex(R"((^|[^:\w])time\s*\()"), "time()"},
      {std::regex(R"(\bgettimeofday\b)"), "gettimeofday()"},
      {std::regex(R"(\bclock_gettime\b)"), "clock_gettime()"},
      {std::regex(R"(\bgetenv\s*\()"), "getenv()"},
  };
  scan_patterns(f, kBanned, "QL003",
                " in the simulation core — results must be a pure function "
                "of (instance, seed, config); timing belongs in bench/",
                out);
  // A deprecated shim under util/ once re-exported the steady-clock
  // Stopwatch; the rule keeps rejecting the include path so the shim can
  // never quietly come back.
  static const std::regex kTimerInclude(
      R"(#\s*include\s*[<"]util/timer\.hpp[>"])");
  for (std::size_t i = 0; i < f.raw.size(); ++i) {
    if (std::regex_search(f.raw[i], kTimerInclude)) {
      out.push_back({"QL003", f.rel, static_cast<int>(i) + 1,
                     "util/timer.hpp included in the simulation core — "
                     "timing belongs in bench/"});
    }
  }
}

// ---------------------------------------------------------------------------
// QL005 — float accumulation in the potential / satisfaction accounting
// ---------------------------------------------------------------------------

bool ql005_applies(const std::string& rel) {
  if (!starts_with(rel, "src/")) return false;
  const std::string base = fs::path(rel).filename().string();
  return starts_with(base, "potential.") || starts_with(base, "satisfaction");
}

void rule_ql005(const SourceFile& f, std::vector<Finding>& out) {
  if (!ql005_applies(f.rel)) return;
  static const std::vector<Pattern> kBanned = {
      {std::regex(R"(\bfloat\b)"), "float"},
  };
  scan_patterns(f, kBanned, "QL005",
                " in potential/satisfaction accounting — 24-bit mantissas "
                "drift under reordering; use double or std::int64_t",
                out);
}

// ---------------------------------------------------------------------------
// QL007 — steady-clock reads outside src/obs/
// ---------------------------------------------------------------------------

void rule_ql007(const SourceFile& f, std::vector<Finding>& out) {
  if (!starts_with(f.rel, "src/")) return;
  if (starts_with(f.rel, "src/obs/")) return;
  // obs::SteadyClock::now() is the single sanctioned steady-clock read in
  // src/; every other layer takes an injected obs::Clock* so telemetry can
  // be timed without the simulation path ever touching a real clock.
  static const std::vector<Pattern> kBanned = {
      {std::regex(R"(\bsteady_clock\b)"), "std::chrono::steady_clock"},
  };
  scan_patterns(f, kBanned, "QL007",
                " outside src/obs/ — read time through an injected "
                "obs::Clock (obs/clock.hpp) so telemetry stays off the "
                "simulation path",
                out);
  // Stricter inside the deterministic core: even the obs wrapper may not be
  // *constructed* there — the core receives its Clock via
  // EngineConfig::telemetry, injected by a tool or bench.
  if (!starts_with(f.rel, "src/core/") && !starts_with(f.rel, "src/sim/"))
    return;
  static const std::vector<Pattern> kBannedCore = {
      {std::regex(R"(\bSteadyClock\b)"), "obs::SteadyClock"},
  };
  scan_patterns(f, kBannedCore, "QL007",
                " named in the simulation core — the core must receive its "
                "Clock through EngineConfig::telemetry, never instantiate a "
                "wall clock itself",
                out);
}

// ---------------------------------------------------------------------------
// QL010 — thread spawning inside the simulation core
// ---------------------------------------------------------------------------

void rule_ql010(const SourceFile& f, std::vector<Finding>& out) {
  if (!starts_with(f.rel, "src/core/") && !starts_with(f.rel, "src/sim/"))
    return;
  // The persistent pool is the single sanctioned spawn site: it creates its
  // workers once and parks them between rounds, which is exactly the
  // per-round spawn cost this rule exists to keep out of the round loop.
  const std::string base = fs::path(f.rel).filename().string();
  if (starts_with(base, "worker_pool.")) return;
  // `std::thread` followed by `::` is a static member access
  // (std::thread::hardware_concurrency, std::thread::id) — reading those is
  // fine; constructing a thread is not. `std::this_thread` never matches
  // (the literal is `std::thread`).
  static const std::vector<Pattern> kBanned = {
      {std::regex(R"(\bstd::thread\b(?!\s*::))"), "std::thread construction"},
      {std::regex(R"(\bstd::jthread\b)"), "std::jthread"},
      {std::regex(R"(\bstd::async\b)"), "std::async"},
      {std::regex(R"(\bpthread_create\b)"), "pthread_create"},
  };
  scan_patterns(f, kBanned, "QL010",
                " in the simulation core — per-round code must hand work to "
                "the persistent RoundWorkerPool (sim/worker_pool.hpp); "
                "spawning threads per round is the dispatch overhead the "
                "pool exists to eliminate",
                out);
}

}  // namespace

void rules_tokens(const Context& ctx, std::vector<Finding>& out) {
  for (const SourceFile& f : ctx.tree.files) {
    rule_ql001(f, out);
    rule_ql002(f, out);
    rule_ql003(f, out);
    rule_ql005(f, out);
    rule_ql007(f, out);
    rule_ql010(f, out);
  }
}

}  // namespace qoslb::lint
