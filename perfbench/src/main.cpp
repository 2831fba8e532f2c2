// qoslb_perfbench — the repository benchmark.
//
//   qoslb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--scale full|tiny] [--trace-out FILE]
//                   [--git-sha SHA] [--source-digest HEX] [--corrupt]
//
// Repeats whole passes of the workload (set-up, Engine::run, output check)
// for about --seconds and reports medians. With --trace 0 it prints the
// end-to-end metrics; with --trace 1 it runs each pass untraced and then
// as a traced replay, and prints the per-layer metrics. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Exit status 0 only if every run passed its output check.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "perfbench.hpp"

namespace {

using perfbench::Clock;
using perfbench::Metric;

struct Args {
  std::string workload;
  std::uint64_t seed = perfbench::kPinnedSeed;
  double seconds = 10.0;
  bool trace = false;
  perfbench::Scale scale = perfbench::Scale::kFull;
  bool corrupt = false;
  std::string trace_out;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "qoslb_perfbench: " << why
            << "\nusage: qoslb_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale full|tiny] [--trace-out FILE] "
               "[--git-sha SHA] [--source-digest HEX] [--corrupt]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--corrupt") {
      args.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") args.workload = value;
      else if (key == "--seed") args.seed = std::stoull(value);
      else if (key == "--seconds") args.seconds = std::stod(value);
      else if (key == "--trace") args.trace = std::stoi(value) != 0;
      else if (key == "--trace-out") args.trace_out = value;
      else if (key == "--git-sha") args.git_sha = value;
      else if (key == "--source-digest") args.source_digest = value;
      else if (key == "--scale") {
        if (value != "full" && value != "tiny") usage("--scale is full or tiny");
        args.scale = value == "full" ? perfbench::Scale::kFull
                                     : perfbench::Scale::kTiny;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos) return line.substr(colon + 2);
  }
  return "unknown";
}

/// Everything needed to compare outputs across commits and hosts.
std::string provenance(const Args& args) {
#if defined(__AVX2__)
  const char* scan_path = "avx2";
#else
  const char* scan_path = "scalar";
#endif
  std::ostringstream out;
  out << "{\"git_sha\":" << json_string(args.git_sha)
      << ",\"source_digest\":" << json_string(args.source_digest)
      << ",\"build_type\":" << json_string(QOSLB_PERF_BUILD_TYPE)
      << ",\"compiler\":" << json_string(QOSLB_PERF_COMPILER)
      << ",\"flags\":" << json_string(QOSLB_PERF_FLAGS)
      << ",\"cpu_model\":" << json_string(cpu_model())
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"scan_path\":" << json_string(scan_path)
      << ",\"shard_size\":" << qoslb::EngineConfig{}.shard_size
      << ",\"threads\":1"
      << ",\"workload\":" << json_string(args.workload)
      << ",\"scale\":" << json_string(args.scale == perfbench::Scale::kFull ? "full" : "tiny")
      << ",\"seed\":" << args.seed << "}";
  return out.str();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Attempted/failed runs and why, across an invocation.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> why;

  void fail(const std::string& reason) {
    ++failed;
    why.push_back(reason);
  }
};

/// The checks that span passes: every pass ends on the same combined hash,
/// the same rounds and the same messages, and at the pinned seed that hash
/// is the pinned one.
void check_repeats(const std::vector<perfbench::PassResult>& passes,
                   const perfbench::Workload& workload, const Args& args,
                   Tally& tally) {
  for (const perfbench::PassResult& pass : passes) {
    if (pass.hash != passes.front().hash)
      tally.fail("final-assignment hash differs between repeats");
    if (pass.rounds != passes.front().rounds ||
        pass.messages != passes.front().messages)
      tally.fail("rounds or messages differ between repeats");
  }
  if (!passes.empty() && args.seed == perfbench::kPinnedSeed &&
      passes.front().hash != workload.pinned_hash(args.scale)) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "hash %016llx != pinned %016llx",
                  static_cast<unsigned long long>(passes.front().hash),
                  static_cast<unsigned long long>(workload.pinned_hash(args.scale)));
    tally.fail(std::string("final-assignment ") + buf + " at the pinned seed");
  }
}

void write_trace(const std::string& path, const std::string& stamp,
                 const std::vector<perfbench::TracedPass>& passes) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "qoslb_perfbench: cannot write " << path << "\n";
    return;
  }
  out << "{\"provenance\":" << stamp << "}\n";
  // Spans of the first instance of the first pass only: the others repeat
  // its structure and would make the file hundreds of megabytes. Counts of
  // every pass.
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const perfbench::Tracer& t = passes[p].tracer;
    std::size_t roots = 0;
    for (const perfbench::Tracer::Record& r : t.records()) {
      if (p > 0 || (r.parent < 0 && ++roots > 1)) break;
      out << "{\"pass\":0,\"span\":\"" << perfbench::span_name(r.kind)
          << "\",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
          << ",\"parent\":" << r.parent << "}\n";
    }
    for (const auto& [name, value] : t.counts())
      out << "{\"pass\":" << p << ",\"count\":\"" << name
          << "\",\"value\":" << json_number(value) << "}\n";
  }
}

/// Layer shares of the untraced run time, for the human-readable report.
/// The spans are traced times, so shares can add up to a little more than
/// 100% (trace.overhead_frac).
void print_shares(const perfbench::TracedPass& pass) {
  using perfbench::Span;
  const perfbench::Tracer& t = pass.tracer;
  const double run = pass.untraced.run_s;
  if (run <= 0.0) return;
  const double merge = pass.admission_commit ? t.total(Span::kMerge) : 0.0;
  const double resident_min =
      pass.admission_commit ? t.total(Span::kResidentMin) : 0.0;
  const std::vector<std::pair<const char*, double>> shares = {
      {"scan (prefilter)", t.total(Span::kScan)},
      {"keying (user_stream)", t.total(Span::kKeying)},
      {"decide self", t.total(Span::kStepUsers) - t.total(Span::kScan) -
                          t.total(Span::kKeying)},
      {"merge", merge},
      {"resident minima", resident_min},
      {"commit + index", t.total(Span::kCommitRound) - merge - resident_min},
      {"engine snapshot + sort",
       t.total(Span::kSnapshot) + t.total(Span::kActiveSort)},
      {"stability", t.total(Span::kStability)},
      {"seq steps", t.total(Span::kSeqStep)},
      {"weighted rounds", t.total(Span::kWeightedRound)},
      {"open system", t.total(Span::kOpenRun)},
  };
  std::cout << "where the time goes (share of untraced run_s " << run << " s):\n";
  for (const auto& [name, seconds] : shares) {
    if (seconds == 0.0) continue;
    char line[96];
    std::snprintf(line, sizeof line, "  %-26s %7.3f s  %6.1f%%\n", name, seconds,
                  100.0 * seconds / run);
    std::cout << line;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const auto workload = perfbench::make_workload(args.workload, args.scale);
  if (!workload) {
    std::string names;
    for (const std::string& n : perfbench::workload_names()) names += " " + n;
    usage("unknown workload '" + args.workload + "' (one of:" + names + ")");
  }
  const std::string stamp = provenance(args);
  std::cout << "provenance " << stamp << "\n";

  perfbench::RunOptions options;
  options.seed = args.seed;
  options.scale = args.scale;
  options.corrupt = args.corrupt;

  // Whole passes until the next one would overrun --seconds; at least one.
  const auto start = Clock::now();
  std::vector<perfbench::PassResult> passes;
  std::vector<perfbench::TracedPass> traced;
  Tally tally;
  double last_pass_s = 0.0;
  while (passes.empty() ||
         perfbench::seconds_between(start, Clock::now()) + last_pass_s <= args.seconds) {
    const auto pass_start = Clock::now();
    tally.attempted += workload->instances;
    try {
      if (args.trace) {
        traced.push_back(workload->traced_pass(options));
        passes.push_back(traced.back().untraced);
      } else {
        passes.push_back(workload->run_pass(options));
      }
    } catch (const std::exception& e) {
      tally.fail(std::string("run threw: ") + e.what());
      break;
    }
    for (const std::string& why : passes.back().failures) tally.fail(why);
    last_pass_s = perfbench::seconds_between(pass_start, Clock::now());
  }
  check_repeats(passes, *workload, args, tally);
  for (const perfbench::TracedPass& pass : traced) {
    char line[80];
    std::snprintf(line, sizeof line, "replay hash %016llx engine hash %016llx\n",
                  static_cast<unsigned long long>(pass.replay_hash),
                  static_cast<unsigned long long>(pass.untraced.hash));
    std::cout << line;
    if (pass.replay_hash != pass.untraced.hash)
      tally.fail("traced replay ended on another final-assignment hash");
    if (pass.replay_rounds != pass.untraced.rounds ||
        pass.replay_messages != pass.untraced.messages)
      tally.fail("traced replay counted other rounds or messages");
  }

  std::map<std::string, Metric> metrics;
  std::vector<double> setup, run;
  for (const perfbench::PassResult& pass : passes) {
    setup.push_back(pass.setup_s);
    run.push_back(pass.run_s);
  }
  const perfbench::PassResult first =
      passes.empty() ? perfbench::PassResult{} : passes.front();
  const double run_s = median(run);
  const double failed_frac =
      tally.attempted == 0 ? 1.0
                           : std::min(1.0, static_cast<double>(tally.failed) /
                                               static_cast<double>(tally.attempted));
  if (!args.trace) {
    metrics = {
        {"setup_s", {median(setup), "s"}},
        {"run_s", {run_s, "s"}},
        {"peak_rss_mb", {peak_rss_mb(), "MB"}},
        {"rounds", {static_cast<double>(first.rounds), "count"}},
        {"messages_per_user",
         {first.users > 0 ? static_cast<double>(first.messages) /
                                static_cast<double>(first.users)
                          : 0.0,
          "count"}},
        {"ok_frac", {1.0 - failed_frac, "ratio"}},
    };
  } else if (!traced.empty()) {
    // Median of each per-layer metric over the traced passes.
    std::map<std::string, std::vector<double>> values;
    for (const perfbench::TracedPass& pass : traced)
      for (const auto& [name, metric] : perfbench::layer_metrics(pass)) {
        values[name].push_back(metric.value);
        metrics[name] = metric;
      }
    for (auto& [name, metric] : metrics) metric.value = median(values[name]);
    print_shares(traced.front());
    if (!args.trace_out.empty()) write_trace(args.trace_out, stamp, traced);
  }

  std::cout << "workload " << workload->name << " seed " << args.seed
            << " passes " << passes.size() << " instances/pass "
            << workload->instances << " trace " << (args.trace ? 1 : 0) << "\n";
  for (std::size_t p = 0; p < passes.size(); ++p)
    std::cout << "pass " << p << " setup_s " << passes[p].setup_s << " run_s "
              << passes[p].run_s << "\n";
  for (const std::string& why : tally.why) std::cout << "FAILED: " << why << "\n";
  // Printed, not reported: per seed it is run_s times a constant, but that
  // constant is the seed's round count, so across seeds it spreads wider than
  // run_s (perfbench/README.md).
  if (!args.trace)
    std::cout << "user_rounds_per_s "
              << json_number(run_s > 0.0 ? first.user_rounds / run_s : 0.0)
              << " 1/s\n";
  std::cout << "failed_frac " << failed_frac << " ratio\n";
  for (const auto& [name, metric] : metrics)
    std::cout << name << " " << json_number(metric.value) << " " << metric.unit << "\n";

  const bool correct = tally.failed == 0 && !passes.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  bool comma = false;
  for (const auto& [name, metric] : metrics) {
    std::cout << (comma ? ", " : "") << json_string(name) << ": {\"value\": "
              << json_number(metric.value) << ", \"unit\": "
              << json_string(metric.unit) << "}";
    comma = true;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
