#pragma once

// The repository benchmark: four single-thread workloads driven through the
// public API (generators, State, Engine::run), an output check on every run,
// and a traced replay that attributes each workload's time to the library's
// layers. See perfbench/README.md for why each workload exists and which
// layer metric should move which end-to-end metric.

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Full size is what the benchmark measures; tiny runs every code path in
/// well under a second per workload, for the self-test.
enum class Scale { kFull, kTiny };

struct RunOptions {
  std::uint64_t seed = 1;
  Scale scale = Scale::kFull;
  /// Breaks every final state before the output check (self-test only), so
  /// the check is shown to catch a wrong result.
  bool corrupt = false;
};

/// One untraced pass: every instance of the workload set up, run and
/// checked once. Times are sums over the pass's instances.
struct PassResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t rounds = 0;      // rounds (sequential: steps), summed
  std::uint64_t messages = 0;    // Counters::messages(), summed
  std::uint64_t users = 0;       // users over all instances
  double user_rounds = 0.0;      // Σ num_users × rounds
  std::uint64_t hash = 0;        // combined final-assignment hash
  std::vector<std::string> failures;
};

/// The spans the traced replay records. Duplicates are measurements the
/// replay makes on its own, next to a call that repeats the same work
/// inside (step_users re-runs the prefilter and keying, an admission commit
/// re-merges and recomputes resident minima): they give a layer's cost but
/// are left out of the round's accounted time.
enum class Span : std::uint8_t {
  kInstance,
  kGenerate,
  kStateBuild,
  kIndexBuild,
  kRound,
  kActiveSort,
  kSnapshot,
  kDecide,
  kScan,         // duplicate
  kKeying,       // duplicate
  kStepUsers,
  kCommit,
  kMerge,        // duplicate
  kResidentMin,  // duplicate
  kCommitRound,
  kShadowMoves,  // duplicate
  kStability,
  kSeqStep,
  kWeightedRound,
  kOpenRun,
  kCount
};

inline constexpr std::size_t kNumSpans = static_cast<std::size_t>(Span::kCount);

const char* span_name(Span span);

/// In-memory span and count recorder. Spans nest through an open-span
/// stack, so each records the span that caused it; nothing is written until
/// the benchmark ends.
class Tracer {
 public:
  struct Record {
    Span kind;
    std::int32_t parent;  // index into records(), -1 for a root
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  Tracer();

  std::int32_t begin(Span kind);
  /// Closes span `id` and returns its duration in seconds.
  double end(std::int32_t id);

  void count(const std::string& name, double value) { counts_[name] += value; }
  double counted(const std::string& name) const;
  double total(Span kind) const { return totals_[static_cast<std::size_t>(kind)]; }

  const std::vector<Record>& records() const { return records_; }
  const std::map<std::string, double>& counts() const { return counts_; }

 private:
  Clock::time_point epoch_;
  std::vector<Record> records_;
  std::vector<std::int32_t> open_;
  std::array<double, kNumSpans> totals_{};
  std::map<std::string, double> counts_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer& tracer, Span kind) : tracer_(&tracer), id_(tracer.begin(kind)) {}
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  ~Scoped() {
    if (id_ >= 0) tracer_->end(id_);
  }
  /// Ends the span early and returns its duration in seconds.
  double close() {
    const double s = tracer_->end(id_);
    id_ = -1;
    return s;
  }

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// One traced pass: the untraced pass it is compared against, the replay's
/// spans and counts, and the replay's own wall time and final hash.
struct TracedPass {
  PassResult untraced;
  Tracer tracer;
  double replay_s = 0.0;          // traced wall time of the round loops
  std::uint64_t replay_hash = 0;  // combined final-assignment hash
  std::uint64_t replay_rounds = 0;
  std::uint64_t replay_messages = 0;
  std::vector<double> round_us;   // per-round time net of duplicate spans
  /// commit_round itself merges and computes resident minima (admission).
  bool admission_commit = false;
};

/// One of the four workloads: `instances` independent instances per pass,
/// instance i seeded from (seed, i).
struct Workload {
  std::string name;
  std::size_t instances = 1;
  std::function<PassResult(const RunOptions&)> run_pass;
  /// The pass untraced, then replayed with spans.
  std::function<TracedPass(const RunOptions&)> traced_pass;
  /// Combined final-assignment hash at kPinnedSeed, at full and tiny scale.
  std::array<std::uint64_t, 2> pinned{};

  std::uint64_t pinned_hash(Scale scale) const {
    return pinned[scale == Scale::kFull ? 0 : 1];
  }
};

inline constexpr std::uint64_t kPinnedSeed = 1;

/// The workload named `name`, if there is one.
std::optional<Workload> make_workload(std::string_view name, Scale scale);
std::vector<std::string> workload_names();

/// Per-layer metrics of one traced pass, by name, with units.
struct Metric {
  double value;
  const char* unit;
};
std::map<std::string, Metric> layer_metrics(const TracedPass& pass);

}  // namespace perfbench
