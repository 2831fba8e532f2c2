#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace_sink.hpp"

namespace qoslb::obs {

/// Sentinel for "no resource" in decision events (kNoResource narrowed to a
/// signed JSON-friendly value; the engine maps core ids to these fields).
inline constexpr std::int64_t kNoDecisionTarget = -1;

/// One sampled per-user decision from a synchronous round, fully resolved:
/// the engine fills the pre-commit half from the protocol's shard scratch
/// (docs/observability.md "Decision events") and the post-commit half from
/// the committed state, so `granted`/`to` reflect admission outcomes.
struct DecisionEvent {
  std::uint64_t round = 0;
  std::uint64_t user = 0;
  std::int64_t from = kNoDecisionTarget;    // resource at the round boundary
  std::int64_t probe = kNoDecisionTarget;   // best candidate probed, if any
  std::int64_t target = kNoDecisionTarget;  // requested target, if any
  std::int64_t to = kNoDecisionTarget;      // resource after commit
  std::int64_t threshold = 0;  // threshold(user, probe) when a probe landed
  bool requested = false;      // a migration request was filed
  bool granted = false;        // the commit moved the user (to != from)
  bool satisfied_before = false;
  bool satisfied_after = false;
};

/// One message-span event from the asynchronous/DES path. A span is one
/// logical operation attempt chain (probe, migration request, leave): every
/// send/retry/timeout/ack of the same in-flight operation carries the same
/// span id, so a reader can reconstruct per-operation latency and retry
/// fan-out (docs/observability.md "Span events").
struct SpanEvent {
  std::uint64_t span = 0;  // (agent id << 20) | per-agent operation sequence
  std::uint64_t user = 0;
  std::string op;    // "send" | "retry" | "timeout" | "ack"
  std::string msg;   // probe|request|leave|grant|reject|load_reply|leave_ack
  std::int64_t target = kNoDecisionTarget;  // peer resource, if addressed
  std::uint64_t seq = 0;                    // attempt number within the span
  double time = 0.0;                        // DES virtual time
};

/// Per-round convergence diagnostics derived from the committed round
/// (merged from per-shard scratch in shard order, so the series is
/// thread/mode/layout-invariant).
struct DiagRow {
  std::uint64_t round = 0;
  std::uint64_t migrations = 0;         // granted moves this round
  std::uint64_t inflow_max = 0;         // max in-migrations into one resource
  std::int64_t inflow_argmax = kNoDecisionTarget;
  std::uint64_t outflow_at_argmax = 0;  // that resource's drain this round
  double herding_ratio = 0.0;           // inflow_max / max(1, outflow)
  double l_inf = 0.0;  // max normalized-load deviation from the live mean
  double l2 = 0.0;     // rms normalized-load deviation
};

/// A detector hit. `detector` currently is always "herding": a round where
/// in-migrations into one resource exceeded herding_factor times its drain.
struct DecisionFinding {
  std::string detector;
  std::uint64_t round = 0;
  std::int64_t resource = kNoDecisionTarget;
  std::uint64_t inflow = 0;
  std::uint64_t outflow = 0;
  double ratio = 0.0;
};

/// Where decision/span/diagnostic events go. Like TraceSink, the engine is
/// the only producer and calls from the driving thread strictly outside the
/// decide/commit hot path (the DES loop is single-threaded), so
/// implementations need no synchronization and must not observe or mutate
/// simulation state — the hash-invariance contract covers any sink.
class DecisionSink {
 public:
  virtual ~DecisionSink() = default;

  virtual void begin_run(const TraceRunInfo& info, std::uint64_t sample_every) {
    (void)info;
    (void)sample_every;
  }
  virtual void decision(const DecisionEvent& event) = 0;
  virtual void span(const SpanEvent& event) { (void)event; }
  virtual void diag(const DiagRow& row) { (void)row; }
  virtual void finding(const DecisionFinding& finding) { (void)finding; }
  virtual void end_run() {}
};

/// Buffers everything in memory — tests and in-process consumers.
class MemoryDecisionSink final : public DecisionSink {
 public:
  void begin_run(const TraceRunInfo& info, std::uint64_t sample_every) override;
  void decision(const DecisionEvent& event) override;
  void span(const SpanEvent& event) override;
  void diag(const DiagRow& row) override;
  void finding(const DecisionFinding& finding) override;

  const std::vector<TraceRunInfo>& runs() const { return runs_; }
  const std::vector<DecisionEvent>& decisions() const { return decisions_; }
  const std::vector<SpanEvent>& spans() const { return spans_; }
  const std::vector<DiagRow>& diags() const { return diags_; }
  const std::vector<DecisionFinding>& findings() const { return findings_; }
  void clear();

 private:
  std::vector<TraceRunInfo> runs_;
  std::vector<DecisionEvent> decisions_;
  std::vector<SpanEvent> spans_;
  std::vector<DiagRow> diags_;
  std::vector<DecisionFinding> findings_;
};

/// One kind-tagged JSON object per line (keys declared in obs/schema.hpp,
/// golden-tested in tests/obs_trace_test.cpp, catalogued in
/// docs/observability.md):
///   {"kind":"begin","protocol":...,...,"sample_every":k}
///   {"kind":"decision","round":...,"user":...,...}
///   {"kind":"span","span":...,"op":...,...}
///   {"kind":"diag","round":...,"inflow_max":...,...}
///   {"kind":"finding","detector":"herding",...}
///   {"kind":"end","decisions":...,"spans":...,"findings":...}
class JsonlDecisionSink final : public DecisionSink {
 public:
  /// The stream is borrowed and must outlive the sink.
  explicit JsonlDecisionSink(std::ostream& out) : out_(&out) {}

  void begin_run(const TraceRunInfo& info, std::uint64_t sample_every) override;
  void decision(const DecisionEvent& event) override;
  void span(const SpanEvent& event) override;
  void diag(const DiagRow& row) override;
  void finding(const DecisionFinding& finding) override;
  void end_run() override;

 private:
  std::ostream* out_;
  std::uint64_t decisions_ = 0;
  std::uint64_t spans_ = 0;
  std::uint64_t findings_ = 0;
};

}  // namespace qoslb::obs
