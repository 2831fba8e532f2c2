#include "obs/decision_sink.hpp"

#include <ostream>

#include "util/json.hpp"

namespace qoslb::obs {
namespace {

const char* flag(bool value) { return value ? "true" : "false"; }

}  // namespace

// ---- MemoryDecisionSink ----

void MemoryDecisionSink::begin_run(const TraceRunInfo& info,
                                   std::uint64_t sample_every) {
  (void)sample_every;
  runs_.push_back(info);
}

void MemoryDecisionSink::decision(const DecisionEvent& event) {
  decisions_.push_back(event);
}

void MemoryDecisionSink::span(const SpanEvent& event) {
  spans_.push_back(event);
}

void MemoryDecisionSink::diag(const DiagRow& row) { diags_.push_back(row); }

void MemoryDecisionSink::finding(const DecisionFinding& finding) {
  findings_.push_back(finding);
}

void MemoryDecisionSink::clear() {
  runs_.clear();
  decisions_.clear();
  spans_.clear();
  diags_.clear();
  findings_.clear();
}

// ---- JsonlDecisionSink ----

void JsonlDecisionSink::begin_run(const TraceRunInfo& info,
                                  std::uint64_t sample_every) {
  decisions_ = spans_ = findings_ = 0;
  *out_ << "{\"kind\":\"begin\",\"protocol\":\""
        << json::escape(info.protocol) << "\",\"users\":" << info.users
        << ",\"resources\":" << info.resources << ",\"seed\":" << info.seed
        << ",\"threads\":" << info.threads << ",\"mode\":\""
        << json::escape(info.mode) << "\",\"sample_every\":" << sample_every
        << "}\n";
}

void JsonlDecisionSink::decision(const DecisionEvent& event) {
  ++decisions_;
  *out_ << "{\"kind\":\"decision\",\"round\":" << event.round
        << ",\"user\":" << event.user << ",\"from\":" << event.from
        << ",\"probe\":" << event.probe << ",\"target\":" << event.target
        << ",\"to\":" << event.to << ",\"threshold\":" << event.threshold
        << ",\"requested\":" << flag(event.requested)
        << ",\"granted\":" << flag(event.granted)
        << ",\"satisfied_before\":" << flag(event.satisfied_before)
        << ",\"satisfied_after\":" << flag(event.satisfied_after) << "}\n";
}

void JsonlDecisionSink::span(const SpanEvent& event) {
  ++spans_;
  *out_ << "{\"kind\":\"span\",\"span\":" << event.span
        << ",\"user\":" << event.user << ",\"op\":\""
        << json::escape(event.op) << "\",\"msg\":\"" << json::escape(event.msg)
        << "\",\"target\":" << event.target << ",\"seq\":" << event.seq
        << ",\"time\":" << json::number(event.time) << "}\n";
}

void JsonlDecisionSink::diag(const DiagRow& row) {
  *out_ << "{\"kind\":\"diag\",\"round\":" << row.round
        << ",\"migrations\":" << row.migrations
        << ",\"inflow_max\":" << row.inflow_max
        << ",\"inflow_argmax\":" << row.inflow_argmax
        << ",\"outflow_at_argmax\":" << row.outflow_at_argmax
        << ",\"herding_ratio\":" << json::number(row.herding_ratio)
        << ",\"l_inf\":" << json::number(row.l_inf)
        << ",\"l2\":" << json::number(row.l2) << "}\n";
}

void JsonlDecisionSink::finding(const DecisionFinding& finding) {
  ++findings_;
  *out_ << "{\"kind\":\"finding\",\"detector\":\""
        << json::escape(finding.detector) << "\",\"round\":" << finding.round
        << ",\"resource\":" << finding.resource
        << ",\"inflow\":" << finding.inflow
        << ",\"outflow\":" << finding.outflow
        << ",\"ratio\":" << json::number(finding.ratio) << "}\n";
}

void JsonlDecisionSink::end_run() {
  *out_ << "{\"kind\":\"end\",\"decisions\":" << decisions_
        << ",\"spans\":" << spans_ << ",\"findings\":" << findings_ << "}\n";
  out_->flush();
}

}  // namespace qoslb::obs
