#include "obs/trace_sink.hpp"

#include <ostream>

#include "util/check.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace qoslb::obs {

// ---- MemoryTraceSink ----

void MemoryTraceSink::begin_run(const TraceRunInfo& info) {
  runs_.push_back(info);
}

void MemoryTraceSink::row(const TraceRow& row) { rows_.push_back(row); }

void MemoryTraceSink::clear() {
  runs_.clear();
  rows_.clear();
}

// ---- JsonlTraceSink ----

void JsonlTraceSink::begin_run(const TraceRunInfo& info) {
  *out_ << "{\"event\":\"begin\",\"protocol\":\"" << json::escape(info.protocol)
        << "\",\"users\":" << info.users
        << ",\"resources\":" << info.resources << ",\"seed\":" << info.seed
        << ",\"threads\":" << info.threads << ",\"mode\":\""
        << json::escape(info.mode) << "\"}\n";
}

void JsonlTraceSink::row(const TraceRow& row) {
  *out_ << "{\"round\":" << row.round << ",\"unsatisfied\":" << row.unsatisfied
        << ",\"migrations\":" << row.migrations
        << ",\"messages\":" << row.messages << ",\"max_load\":" << row.max_load
        << ",\"potential\":" << json::number(row.potential)
        << ",\"active_size\":" << row.active_size << "}\n";
}

void JsonlTraceSink::end_run() {
  *out_ << "{\"event\":\"end\"}\n";
  out_->flush();
}

// ---- CsvTraceSink ----

void CsvTraceSink::begin_run(const TraceRunInfo& info) {
  (void)info;
  if (header_written_) return;
  header_written_ = true;
  *out_ << "round,unsatisfied,migrations,messages,max_load,potential,"
           "active_size\n";
}

void CsvTraceSink::row(const TraceRow& row) {
  *out_ << row.round << ',' << row.unsatisfied << ',' << row.migrations << ','
        << row.messages << ',' << row.max_load << ','
        << json::number(row.potential)
        << ',' << row.active_size << '\n';
}

void CsvTraceSink::end_run() { out_->flush(); }

// ---- TeeTraceSink ----

void TeeTraceSink::begin_run(const TraceRunInfo& info) {
  for (TraceSink* sink : sinks_)
    if (sink != nullptr) sink->begin_run(info);
}

void TeeTraceSink::row(const TraceRow& row) {
  for (TraceSink* sink : sinks_)
    if (sink != nullptr) sink->row(row);
}

void TeeTraceSink::end_run() {
  for (TraceSink* sink : sinks_)
    if (sink != nullptr) sink->end_run();
}

// ---- ProgressTraceSink ----

ProgressTraceSink::ProgressTraceSink(std::uint64_t every) : every_(every) {
  QOSLB_REQUIRE(every_ >= 1, "progress interval must be positive");
}

void ProgressTraceSink::begin_run(const TraceRunInfo& info) {
  label_ = info.protocol;
  last_ = TraceRow{};
  last_logged_ = true;
  QOSLB_INFO << label_ << ": n=" << info.users << " m=" << info.resources
             << " threads=" << info.threads << " mode=" << info.mode;
}

void ProgressTraceSink::row(const TraceRow& row) {
  last_ = row;
  last_logged_ = row.round % every_ == 0;
  if (last_logged_) log_row(row);
}

void ProgressTraceSink::end_run() {
  // Always show the terminal state even when the run length is not a
  // multiple of the reporting interval.
  if (!last_logged_) log_row(last_);
}

void ProgressTraceSink::log_row(const TraceRow& row) const {
  QOSLB_INFO << label_ << ": round " << row.round << " unsatisfied "
             << row.unsatisfied << " migrations " << row.migrations
             << " max_load " << row.max_load;
}

}  // namespace qoslb::obs
