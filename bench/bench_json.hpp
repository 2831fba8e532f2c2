#pragma once

// Minimal machine-readable bench output (BENCH_*.json): a bench name plus a
// flat array of row objects, written next to the human-readable table so CI
// and plotting scripts can track throughput without parsing stdout. No
// external JSON dependency — fields are emitted in insertion order, values
// are limited to the types benches actually produce, and strings and
// doubles go through util/json's encoders like every other artifact.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace qoslb::bench {

/// One flat JSON object, built field by field.
class JsonRow {
 public:
  JsonRow& field(const std::string& key, const std::string& value) {
    return raw(key, '"' + json::escape(value) + '"');
  }
  JsonRow& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  JsonRow& field(const std::string& key, double value) {
    return raw(key, json::number(value));
  }
  JsonRow& field(const std::string& key, unsigned long long value) {
    return raw(key, std::to_string(value));
  }
  JsonRow& field(const std::string& key, long long value) {
    return raw(key, std::to_string(value));
  }
  JsonRow& field(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }

  std::string to_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ", ";
      out += '"' + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  JsonRow& raw(const std::string& key, std::string value) {
    fields_.emplace_back(key, std::move(value));
    return *this;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Telemetry-aware timing triple. `wall` is what the stopwatch saw around
/// the run; `sink` is the time the run spent inside trace/metrics sinks
/// (obs::RunTelemetry::sink_seconds(), zero when no sink was attached);
/// `sim` = wall - sink is the simulation cost alone. Benches that can attach
/// sinks must emit the triple instead of a bare seconds field so BENCH_*.json
/// rows stay comparable whether telemetry was on or off.
inline JsonRow& timing_fields(JsonRow& row, const std::string& prefix,
                              double wall_seconds, double sink_seconds) {
  return row.field(prefix + "wall_seconds", wall_seconds)
      .field(prefix + "sink_seconds", sink_seconds)
      .field(prefix + "sim_seconds", wall_seconds - sink_seconds);
}

/// Collects rows and writes `{"bench": ..., "rows": [...]}` to a file.
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  JsonRow& add_row() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Writes the file; a failure warns on stderr but never fails the bench
  /// (the human-readable table already went to stdout).
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "warning: cannot write " << path << '\n';
      return;
    }
    out << "{\n  \"bench\": \"" << bench_ << "\",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i)
      out << "    " << rows_[i].to_json() << (i + 1 < rows_.size() ? ",\n" : "\n");
    out << "  ]\n}\n";
  }

 private:
  std::string bench_;
  std::vector<JsonRow> rows_;
};

}  // namespace qoslb::bench
