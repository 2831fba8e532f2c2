#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "stats/histogram.hpp"

namespace qoslb::obs {

/// Handles are plain indices into the registry's typed arrays: registering
/// (a name lookup) happens once per run, every subsequent add/set/observe is
/// an O(1) array write with no hashing and no locks. A default-constructed
/// handle is invalid and every operation on it is a no-op, so call sites
/// need no "is telemetry on?" branches.
struct CounterHandle {
  std::uint32_t index = UINT32_MAX;
  bool valid() const { return index != UINT32_MAX; }
};
struct GaugeHandle {
  std::uint32_t index = UINT32_MAX;
  bool valid() const { return index != UINT32_MAX; }
};
struct HistogramHandle {
  std::uint32_t index = UINT32_MAX;
  bool valid() const { return index != UINT32_MAX; }
};

/// Named counters, gauges, and histograms for one run (or one shard — see
/// merge()). Not thread-safe by design: the engine only writes metrics from
/// the driving thread, and parallel producers each fill a private registry
/// that is merged afterwards in a deterministic order, which is how
/// telemetry stays off the simulation path (docs/observability.md).
class MetricsRegistry {
 public:
  /// Get-or-register by name. Registration order is preserved and is the
  /// JSONL emission order, so output files diff cleanly across runs.
  CounterHandle counter(const std::string& name);
  GaugeHandle gauge(const std::string& name);
  HistogramHandle histogram(const std::string& name, double lo, double hi,
                            std::size_t buckets);

  void add(CounterHandle handle, std::uint64_t delta = 1);
  void set(GaugeHandle handle, double value);
  void observe(HistogramHandle handle, double sample);

  std::uint64_t counter_value(CounterHandle handle) const;
  double gauge_value(GaugeHandle handle) const;
  const Histogram& histogram_data(HistogramHandle handle) const;

  /// Lookup without registering; invalid handle when absent.
  CounterHandle find_counter(const std::string& name) const;
  GaugeHandle find_gauge(const std::string& name) const;
  HistogramHandle find_histogram(const std::string& name) const;

  /// Folds `other` into this registry: counters add, set gauges overwrite,
  /// histograms merge bucket-wise (identical binning required). Metrics new
  /// to `other` are appended in its registration order, so merging shard
  /// registries in shard order yields one deterministic result — the
  /// metrics analogue of the engine's shard-ordered Counters merge.
  void merge(const MetricsRegistry& other);

  /// One JSON object per line, in registration order (keys declared in
  /// obs/schema.hpp):
  ///   {"metric":"engine/rounds","type":"counter","value":12}
  ///   {"metric":"state/potential","type":"gauge","value":42.5}
  ///   {"metric":"...","type":"histogram","total":...,"underflow":...,
  ///    "overflow":...,"buckets":[{"lo":...,"hi":...,"count":...},...]}
  /// Histogram bucket entries with count 0 are omitted.
  void write_jsonl(std::ostream& out) const;

  std::size_t size() const { return order_.size(); }
  bool empty() const { return order_.empty(); }

 private:
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0.0;
    bool written = false;
  };
  struct HistogramEntry {
    std::string name;
    Histogram data;
  };
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Slot {
    Kind kind;
    std::uint32_t index;
  };

  std::vector<CounterEntry> counters_;
  std::vector<GaugeEntry> gauges_;
  std::vector<HistogramEntry> histograms_;
  std::vector<Slot> order_;  // registration order across all kinds
};

}  // namespace qoslb::obs
