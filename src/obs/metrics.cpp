#include "obs/metrics.hpp"

#include <ostream>

#include "util/check.hpp"
#include "util/json.hpp"

namespace qoslb::obs {

CounterHandle MetricsRegistry::counter(const std::string& name) {
  const CounterHandle existing = find_counter(name);
  if (existing.valid()) return existing;
  counters_.push_back(CounterEntry{name, 0});
  const auto index = static_cast<std::uint32_t>(counters_.size() - 1);
  order_.push_back(Slot{Kind::kCounter, index});
  return CounterHandle{index};
}

GaugeHandle MetricsRegistry::gauge(const std::string& name) {
  const GaugeHandle existing = find_gauge(name);
  if (existing.valid()) return existing;
  gauges_.push_back(GaugeEntry{name, 0.0, false});
  const auto index = static_cast<std::uint32_t>(gauges_.size() - 1);
  order_.push_back(Slot{Kind::kGauge, index});
  return GaugeHandle{index};
}

HistogramHandle MetricsRegistry::histogram(const std::string& name, double lo,
                                           double hi, std::size_t buckets) {
  const HistogramHandle existing = find_histogram(name);
  if (existing.valid()) return existing;
  histograms_.push_back(HistogramEntry{name, Histogram(lo, hi, buckets)});
  const auto index = static_cast<std::uint32_t>(histograms_.size() - 1);
  order_.push_back(Slot{Kind::kHistogram, index});
  return HistogramHandle{index};
}

void MetricsRegistry::add(CounterHandle handle, std::uint64_t delta) {
  if (handle.valid()) counters_[handle.index].value += delta;
}

void MetricsRegistry::set(GaugeHandle handle, double value) {
  if (!handle.valid()) return;
  gauges_[handle.index].value = value;
  gauges_[handle.index].written = true;
}

void MetricsRegistry::observe(HistogramHandle handle, double sample) {
  if (handle.valid()) histograms_[handle.index].data.add(sample);
}

std::uint64_t MetricsRegistry::counter_value(CounterHandle handle) const {
  QOSLB_REQUIRE(handle.valid() && handle.index < counters_.size(),
                "invalid counter handle");
  return counters_[handle.index].value;
}

double MetricsRegistry::gauge_value(GaugeHandle handle) const {
  QOSLB_REQUIRE(handle.valid() && handle.index < gauges_.size(),
                "invalid gauge handle");
  return gauges_[handle.index].value;
}

const Histogram& MetricsRegistry::histogram_data(HistogramHandle handle) const {
  QOSLB_REQUIRE(handle.valid() && handle.index < histograms_.size(),
                "invalid histogram handle");
  return histograms_[handle.index].data;
}

CounterHandle MetricsRegistry::find_counter(const std::string& name) const {
  for (std::size_t i = 0; i < counters_.size(); ++i)
    if (counters_[i].name == name)
      return CounterHandle{static_cast<std::uint32_t>(i)};
  return CounterHandle{};
}

GaugeHandle MetricsRegistry::find_gauge(const std::string& name) const {
  for (std::size_t i = 0; i < gauges_.size(); ++i)
    if (gauges_[i].name == name)
      return GaugeHandle{static_cast<std::uint32_t>(i)};
  return GaugeHandle{};
}

HistogramHandle MetricsRegistry::find_histogram(const std::string& name) const {
  for (std::size_t i = 0; i < histograms_.size(); ++i)
    if (histograms_[i].name == name)
      return HistogramHandle{static_cast<std::uint32_t>(i)};
  return HistogramHandle{};
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  // Walk the other registry in its registration order so metrics that are
  // new to us append in a deterministic order too.
  for (const Slot& slot : other.order_) {
    switch (slot.kind) {
      case Kind::kCounter: {
        const CounterEntry& entry = other.counters_[slot.index];
        add(counter(entry.name), entry.value);
        break;
      }
      case Kind::kGauge: {
        const GaugeEntry& entry = other.gauges_[slot.index];
        if (entry.written) set(gauge(entry.name), entry.value);
        else gauge(entry.name);
        break;
      }
      case Kind::kHistogram: {
        const HistogramEntry& entry = other.histograms_[slot.index];
        const HistogramHandle mine = find_histogram(entry.name);
        if (mine.valid()) {
          histograms_[mine.index].data.merge(entry.data);
        } else {
          histograms_.push_back(entry);
          order_.push_back(Slot{
              Kind::kHistogram,
              static_cast<std::uint32_t>(histograms_.size() - 1)});
        }
        break;
      }
    }
  }
}

void MetricsRegistry::write_jsonl(std::ostream& out) const {
  for (const Slot& slot : order_) {
    switch (slot.kind) {
      case Kind::kCounter: {
        const CounterEntry& entry = counters_[slot.index];
        out << "{\"metric\":\"" << json::escape(entry.name)
            << "\",\"type\":\"counter\",\"value\":" << entry.value << "}\n";
        break;
      }
      case Kind::kGauge: {
        const GaugeEntry& entry = gauges_[slot.index];
        out << "{\"metric\":\"" << json::escape(entry.name)
            << "\",\"type\":\"gauge\",\"value\":"
            << json::number(entry.value) << "}\n";
        break;
      }
      case Kind::kHistogram: {
        const HistogramEntry& entry = histograms_[slot.index];
        const Histogram& h = entry.data;
        out << "{\"metric\":\"" << json::escape(entry.name)
            << "\",\"type\":\"histogram\",\"total\":" << h.total()
            << ",\"underflow\":" << h.underflow()
            << ",\"overflow\":" << h.overflow() << ",\"buckets\":[";
        bool first = true;
        for (std::size_t b = 0; b < h.bucket_count(); ++b) {
          if (h.count(b) == 0) continue;
          if (!first) out << ',';
          first = false;
          out << "{\"lo\":" << json::number(h.bucket_lo(b))
              << ",\"hi\":" << json::number(h.bucket_hi(b))
              << ",\"count\":" << h.count(b) << '}';
        }
        out << "]}\n";
        break;
      }
    }
  }
}

}  // namespace qoslb::obs
