#pragma once

#include <array>
#include <cstdint>

#include "obs/phase_timer.hpp"

namespace qoslb::obs {

/// One reading of the four tracked hardware counters. All zero when the
/// counters are unavailable.
struct PerfSample {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
};

/// One per-phase perf gauge: `perf/<phase>_<suffix>` reads `member`.
struct PerfField {
  const char* suffix;
  std::uint64_t PerfSample::*member;
};

/// Every PerfSample counter, in gauge registration order. The metric names
/// come from this table, not from a run, because the counters read zero
/// (and register nothing) wherever perf_event_open is denied.
inline constexpr PerfField kPerfFields[] = {
    {"cycles", &PerfSample::cycles},
    {"instructions", &PerfSample::instructions},
    {"cache_misses", &PerfSample::cache_misses},
    {"branch_misses", &PerfSample::branch_misses},
};

/// Thin `perf_event_open` wrapper: opens cycles / instructions /
/// cache-misses / branch-misses counters for the *calling thread* and reads
/// them on demand. Where the syscall is unavailable or forbidden (non-Linux,
/// containers and CI runners with perf_event_paranoid locked down, seccomp),
/// construction logs ONE warning naming the reason and every read() returns
/// zeros — runs degrade loudly but never fail (docs/observability.md
/// "Perf-counter availability").
///
/// The counters are per-thread (no inherit): attributions taken on the
/// engine's driving thread do not include the sharded decide fan-out that
/// runs on pool workers. The phase that measures end-to-end work on the
/// driving thread is still meaningful at any thread count; the availability
/// matrix in the docs spells out the caveat.
class PerfCounters {
 public:
  PerfCounters();
  ~PerfCounters();
  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  bool available() const { return available_; }

  /// Current counter values (monotonic totals since construction). Zeros
  /// when unavailable.
  PerfSample read() const;

 private:
  std::array<int, 4> fds_{{-1, -1, -1, -1}};
  bool available_ = false;
};

/// Per-phase hardware-counter totals, attributed on the driving thread with
/// the same before/after subtraction the phase clock uses. Mirrors
/// PhaseTimers; lives on RunTelemetry.
struct PhasePerf {
  std::array<PerfSample, kNumPhases> totals{};

  PerfSample& operator[](Phase phase) {
    return totals[static_cast<std::size_t>(phase)];
  }
  const PerfSample& operator[](Phase phase) const {
    return totals[static_cast<std::size_t>(phase)];
  }

  /// Adds the (after - before) delta into `phase`, saturating at zero per
  /// counter (counter multiplexing can make raw reads non-monotonic).
  void add(Phase phase, const PerfSample& before, const PerfSample& after);
};

}  // namespace qoslb::obs
