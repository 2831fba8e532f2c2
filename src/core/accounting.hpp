#pragma once

#include <cstdint>

namespace qoslb {

/// Message/operation counters shared by both engines and all protocols.
/// "Messages" follow the distributed-computing cost model: one probe is a
/// round trip (PROBE + LOAD reply), a migration is a MIGRATE message, and the
/// admission-controlled protocols additionally exchange REQUEST/GRANT/REJECT.
struct Counters {
  std::uint64_t probes = 0;
  std::uint64_t migrate_requests = 0;
  std::uint64_t grants = 0;
  std::uint64_t rejects = 0;
  std::uint64_t migrations = 0;
  std::uint64_t rounds = 0;
  std::uint64_t events = 0;

  // Loss-tolerance accounting (asynchronous protocols under fault
  // injection; all zero in fault-free runs).
  std::uint64_t timeouts = 0;     // operations whose reply never arrived in time
  std::uint64_t retries = 0;      // re-sent probes/requests/leaves
  std::uint64_t stale_drops = 0;  // received messages ignored as stale/duplicate

  /// Total messages under the round-trip cost model. Retries are already
  /// counted by their operation counters; LEAVE acks ride on migrations.
  std::uint64_t messages() const {
    return 2 * probes + migrate_requests + grants + rejects + migrations;
  }

  /// The counters' one (keyword, member) list, in checkpoint order. Calls
  /// `f(keyword, c.member...)` once per counter, over any number of Counters
  /// at once. The checkpoint codec, operator+= and the kill/restore diffs
  /// all walk it, so a counter listed here is summed, saved, restored and
  /// compared everywhere (lint rule QL014 flags a member left out).
  template <class F, class... C>
  static void for_each_field(F&& f, C&... c) {
    f("probes", c.probes...);
    f("migrate_requests", c.migrate_requests...);
    f("grants", c.grants...);
    f("rejects", c.rejects...);
    f("migrations", c.migrations...);
    f("rounds", c.rounds...);
    f("events", c.events...);
    f("timeouts", c.timeouts...);
    f("retries", c.retries...);
    f("stale_drops", c.stale_drops...);
  }

  Counters& operator+=(const Counters& other) {
    // Summed in a local, which the compiler can prove does not alias
    // `other`, so the engine's per-round shard merge keeps the vectorized
    // adds of a member-by-member sum; summing through `*this` loses them.
    Counters sum = *this;
    for_each_field([](const char*, std::uint64_t& total,
                      std::uint64_t add) { total += add; },
                   sum, other);
    *this = sum;
    return *this;
  }
};

}  // namespace qoslb
