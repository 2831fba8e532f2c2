#pragma once

// QL014 fixture: a checkpoint struct serialized through a (keyword, member)
// field list, the way the checkpoint codec walks Counters. grants is missing
// from the list and is the one finding; probes is listed and cache_ is
// annotated transient.
struct Counters {
  long probes = 0;
  long grants = 0;
  long cache_ = 0;  // qoslb-snapshot: transient

  template <class F, class... C>
  static void for_each_field(F&& f, C&... c) {
    f("probes", c.probes...);
  }
};
