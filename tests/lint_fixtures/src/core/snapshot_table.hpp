#pragma once

// QL014 fixture: the checkpoint writer of a tree whose state class is still
// called State while QL014's table says BasicState. The table entry that
// names no struct is the one finding, anchored at write_snapshot; the other
// table entries are defined here (Counters in field_list.hpp), without
// members, so they add nothing else.
class State {
  int load_ = 0;  // qoslb-snapshot: transient
};
struct EngineConfig {};
struct ChurnTracker {};
struct SnapshotV1 {};
struct ChurnStats {};

inline void write_snapshot(const SnapshotV1&) {}
