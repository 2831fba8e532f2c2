#pragma once

#include <iosfwd>

// QL014 fixture: a member-hook pair split across two files — snapshot_write
// inline here, snapshot_read out of line in split_tracker.cpp. Coverage pairs
// the halves by owning struct, so "sigma" (named only here) and "tau" (named
// only in the .cpp) both cover their members; rho_ is named by neither half
// and is the one finding.
struct SplitTracker {
  void snapshot_write(std::ostream& out) const {
    out << "sigma " << sigma_ << '\n';
  }
  void snapshot_read(std::istream& in);

  long sigma_ = 0;
  long rho_ = 0;
  long tau_ = 0;
};
