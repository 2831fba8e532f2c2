#pragma once

#include <iosfwd>

// QL014 fixture: a member-hook pair split across two files — snapshot_write
// inline here, snapshot_read out of line in split_tracker.cpp. The halves
// pair up by owning struct, so "rho" (written, never read) is flagged here
// and "tau" (read, never written) in the .cpp; "sigma" agrees.
struct SplitTracker {
  void snapshot_write(std::ostream& out) const {
    out << "sigma " << sigma_ << '\n';
    out << "rho " << rho_ << '\n';
  }
  void snapshot_read(std::istream& in);

  long sigma_ = 0;
  long rho_ = 0;
  long tau_ = 0;
};
