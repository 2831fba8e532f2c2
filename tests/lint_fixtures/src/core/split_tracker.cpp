// QL014 fixture: the out-of-line reader of split_tracker.hpp's pair.
#include "core/split_tracker.hpp"

#include <istream>

void SplitTracker::snapshot_read(std::istream& in) {
  read_field(in, "tau", tau_);
}
