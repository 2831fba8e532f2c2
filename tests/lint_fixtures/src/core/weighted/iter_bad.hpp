// QL002 fixture outside the rule's former path list: a weighted commit that
// admits its requesters in hash order.
#include <cstdint>
#include <unordered_set>

namespace fx {

inline std::int64_t admit_all(const std::unordered_set<int>& requesters) {
  std::unordered_set<int> pending = requesters;
  std::int64_t admitted = 0;
  for (const int user : pending) admitted += user;
  return admitted;
}

}  // namespace fx
