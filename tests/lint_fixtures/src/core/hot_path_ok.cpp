// QL015 exception fixture: a deliberate one-shot arena grab on first entry,
// accepted per call site with the allow() suppression.
#include <type_traits>
#include <vector>

namespace hotfix {

struct WarmupProtocol {
  void step_users(std::vector<int*>& slabs) {
    if constexpr (std::is_pointer_v<int*>) {
      if (!slabs.empty()) return;
    }
    slabs.push_back(new int[64]);  // qoslb-lint: allow(QL015)
  }
};

// Not on the hot path: `if constexpr` is a branch, so the step hook's own
// `if constexpr` above does not call this block.
template <typename T>
T* cold_setup() {
  if constexpr (std::is_integral_v<T>) {
    return new T[8];
  }
  return nullptr;
}

}  // namespace hotfix
