#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "util/check.hpp"

namespace qoslb {

/// Incrementally-maintained satisfaction index: a per-resource user index
/// bucketed by threshold, the set of currently unsatisfied users, and an
/// O(1) satisfied counter. This is the substrate of the engine's active-set
/// execution mode (docs/performance.md).
///
/// The structural fact it exploits: user `u` sitting on resource `r` with
/// threshold `t = threshold(u, r)` is satisfied iff `load(r) <= t`, so a
/// committed move only changes loads on its two endpoint resources — and of
/// the users indexed there, exactly the ones whose threshold lies in the
/// half-open window the load change swept over flip satisfaction.
///
/// Layout:
/// - Each resource keeps its distinct thresholds in a flat, strictly
///   ascending array. Entry i owns the sentinel node of one intrusive
///   circular list of the residents with that threshold, threaded through
///   the per-node `next_`/`prev_` arrays (nodes [0, n) are users, the rest
///   sentinels). Unlinking a user is O(1) with no lookup; a window flip or
///   a link is one binary search over contiguous thresholds. Buckets that
///   empty out stay until the next rebuild, so sentinel ids are stable.
/// - The unsatisfied set is a two-level bitmap: bit u of `unsat_words_`,
///   plus one summary bit per nonzero word. It yields users in ascending id
///   order in O(|unsatisfied| + n/4096).
///
/// So a move costs an O(1) unlink, three binary searches (plus one array
/// insert the first time a threshold reaches a resource) and one step per
/// user whose satisfaction actually changed; the total flip work over a run
/// is bounded by the run's true satisfaction churn.
///
/// `Load` is the load/threshold arithmetic type: `int` for the unit model
/// (every move sweeps a width-1 window) and `std::int64_t` for the weighted
/// model (window width = the mover's weight).
template <typename Load>
class SatisfactionIndex {
 public:
  /// Builds the index from scratch in O(n + m) plus one radix pass per
  /// n-wide digit of the threshold range (one pass in the unit model) — no
  /// comparison sort. `resource_of[u]` and `threshold_of[u]` describe the
  /// current assignment (the threshold on the user's *current* resource),
  /// `load_of[r]` the current loads.
  void rebuild(std::size_t num_users, std::size_t num_resources,
               const ResourceId* resource_of, const Load* threshold_of,
               const Load* load_of) {
    num_users_ = num_users;
    buckets_.assign(num_resources, {});
    next_.assign(num_users, 0);
    prev_.assign(num_users, 0);
    // Users arrive in ascending threshold order, so appending each one to
    // its resource leaves every threshold array sorted.
    for (const UserId u : users_by_threshold(num_users, threshold_of)) {
      Buckets& b = buckets_[resource_of[u]];
      const Load t = threshold_of[u];
      if (b.thresholds.empty() || b.thresholds.back() != t) {
        b.thresholds.push_back(t);
        b.heads.push_back(new_sentinel());
      }
      link_before(b.heads.back(), u);
    }
    unsat_words_.assign((num_users + 63) / 64, 0);
    unsat_summary_.assign((unsat_words_.size() + 63) / 64, 0);
    unsat_count_ = 0;
    for (UserId u = 0; u < num_users; ++u)
      if (load_of[resource_of[u]] > threshold_of[u]) set_status(u, false);
  }

  /// Reflects a committed move of `u` from `src` to `dst` (src != dst) —
  /// call *after* the host state updated its loads. `*_load_after` are the
  /// post-move loads and `delta` the load shift (1 in the unit model, u's
  /// weight otherwise).
  void on_move(UserId u, ResourceId src, ResourceId dst, Load threshold_on_dst,
               Load src_load_after, Load dst_load_after, Load delta) {
    unlink(u);
    // src's load fell from src_load_after + delta to src_load_after: the
    // users with threshold in [src_load_after, src_load_after + delta) were
    // unsatisfied before and are satisfied now.
    flip_range(src, src_load_after, src_load_after + delta, /*satisfied=*/true);
    // dst's load rose from dst_load_after - delta to dst_load_after: the
    // users with threshold in [dst_load_after - delta, dst_load_after) were
    // satisfied before and are unsatisfied now.
    flip_range(dst, dst_load_after - delta, dst_load_after,
               /*satisfied=*/false);
    link(dst, threshold_on_dst, u);
    // The mover itself is re-evaluated on its new resource (it sat in no
    // list during the flips above).
    set_status(u, dst_load_after <= threshold_on_dst);
  }

  std::size_t satisfied_count() const { return num_users_ - unsat_count_; }

  /// Calls `fn(u)` for every unsatisfied user in ascending id order until
  /// `fn` returns false; returns false iff it stopped early.
  template <typename Fn>
  bool for_each_unsatisfied(Fn&& fn) const {
    for (std::size_t s = 0; s < unsat_summary_.size(); ++s) {
      for (std::uint64_t words = unsat_summary_[s]; words != 0;
           words &= words - 1) {
        const std::size_t w = s * 64 + std::countr_zero(words);
        for (std::uint64_t bits = unsat_words_[w]; bits != 0; bits &= bits - 1)
          if (!fn(static_cast<UserId>(w * 64 + std::countr_zero(bits))))
            return false;
      }
    }
    return true;
  }

  /// The currently unsatisfied users, ascending, written into a buffer the
  /// index owns: the reference stays valid, and its contents fixed, until
  /// the next call. Moves do not touch it.
  const std::vector<UserId>& unsatisfied() {
    view_.clear();
    view_.reserve(unsat_count_);
    for_each_unsatisfied([this](UserId u) {
      view_.push_back(u);
      return true;
    });
    return view_;
  }

  /// The smallest nonempty threshold bucket ≥ `load` on resource `r`, or
  /// `none` when there is none. At `load` = r's current load this is the
  /// minimum threshold among r's satisfied residents. One binary search,
  /// then a skip over buckets that emptied since the last rebuild.
  Load min_threshold_at_least(ResourceId r, Load load, Load none) const {
    const Buckets& b = buckets_[r];
    for (std::size_t i = lower_index(b, load); i < b.thresholds.size(); ++i)
      if (next_[b.heads[i]] != b.heads[i]) return b.thresholds[i];
    return none;
  }

  /// Audits the structure against the host's current assignment, cached
  /// thresholds and loads (callables over user / resource ids): every user
  /// sits in exactly one list, that list belongs to its current resource
  /// and current threshold, each resource's thresholds are strictly
  /// ascending, each user's bit matches a recompute, and the bitmap's
  /// popcount and summary match the counter. Throws on any mismatch.
  template <typename ResourceOf, typename ThresholdOf, typename LoadOf>
  void check_consistency(const ResourceOf& resource_of,
                         const ThresholdOf& threshold_of,
                         const LoadOf& load_of) const {
    QOSLB_CHECK(next_.size() == prev_.size() && next_.size() >= num_users_,
                "satisfaction index: node arrays diverged");
    std::vector<std::uint8_t> seen(num_users_, 0);
    std::size_t linked = 0;
    for (ResourceId r = 0; r < buckets_.size(); ++r) {
      const Buckets& b = buckets_[r];
      QOSLB_CHECK(b.heads.size() == b.thresholds.size(),
                  "satisfaction index: bucket arrays diverged");
      for (std::size_t i = 0; i < b.thresholds.size(); ++i) {
        QOSLB_CHECK(i == 0 || b.thresholds[i - 1] < b.thresholds[i],
                    "satisfaction index: thresholds not strictly ascending");
        const std::uint32_t head = b.heads[i];
        QOSLB_CHECK(head >= num_users_ && head < next_.size(),
                    "satisfaction index: bucket head is not a sentinel");
        // A corrupt list that cycles or strays into another list reaches a
        // seen user or a sentinel and throws, so the walk terminates.
        for (std::uint32_t v = next_[head]; v != head; v = next_[v]) {
          QOSLB_CHECK(v < num_users_ && seen[v] == 0,
                      "satisfaction index: list holds a sentinel or a repeat");
          seen[v] = 1;
          ++linked;
          QOSLB_CHECK(prev_[next_[v]] == v,
                      "satisfaction index: prev/next links disagree");
          QOSLB_CHECK(resource_of(v) == r && threshold_of(v) == b.thresholds[i],
                      "satisfaction index: user in another resource's or "
                      "threshold's bucket");
        }
      }
    }
    QOSLB_CHECK(linked == num_users_,
                "satisfaction index: a user sits in no bucket");
    std::size_t popcount = 0;
    for (std::size_t w = 0; w < unsat_words_.size(); ++w) {
      popcount += static_cast<std::size_t>(std::popcount(unsat_words_[w]));
      const bool summary = (unsat_summary_[w / 64] >> (w % 64) & 1) != 0;
      QOSLB_CHECK(summary == (unsat_words_[w] != 0),
                  "satisfaction index: summary bit diverged from its word");
    }
    QOSLB_CHECK(popcount == num_users_ - satisfied_count(),
                "satisfaction index: bitmap popcount diverged from counter");
    for (UserId u = 0; u < num_users_; ++u)
      QOSLB_CHECK(
          is_unsatisfied(u) == (load_of(resource_of(u)) > threshold_of(u)),
          "satisfaction index diverged from recompute");
  }

 private:
  struct Buckets {
    std::vector<Load> thresholds;     // distinct, strictly ascending
    std::vector<std::uint32_t> heads;  // sentinel node of each threshold
  };

  /// Users in ascending (threshold, id) order, by stable LSD radix passes
  /// over threshold − min with a digit of at least log2(n + 1) bits. The
  /// unit model's range is at most n + 1 wide (Instance::threshold clamps at
  /// n), so it takes one counting-sort pass; a wider weighted range takes a
  /// few more. The count array is O(n), never O(range).
  static std::vector<UserId> users_by_threshold(std::size_t n,
                                                const Load* threshold_of) {
    std::vector<UserId> order(n);
    std::iota(order.begin(), order.end(), UserId{0});
    if (n == 0) return order;
    const auto [lo, hi] = std::minmax_element(threshold_of, threshold_of + n);
    const auto min_t = static_cast<std::uint64_t>(*lo);
    const auto key = [&](UserId u) {
      return static_cast<std::uint64_t>(threshold_of[u]) - min_t;
    };
    const std::uint64_t range = static_cast<std::uint64_t>(*hi) - min_t;
    const int digit_bits = std::max(8, static_cast<int>(std::bit_width(n)));
    const int key_bits = static_cast<int>(std::bit_width(range));
    const std::uint64_t digit_mask = (std::uint64_t{1} << digit_bits) - 1;
    std::vector<std::uint32_t> count(
        static_cast<std::size_t>(std::min(range, digit_mask) + 1));
    std::vector<UserId> sorted(n);
    for (int shift = 0; shift < key_bits; shift += digit_bits) {
      std::fill(count.begin(), count.end(), 0);
      for (const UserId u : order) ++count[key(u) >> shift & digit_mask];
      std::uint32_t sum = 0;
      for (std::uint32_t& c : count) sum += std::exchange(c, sum);
      for (const UserId u : order)
        sorted[count[key(u) >> shift & digit_mask]++] = u;
      order.swap(sorted);
    }
    return order;
  }

  bool is_unsatisfied(UserId u) const {
    return (unsat_words_[u >> 6] >> (u & 63) & 1) != 0;
  }

  static std::size_t lower_index(const Buckets& b, Load t) {
    return static_cast<std::size_t>(
        std::lower_bound(b.thresholds.begin(), b.thresholds.end(), t) -
        b.thresholds.begin());
  }

  std::uint32_t new_sentinel() {
    const std::size_t id = next_.size();
    QOSLB_CHECK(id < ~std::uint32_t{0},
                "satisfaction index: node ids exhausted");
    next_.push_back(static_cast<std::uint32_t>(id));
    prev_.push_back(static_cast<std::uint32_t>(id));
    return static_cast<std::uint32_t>(id);
  }

  /// Inserts user `u` just before `node` in its circular list.
  void link_before(std::uint32_t node, UserId u) {
    const std::uint32_t p = prev_[node];
    next_[p] = u;
    prev_[u] = p;
    next_[u] = node;
    prev_[node] = u;
  }

  void unlink(UserId u) {
    next_[prev_[u]] = next_[u];
    prev_[next_[u]] = prev_[u];
  }

  /// Links `u` into resource `r`'s bucket for threshold `t`, inserting the
  /// bucket when `r` has none for it yet.
  void link(ResourceId r, Load t, UserId u) {
    Buckets& b = buckets_[r];
    const std::size_t i = lower_index(b, t);
    if (i == b.thresholds.size() || b.thresholds[i] != t) {
      const auto at = static_cast<std::ptrdiff_t>(i);
      b.thresholds.insert(b.thresholds.begin() + at, t);
      b.heads.insert(b.heads.begin() + at, new_sentinel());
    }
    link_before(b.heads[i], u);
  }

  /// Marks every user of resource `r` with threshold in [lo, hi).
  void flip_range(ResourceId r, Load lo, Load hi, bool satisfied) {
    const Buckets& b = buckets_[r];
    for (std::size_t i = lower_index(b, lo);
         i < b.thresholds.size() && b.thresholds[i] < hi; ++i)
      for (std::uint32_t v = next_[b.heads[i]]; v != b.heads[i]; v = next_[v])
        set_status(v, satisfied);
  }

  /// Idempotent membership update of the unsatisfied bitmap.
  void set_status(UserId u, bool satisfied) {
    std::uint64_t& word = unsat_words_[u >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (u & 63);
    if (((word & bit) != 0) != satisfied) return;  // already in that state
    word ^= bit;
    if (satisfied) {
      --unsat_count_;
    } else {
      ++unsat_count_;
    }
    const std::uint64_t summary_bit = std::uint64_t{1} << (u >> 6 & 63);
    std::uint64_t& summary = unsat_summary_[u >> 12];
    summary = word != 0 ? summary | summary_bit : summary & ~summary_bit;
  }

  std::size_t num_users_ = 0;
  std::vector<Buckets> buckets_;           // per resource
  std::vector<std::uint32_t> next_;        // per node: users, then sentinels
  std::vector<std::uint32_t> prev_;
  std::vector<std::uint64_t> unsat_words_;    // bit u: u is unsatisfied
  std::vector<std::uint64_t> unsat_summary_;  // bit w: unsat_words_[w] != 0
  std::size_t unsat_count_ = 0;
  std::vector<UserId> view_;  // unsatisfied()'s ascending buffer
};

}  // namespace qoslb
