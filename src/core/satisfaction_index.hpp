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
/// Each (resource, threshold) bucket is the sentinel node of one intrusive
/// circular list of the residents with that threshold, threaded through the
/// per-node `next_`/`prev_` arrays (nodes [0, n) are users, the rest
/// sentinels). Unlinking a user is O(1) with no lookup. Buckets that empty
/// out stay until the next rebuild, so sentinel ids are stable. The buckets
/// are found in one of two layouts, chosen at each rebuild:
/// - **Rank buckets**, when the caller's thresholds do not depend on the
///   resource and m·|D| ≤ n, with D the sorted distinct thresholds. Every
///   resource shares D, the sentinel of (r, D[k]) is the fixed node
///   n + r·|D| + k, and a table over D's value range maps a value to the
///   rank of the first threshold at or above it. A link, either end of a
///   window and the start of a minimum search are one table load each; no
///   bucket is inserted after the build.
/// - **Sorted buckets** otherwise (thresholds that depend on the resource,
///   or a D too wide for the guard): each resource keeps its own distinct
///   thresholds in a flat, strictly ascending array, entry i owning the
///   sentinel `heads[i]`. A window flip or a link is one binary search over
///   contiguous thresholds, and the first time a threshold reaches a
///   resource the link inserts one array entry and a new sentinel.
///
/// The unsatisfied set is a two-level bitmap: bit u of `unsat_words_`, plus
/// one summary bit per nonzero word. It yields users in ascending id order
/// in O(|unsatisfied| + n/4096).
///
/// So a move costs an O(1) unlink, three table loads (rank buckets) or three
/// binary searches (sorted buckets), and one step per user whose
/// satisfaction actually changed; the total flip work over a run is bounded
/// by the run's true satisfaction churn.
///
/// `Load` is the load/threshold arithmetic type: `int` for the unit model
/// (every move sweeps a width-1 window) and `std::int64_t` for the weighted
/// model (window width = the mover's weight).
template <typename Load>
class SatisfactionIndex {
 public:
  /// Builds the index anew. `resource_of[u]` and `threshold_of[u]`
  /// describe the current assignment (the threshold on the user's *current*
  /// resource), `load_of[r]` the current loads. `flat_thresholds` says that
  /// each user's threshold is the same on every resource, which admits rank
  /// buckets (see the class comment); their build is O(n + m·|D|) plus one
  /// pass over D's value range. Sorted buckets take O(n + m) plus one radix
  /// pass per n-wide digit of the threshold range (one pass in the unit
  /// model). Neither sorts by comparison.
  void rebuild(std::size_t num_users, std::size_t num_resources,
               const ResourceId* resource_of, const Load* threshold_of,
               const Load* load_of, bool flat_thresholds) {
    num_users_ = num_users;
    num_resources_ = num_resources;
    buckets_.clear();
    ranks_.clear();
    rank_of_.clear();
    if (!flat_thresholds || !build_rank_buckets(resource_of, threshold_of))
      build_sorted_buckets(resource_of, threshold_of);
    unsat_words_.assign((num_users + 63) / 64, 0);
    unsat_summary_.assign((unsat_words_.size() + 63) / 64, 0);
    unsat_count_ = 0;
    for (UserId u = 0; u < num_users; ++u)
      if (load_of[resource_of[u]] > threshold_of[u]) set_status(u, false);
  }

  /// True when the last rebuild chose rank buckets.
  bool rank_buckets() const { return !ranks_.empty(); }

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
  /// the next call. Moves do not touch it. The buffer reserves room for
  /// every user once, so a call whose set outgrows every earlier one does
  /// not allocate.
  const std::vector<UserId>& unsatisfied() {
    view_.clear();
    view_.reserve(num_users_);
    for_each_unsatisfied([this](UserId u) {
      view_.push_back(u);
      return true;
    });
    return view_;
  }

  /// The smallest nonempty threshold bucket ≥ `load` on resource `r`, or
  /// `none` when there is none. At `load` = r's current load this is the
  /// minimum threshold among r's satisfied residents. One table load (rank
  /// buckets) or one binary search (sorted buckets), then a skip over
  /// buckets that emptied since the last rebuild.
  Load min_threshold_at_least(ResourceId r, Load load, Load none) const {
    if (rank_buckets()) {
      const std::uint32_t base = rank_base(r);
      for (std::uint32_t k = rank_at_least(load); k < ranks_.size(); ++k)
        if (next_[base + k] != base + k) return ranks_[k];
      return none;
    }
    const Buckets& b = buckets_[r];
    for (std::size_t i = lower_index(b, load); i < b.thresholds.size(); ++i)
      if (next_[b.heads[i]] != b.heads[i]) return b.thresholds[i];
    return none;
  }

  /// Audits the structure against the host's current assignment, cached
  /// thresholds and loads (callables over user / resource ids): every user
  /// sits in exactly one list, that list belongs to its current resource
  /// and current threshold, the thresholds (D, or each resource's array)
  /// are strictly ascending, the rank table agrees with D, each user's bit
  /// matches a recompute, and the bitmap's popcount and summary match the
  /// counter. Throws on any mismatch.
  template <typename ResourceOf, typename ThresholdOf, typename LoadOf>
  void check_consistency(const ResourceOf& resource_of,
                         const ThresholdOf& threshold_of,
                         const LoadOf& load_of) const {
    QOSLB_CHECK(next_.size() == prev_.size() && next_.size() >= num_users_,
                "satisfaction index: node arrays diverged");
    std::vector<std::uint8_t> seen(num_users_, 0);
    std::size_t linked = 0;
    // Walks the list of `head`, which must hold exactly r's residents of
    // threshold t. A corrupt list that cycles or strays into another list
    // reaches a seen user or a sentinel and throws, so the walk terminates.
    const auto walk = [&](std::uint32_t head, ResourceId r, Load t) {
      QOSLB_CHECK(head >= num_users_ && head < next_.size(),
                  "satisfaction index: bucket head is not a sentinel");
      for (std::uint32_t v = next_[head]; v != head; v = next_[v]) {
        QOSLB_CHECK(v < num_users_ && seen[v] == 0,
                    "satisfaction index: list holds a sentinel or a repeat");
        seen[v] = 1;
        ++linked;
        QOSLB_CHECK(prev_[next_[v]] == v,
                    "satisfaction index: prev/next links disagree");
        QOSLB_CHECK(resource_of(v) == r && threshold_of(v) == t,
                    "satisfaction index: user in another resource's or "
                    "threshold's bucket");
      }
    };
    if (rank_buckets()) {
      QOSLB_CHECK(buckets_.empty(),
                  "satisfaction index: rank and sorted buckets both built");
      QOSLB_CHECK(next_.size() == num_users_ + num_resources_ * ranks_.size(),
                  "satisfaction index: node count is not n + m·|D|");
      QOSLB_CHECK(rank_lo_ == ranks_.front() && rank_hi_ == ranks_.back() + 1 &&
                      rank_of_.size() ==
                          static_cast<std::size_t>(rank_hi_ - rank_lo_) + 1,
                  "satisfaction index: rank table does not span D");
      std::uint32_t below = 0;  // thresholds of D below v
      for (Load v = rank_lo_; v <= rank_hi_; ++v) {
        while (below < ranks_.size() && ranks_[below] < v) ++below;
        QOSLB_CHECK(rank_of_[static_cast<std::size_t>(v - rank_lo_)] == below,
                    "satisfaction index: rank table disagrees with D");
      }
      for (std::size_t k = 0; k < ranks_.size(); ++k)
        QOSLB_CHECK(k == 0 || ranks_[k - 1] < ranks_[k],
                    "satisfaction index: thresholds not strictly ascending");
      for (ResourceId r = 0; r < num_resources_; ++r)
        for (std::uint32_t k = 0; k < ranks_.size(); ++k)
          walk(rank_base(r) + k, r, ranks_[k]);
    } else {
      QOSLB_CHECK(buckets_.size() == num_resources_,
                  "satisfaction index: one bucket array per resource");
      for (ResourceId r = 0; r < buckets_.size(); ++r) {
        const Buckets& b = buckets_[r];
        QOSLB_CHECK(b.heads.size() == b.thresholds.size(),
                    "satisfaction index: bucket arrays diverged");
        for (std::size_t i = 0; i < b.thresholds.size(); ++i) {
          QOSLB_CHECK(i == 0 || b.thresholds[i - 1] < b.thresholds[i],
                      "satisfaction index: thresholds not strictly ascending");
          walk(b.heads[i], r, b.thresholds[i]);
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

  /// The rank-bucket build, or false with nothing built when the guard
  /// fails (m·|D| > n, or a value range wider than n, which the unit model
  /// never has: Instance::threshold clamps at n). No sort: it marks the
  /// values present, prefix-sums the marks into ranks, self-links the
  /// m·|D| sentinels and links the users in id order.
  bool build_rank_buckets(const ResourceId* resource_of,
                          const Load* threshold_of) {
    const std::size_t n = num_users_;
    if (n == 0) return false;
    const auto [lo, hi] = threshold_range(n, threshold_of);
    const auto span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    if (span > n) return false;
    // rank_of[v - lo] marks v present, then becomes the number of distinct
    // thresholds below v; one extra entry past the top holds |D|.
    std::vector<std::uint32_t> rank_of(static_cast<std::size_t>(span) + 2, 0);
    for (std::size_t u = 0; u < n; ++u)
      rank_of[static_cast<std::size_t>(threshold_of[u] - lo)] = 1;
    std::vector<Load> ranks;
    for (std::size_t i = 0; i < rank_of.size(); ++i) {
      const bool present = rank_of[i] != 0;
      rank_of[i] = static_cast<std::uint32_t>(ranks.size());
      if (present) ranks.push_back(lo + static_cast<Load>(i));
    }
    if (num_resources_ * ranks.size() > n) return false;
    const std::size_t nodes = n + num_resources_ * ranks.size();
    QOSLB_CHECK(nodes < ~std::uint32_t{0},
                "satisfaction index: node ids exhausted");
    rank_lo_ = lo;
    rank_hi_ = hi + 1;
    ranks_ = std::move(ranks);
    rank_of_ = std::move(rank_of);
    next_.resize(nodes);
    prev_.resize(nodes);
    for (std::size_t s = n; s < nodes; ++s)
      next_[s] = prev_[s] = static_cast<std::uint32_t>(s);
    for (UserId u = 0; u < n; ++u)
      link_before(rank_base(resource_of[u]) + rank_at_least(threshold_of[u]),
                  u);
    return true;
  }

  /// The sorted-bucket build: users in ascending threshold order, each
  /// appended to its resource, so every threshold array comes out sorted.
  void build_sorted_buckets(const ResourceId* resource_of,
                            const Load* threshold_of) {
    buckets_.assign(num_resources_, {});
    next_.assign(num_users_, 0);
    prev_.assign(num_users_, 0);
    for (const UserId u : users_by_threshold(num_users_, threshold_of)) {
      Buckets& b = buckets_[resource_of[u]];
      const Load t = threshold_of[u];
      if (b.thresholds.empty() || b.thresholds.back() != t) {
        b.thresholds.push_back(t);
        b.heads.push_back(new_sentinel());
      }
      link_before(b.heads.back(), u);
    }
  }

  /// The smallest and largest of the n ≥ 1 thresholds, by a branch-free
  /// loop: std::minmax_element's pairwise branches mispredict on random
  /// thresholds and took several times as long.
  static std::pair<Load, Load> threshold_range(std::size_t n,
                                               const Load* threshold_of) {
    Load lo = threshold_of[0];
    Load hi = threshold_of[0];
    for (std::size_t u = 1; u < n; ++u) {
      lo = std::min(lo, threshold_of[u]);
      hi = std::max(hi, threshold_of[u]);
    }
    return {lo, hi};
  }

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
    const auto [lo, hi] = threshold_range(n, threshold_of);
    const auto min_t = static_cast<std::uint64_t>(lo);
    const auto key = [&](UserId u) {
      return static_cast<std::uint64_t>(threshold_of[u]) - min_t;
    };
    const std::uint64_t range = static_cast<std::uint64_t>(hi) - min_t;
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

  /// The sentinel of (r, D[0]); (r, D[k]) is k nodes further.
  std::uint32_t rank_base(ResourceId r) const {
    return static_cast<std::uint32_t>(num_users_ + r * ranks_.size());
  }

  /// The rank of the first threshold of D at or above `t` (|D| when none
  /// is): one load from the table, `t` clamped to its span.
  std::uint32_t rank_at_least(Load t) const {
    return rank_of_[static_cast<std::size_t>(std::clamp(t, rank_lo_, rank_hi_) -
                                             rank_lo_)];
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

  /// Links `u` into resource `r`'s bucket for threshold `t`; with sorted
  /// buckets, inserts the bucket when `r` has none for it yet.
  void link(ResourceId r, Load t, UserId u) {
    if (rank_buckets()) {
      link_before(rank_base(r) + rank_at_least(t), u);
      return;
    }
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
    if (rank_buckets()) {
      const std::uint32_t base = rank_base(r);
      for (std::uint32_t k = rank_at_least(lo), end = rank_at_least(hi);
           k < end; ++k)
        flip_list(base + k, satisfied);
      return;
    }
    const Buckets& b = buckets_[r];
    for (std::size_t i = lower_index(b, lo);
         i < b.thresholds.size() && b.thresholds[i] < hi; ++i)
      flip_list(b.heads[i], satisfied);
  }

  /// Marks every user in the list of sentinel `head`.
  void flip_list(std::uint32_t head, bool satisfied) {
    for (std::uint32_t v = next_[head]; v != head; v = next_[v])
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
  std::size_t num_resources_ = 0;
  std::vector<Buckets> buckets_;  // sorted buckets: one array per resource
  std::vector<Load> ranks_;       // rank buckets: D, strictly ascending
  std::vector<std::uint32_t> rank_of_;  // [t - rank_lo_]: # of D below t
  Load rank_lo_ = 0;                    // D's smallest threshold
  Load rank_hi_ = 0;                    // D's largest threshold + 1
  std::vector<std::uint32_t> next_;     // per node: users, then sentinels
  std::vector<std::uint32_t> prev_;
  std::vector<std::uint64_t> unsat_words_;    // bit u: u is unsatisfied
  std::vector<std::uint64_t> unsat_summary_;  // bit w: unsat_words_[w] != 0
  std::size_t unsat_count_ = 0;
  std::vector<UserId> view_;  // unsatisfied()'s ascending buffer
};

}  // namespace qoslb
