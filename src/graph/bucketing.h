// Julienne's bucketing structure (Dhulipala, Blelloch, Shun, SPAA'17),
// which the paper's wBFS, k-core, and approximate set cover build on.
//
// The structure maintains, for identifiers 0..n-1, a mapping into dynamic
// buckets, processed in increasing (wBFS, k-core) or decreasing (set cover)
// order. A window of `open_buckets` buckets is materialized around the
// cursor plus a single overflow bucket; when the window is exhausted the
// overflow is redistributed around the next live bucket.
//
// Deletion is lazy: moving an identifier inserts a new copy and leaves the
// old one behind; next_bucket filters each popped bucket against the
// client's current-bucket function, so stale copies (old bucket, or
// finished identifiers mapping to null_bucket) evaporate. Clients must
// (a) report the *current* bucket of every unfinished identifier and
// null_bucket for finished ones, and (b) not insert an identifier twice
// into the same bucket between pops (both algorithms guarantee this by
// only reporting *changed* buckets — see get_bucket).
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "parlib/cancellation.h"
#include "parlib/integer_sort.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

using bucket_id = std::uint32_t;
inline constexpr bucket_id kNullBucket = std::numeric_limits<bucket_id>::max();

enum class bucket_order { increasing, decreasing };

template <typename D>  // D: vertex_id -> bucket_id (current bucket or null)
class buckets {
 public:
  buckets(vertex_id n, D d, bucket_order order,
          std::size_t open_buckets = 128)
      : d_(std::move(d)), order_(order), open_(open_buckets),
        bkts_(open_buckets + 1) {
    // Seed the window at the extreme live bucket in traversal order.
    auto ids = parlib::iota<vertex_id>(n);
    auto live = parlib::filter(
        ids, [&](vertex_id v) { return d_(v) != kNullBucket; });
    if (live.empty()) {
      base_ = 0;
      cur_ = 0;
      return;
    }
    auto bks = parlib::map(live, [&](vertex_id v) {
      return static_cast<std::int64_t>(d_(v));
    });
    base_ = order_ == bucket_order::increasing
                ? parlib::reduce(bks, parlib::min_monoid<std::int64_t>())
                : parlib::reduce(bks, parlib::max_monoid<std::int64_t>());
    cur_ = base_;
    bulk_insert(live);
  }

  // Number of bucket pops performed so far (the paper's rho for k-core).
  std::size_t num_rounds() const { return rounds_; }

  // Pop the next non-empty bucket in traversal order. Returns
  // {kNullBucket, {}} when the structure is empty.
  std::pair<bucket_id, std::vector<vertex_id>> next_bucket() {
    while (true) {
      // Cancellation / deadline poll once per pop attempt: a cancelled
      // bucketed computation (k-core, wBFS, set cover) sees an "empty"
      // structure and terminates its driver loop; the partial result is the
      // caller's to discard.
      if (parlib::cancel::poll()) return {kNullBucket, {}};
      while (in_window(cur_)) {
        auto& vec = bkts_[slot_of(cur_)];
        if (!vec.empty()) {
          auto live = parlib::filter(vec, [&](vertex_id v) {
            return d_(v) == static_cast<bucket_id>(cur_);
          });
          vec.clear();
          if (!live.empty()) {
            ++rounds_;
            return {static_cast<bucket_id>(cur_), std::move(live)};
          }
        }
        advance(cur_);
      }
      // Window exhausted: redistribute overflow around the next live bucket.
      auto overflow = std::move(bkts_[open_]);
      bkts_[open_].clear();
      auto live = parlib::filter(overflow, [&](vertex_id v) {
        return d_(v) != kNullBucket;
      });
      // The overflow can hold several copies of one identifier (one per
      // update that landed beyond the window); all copies of a live
      // identifier now agree on d_(v), so deduplicate before reinserting —
      // otherwise a bucket could pop the same identifier twice and clients
      // like k-core would double-count its edges.
      if (live.size() > 1) {
        parlib::integer_sort_inplace(
            live, [](vertex_id v) { return v; });
        auto keep = parlib::tabulate<std::uint8_t>(
            live.size(), [&](std::size_t i) {
              return static_cast<std::uint8_t>(i == 0 ||
                                               live[i - 1] != live[i]);
            });
        live = parlib::pack(live, keep);
      }
      if (live.empty()) return {kNullBucket, {}};
      auto bks = parlib::map(live, [&](vertex_id v) {
        return static_cast<std::int64_t>(d_(v));
      });
      base_ = order_ == bucket_order::increasing
                  ? parlib::reduce(bks, parlib::min_monoid<std::int64_t>())
                  : parlib::reduce(bks, parlib::max_monoid<std::int64_t>());
      cur_ = base_;
      bulk_insert(live);
    }
  }

  // Move identifiers to new (absolute) buckets. Pairs with kNullBucket are
  // ignored. The client's d must already reflect the new buckets.
  void update_buckets(
      const std::vector<std::pair<vertex_id, bucket_id>>& updates) {
    auto live = parlib::filter(updates, [&](const auto& p) {
      return p.second != kNullBucket;
    });
    if (live.empty()) return;
    // Small batches append directly; each slot receives its identifiers in
    // input order, exactly as the stable counting sort below would.
    if (live.size() <= parlib::kSeqBlockSize) {
      for (const auto& [v, b] : live) {
        bkts_[slot_of(static_cast<std::int64_t>(b))].push_back(v);
      }
      return;
    }
    // Group by destination slot with a counting sort, then bulk-append.
    auto slotted = parlib::tabulate<std::pair<vertex_id, std::uint32_t>>(
        live.size(), [&](std::size_t i) {
          return std::make_pair(
              live[i].first,
              static_cast<std::uint32_t>(
                  slot_of(static_cast<std::int64_t>(live[i].second))));
        });
    auto starts = parlib::counting_sort_inplace(
        slotted, [](const auto& p) { return p.second; }, open_ + 1);
    parlib::parallel_for(
        0, open_ + 1,
        [&](std::size_t s) {
          const std::size_t lo = starts[s], hi = starts[s + 1];
          if (lo == hi) return;
          auto& vec = bkts_[s];
          const std::size_t old = vec.size();
          vec.resize(old + (hi - lo));
          for (std::size_t i = lo; i < hi; ++i) {
            vec[old + (i - lo)] = slotted[i].first;
          }
        },
        1);
  }

  // Destination bucket for an identifier whose bucket changed from prev to
  // next; kNullBucket when unchanged (so no duplicate insertion happens).
  static bucket_id get_bucket(bucket_id prev, bucket_id next) {
    return prev == next ? kNullBucket : next;
  }

 private:
  bool in_window(std::int64_t b) const {
    if (order_ == bucket_order::increasing) {
      return b < base_ + static_cast<std::int64_t>(open_);
    }
    return b > base_ - static_cast<std::int64_t>(open_) && b >= 0;
  }

  void advance(std::int64_t& b) const {
    b += order_ == bucket_order::increasing ? 1 : -1;
  }

  // Slot of an absolute bucket id: window-relative position, clamping ids
  // behind the cursor to the cursor (can only happen through client races
  // that both algorithms exclude; clamping keeps the structure safe), and
  // everything beyond the window into the overflow slot open_.
  std::size_t slot_of(std::int64_t b) const {
    std::int64_t rel;
    if (order_ == bucket_order::increasing) {
      if (b < cur_) b = cur_;
      rel = b - base_;
    } else {
      if (b > cur_) b = cur_;
      rel = base_ - b;
    }
    return rel < static_cast<std::int64_t>(open_)
               ? static_cast<std::size_t>(rel)
               : open_;
  }

  void bulk_insert(const std::vector<vertex_id>& ids) {
    std::vector<std::pair<vertex_id, bucket_id>> updates(ids.size());
    parlib::parallel_for(0, ids.size(), [&](std::size_t i) {
      updates[i] = {ids[i], d_(ids[i])};
    });
    update_buckets(updates);
  }

  D d_;
  bucket_order order_;
  std::size_t open_;
  std::vector<std::vector<vertex_id>> bkts_;  // open_ window slots + overflow
  std::int64_t base_ = 0;
  std::int64_t cur_ = 0;
  std::size_t rounds_ = 0;
};

template <typename D>
buckets<D> make_buckets(vertex_id n, D d, bucket_order order,
                        std::size_t open_buckets = 128) {
  return buckets<D>(n, std::move(d), order, open_buckets);
}

}  // namespace gbbs
