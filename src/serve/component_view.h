// Published connectivity as anchor labels + merge links — the structure
// that makes publishing components O(delta) instead of O(n).
//
// Materializing union-find labels costs O(n · α(n)) per publish, which
// would put an O(n) floor under every publish no matter how small the
// ingested delta. Instead a published component_view is:
//
//   * an *anchor*: a refcounted label vector materialized at a rare
//     anchor event (seed publish, erase-triggered connectivity rebuild,
//     or when the link map outgrows its budget) — shared by every version
//     published since, never copied; and
//   * a *link map*: the component merges performed by insert batches
//     since the anchor, expressed over anchor labels and path-compressed
//     at build time so a lookup is a single probe. Its size is bounded by
//     the number of distinct components merged since the anchor, i.e. by
//     the updates ingested, never by n.
//
// label(u) resolves u's anchor label through the link map; two vertices
// are connected iff their resolved labels are equal. Vertices beyond the
// anchor (the graph grew since) are their own singleton label — ids of
// grown vertices are >= the anchor's n while anchor labels are < it, so
// the two label spaces cannot collide.
//
// A component_view is immutable and O(1) to copy (two shared_ptrs); the
// writer builds one per publish/ingest from its private link union-find
// (see snapshot_manager).
#pragma once

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace gbbs::serve {

class component_view {
 public:
  using link_map = std::unordered_map<vertex_id, vertex_id>;

  component_view() = default;
  component_view(std::shared_ptr<const std::vector<vertex_id>> anchor,
                 std::shared_ptr<const link_map> links)
      : anchor_(std::move(anchor)), links_(std::move(links)) {}

  // Wrap a fully materialized label vector (anchor only, no links) — the
  // seed/rebuild path, and the convenience entry point for tests.
  static component_view from_labels(std::vector<vertex_id> labels) {
    return component_view(
        std::make_shared<const std::vector<vertex_id>>(std::move(labels)),
        nullptr);
  }

  // Resolved component label of u. Labels are comparable within one view
  // (same partition semantics as static connectivity(), up to renaming).
  vertex_id label(vertex_id u) const {
    vertex_id a = u;
    if (anchor_ != nullptr && u < anchor_->size()) a = (*anchor_)[u];
    if (links_ != nullptr) {
      auto it = links_->find(a);
      if (it != links_->end()) return it->second;
    }
    return a;
  }

  bool connected(vertex_id u, vertex_id v) const {
    return label(u) == label(v);
  }

  // O(n) flat label vector — for verification paths and tests only; the
  // serving read path never materializes.
  std::vector<vertex_id> materialize(vertex_id n) const {
    std::vector<vertex_id> out(n);
    parlib::parallel_for(0, n, [&](std::size_t u) {
      out[u] = label(static_cast<vertex_id>(u));
    });
    return out;
  }

 private:
  std::shared_ptr<const std::vector<vertex_id>> anchor_;
  std::shared_ptr<const link_map> links_;  // anchor label -> merged root
};

// The writer-private machinery behind O(delta) component publishing: an
// anchor label vector plus a link union-find over anchor labels, distilled
// into an immutable component_view on demand (memoized until the next
// merge dirties it). Factored out of snapshot_manager so both ingest
// front-ends share one implementation — the single-writer manager tracks
// per-batch, the sharded manager tracks the merged per-shard link deltas
// at its composite-publish barrier.
//
// Not thread-safe: single owner (the writer / the publish-barrier thread).
class component_tracker {
 public:
  // Links since the last anchor are kept below a constant bound so
  // compressing them at publish costs the same at every graph scale; the
  // O(n) re-anchor amortizes over the >= kLinkBudget merges that forced
  // it. Callers check needs_anchor() after tracking a batch.
  static constexpr std::size_t kLinkBudget = 4096;

  // Record one merge edge in anchor-label space. O(α) amortized.
  void track_pair(vertex_id u, vertex_id v) {
    if (link_unite(anchor_label(u), anchor_label(v))) dirty_ = true;
  }

  bool needs_anchor() const { return link_uf_.size() > kLinkBudget; }

  // Re-anchor on fresh fully-materialized labels (seed, erase-triggered
  // rebuild, link-budget overflow) and clear the link map.
  void refresh_anchor(std::vector<vertex_id> labels) {
    anchor_ = std::make_shared<const std::vector<vertex_id>>(
        std::move(labels));
    link_uf_.clear();
    dirty_ = true;
  }

  // The current partition as an immutable O(1)-copy view. The compressed
  // link map is memoized until the next merge, so back-to-back publishes
  // pay O(1), not O(links).
  component_view current() const {
    if (dirty_) {
      auto links = std::make_shared<component_view::link_map>();
      links->reserve(link_uf_.size());
      for (const auto& [from, _] : link_uf_) {
        (*links)[from] = link_find(from);
      }
      cached_ = component_view(anchor_, std::move(links));
      dirty_ = false;
    }
    return cached_;
  }

 private:
  vertex_id anchor_label(vertex_id u) const {
    return anchor_ != nullptr && u < anchor_->size() ? (*anchor_)[u] : u;
  }

  // Union-find over anchor labels (absent key = self root).
  vertex_id link_find(vertex_id a) const {
    for (;;) {
      auto it = link_uf_.find(a);
      if (it == link_uf_.end() || it->second == a) return a;
      a = it->second;
    }
  }

  // True iff this union merged two previously distinct components.
  bool link_unite(vertex_id a, vertex_id b) {
    a = link_find(a);
    b = link_find(b);
    if (a == b) return false;
    if (a > b) std::swap(a, b);
    link_uf_[b] = a;
    link_uf_.try_emplace(a, a);  // make the root enumerable
    return true;
  }

  std::shared_ptr<const std::vector<vertex_id>> anchor_;
  std::unordered_map<vertex_id, vertex_id> link_uf_;
  mutable component_view cached_;
  mutable bool dirty_ = true;
};

}  // namespace gbbs::serve
