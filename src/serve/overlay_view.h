// Overlay-served fresh reads: answer point reads *and* traversal
// analytics from the *uncompacted* delta overlay, so read freshness no
// longer waits for publish. The writer distills the dynamic graph's
// overlay into an immutable overlay_snapshot after every ingest and hands
// it to readers through one shared-pointer cell (overlay_view below).
//
// The index is *persistent* (in the functional-data-structure sense): it
// is a power-of-two array of immutable buckets, each bucket the sorted
// rows of the vertices hashing to it, each row an immutable refcounted
// delta row *shared with the dynamic graph itself* (dynamic_graph replaces
// rows wholesale per batch and never mutates them in place). Refreshing
// after a batch therefore rebuilds only the buckets containing the batch's
// touched vertices and aliases every other bucket from the previous
// snapshot — O(batch) expected work per ingest, not O(overlay): the PR-3
// flat-array index recopied every delta entry on every ingest, which put
// an O(overlay) floor under ingest latency between compactions.
//
// An overlay_snapshot is self-contained: it holds a *shared* handle onto
// the base CSR the deltas are relative to (an O(1) refcounted copy of
// dynamic_graph::base(), see graph.h), the bucketed row index, the *live*
// edge count m (base plus overlay inserts minus erases — what
// edge_map's dense/sparse direction threshold must see), and the
// post-ingest connectivity as a component_view. Point reads therefore
// never touch writer state and never race with the next batch: the live
// neighborhood of u is the same base-vs-delta two-pointer merge
// dynamic_graph itself uses, executed against frozen shared data.
//
// Publication (overlay_view) swaps the index pointer in a
// parlib::atomic_shared_ptr. The payload is an immutable refcounted
// snapshot, so a reader can never observe torn data; the cell's lock
// orders every read against every swap, which gives the freshness
// guarantee: once ingest() has returned, a subsequent read() observes an
// index whose epoch covers that ingest (read-your-writes for the
// single-writer serving loop), and epochs are monotone across reads.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "graph/graph.h"
#include "parlib/atomic_shared_ptr.h"
#include "serve/component_view.h"

namespace gbbs::serve {

// One indexed vertex: its shared delta row (non-null, non-empty) and its
// live out-degree.
template <typename W>
struct overlay_row {
  dynamic::delta_row_ptr<W> entries;
  vertex_id live_deg = 0;
};

// Immutable bucket: the rows of every vertex hashing here, vertex-sorted.
template <typename W>
struct overlay_bucket {
  std::vector<std::pair<vertex_id, overlay_row<W>>> rows;
};

// Immutable distillation of the dynamic graph's state after one ingest.
template <typename W>
struct overlay_snapshot {
  std::uint64_t epoch = 0;         // updates ingested when this was built
  std::uint64_t base_version = 0;  // published store version at build time
  vertex_id n = 0;                 // live vertex count (>= base's n)
  edge_id m = 0;                   // live edge count (base ⊕ overlay)
  gbbs::graph<W> base;             // shared CSR the deltas are relative to

  // Persistent bucketed row index; empty vector when the overlay is empty.
  // Untouched buckets are aliased (same shared_ptr) across snapshots.
  std::vector<std::shared_ptr<const overlay_bucket<W>>> buckets;
  std::size_t overlay_verts = 0;    // rows across all buckets
  std::size_t overlay_entries = 0;  // delta entries across all rows

  component_view cc;  // connectivity after the last ingest

  std::size_t bucket_count() const { return buckets.size(); }
  std::size_t overlay_size() const { return overlay_verts; }
  bool overlay_empty() const {
    return overlay_verts == 0 && n == base.num_vertices();
  }

  // Fibonacci-hash bucket of u (buckets.size() is a power of two).
  std::size_t bucket_of(vertex_id u) const {
    const int k = std::countr_zero(buckets.size());
    if (k == 0) return 0;
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(u) * 0x9E3779B97F4A7C15ull) >>
        (64 - k));
  }

  // u's row, or null if u has no overlay entries. O(1) expected.
  const overlay_row<W>* row(vertex_id u) const {
    if (buckets.empty()) return nullptr;
    const auto& b = *buckets[bucket_of(u)];
    auto it = std::lower_bound(
        b.rows.begin(), b.rows.end(), u,
        [](const auto& r, vertex_id x) { return r.first < x; });
    if (it == b.rows.end() || it->first != u) return nullptr;
    return &it->second;
  }

  vertex_id degree(vertex_id u) const {
    if (const overlay_row<W>* r = row(u)) return r->live_deg;
    return u < base.num_vertices() ? base.out_degree(u) : 0;
  }

  bool contains_edge(vertex_id u, vertex_id v) const {
    if (u >= n) return false;
    if (const overlay_row<W>* r = row(u)) {
      const auto& d = *r->entries;
      auto it = std::lower_bound(
          d.begin(), d.end(), v,
          [](const dynamic::delta_entry<W>& e, vertex_id x) {
            return e.v < x;
          });
      if (it != d.end() && it->v == v) return it->present;
    }
    if (u >= base.num_vertices()) return false;
    const auto nghs = base.out_neighbors(u);
    return std::binary_search(nghs.begin(), nghs.end(), v);
  }

  // The live out-neighborhood of u, ascending (base merged with delta).
  std::vector<vertex_id> neighbors(vertex_id u) const {
    std::vector<vertex_id> out;
    out.reserve(degree(u));
    merge_row(u, [&](vertex_id ngh, W) { out.push_back(ngh); });
    return out;
  }

  // f(ngh, w) over u's live out-neighborhood, ascending: the base row
  // merged two-pointer with u's delta entries (delta overrides base).
  template <typename F>
  void merge_row(vertex_id u, const F& f) const {
    merge_row_early_exit(u, [&](vertex_id ngh, W w) {
      f(ngh, w);
      return true;
    });
  }

  // Early-exit variant: f returns false to stop.
  template <typename F>
  void merge_row_early_exit(vertex_id u, const F& f) const {
    const overlay_row<W>* r = row(u);
    const dynamic::delta_entry<W>* d = nullptr;
    std::size_t dn = 0;
    if (r != nullptr) {
      d = r->entries->data();
      dn = r->entries->size();
    }
    dynamic::merged_row_early_exit(
        base_row(u), [&](std::size_t j) { return base.out_weight(u, j); },
        d, dn, f);
  }

  // f(ngh, w) over live positions [j_lo, j_hi) of u's neighborhood — the
  // random access the blocked edgeMap needs.
  template <typename F>
  void merge_row_range(vertex_id u, std::size_t j_lo, std::size_t j_hi,
                       const F& f) const {
    const overlay_row<W>* r = row(u);
    const dynamic::delta_entry<W>* d = nullptr;
    std::size_t dn = 0;
    if (r != nullptr) {
      d = r->entries->data();
      dn = r->entries->size();
    }
    dynamic::merged_row_range(
        base_row(u), [&](std::size_t j) { return base.out_weight(u, j); },
        d, dn, j_lo, j_hi, f);
  }

 private:
  std::span<const vertex_id> base_row(vertex_id u) const {
    if (u >= base.num_vertices()) return {};
    return base.out_neighbors(u);
  }
};

namespace overlay_internal {

// Buckets sized for ~8 rows each keep lookups O(1) and make a touched
// bucket's rebuild O(1) expected row copies.
inline std::size_t bucket_count_for(std::size_t rows) {
  return std::bit_ceil(std::max<std::size_t>(1, rows / 8));
}

}  // namespace overlay_internal

// Distill the dynamic graph's current overlay (writer thread only; the
// dynamic graph must not be mutated concurrently).
//
// With `prev` + `touched` (the distinct vertices of the batch just
// applied, any order), buckets not containing a touched vertex are shared
// with `prev` — O(batch) expected work. Falls back to a full O(overlay)
// rebuild when there is no usable predecessor (first build, base swapped
// by compaction, or the index outgrew its bucket array).
template <typename W>
std::shared_ptr<const overlay_snapshot<W>> build_overlay_snapshot(
    const dynamic::dynamic_graph<W>& dg, component_view cc,
    std::uint64_t epoch, std::uint64_t base_version,
    const overlay_snapshot<W>* prev = nullptr,
    const std::vector<vertex_id>* touched = nullptr) {
  auto idx = std::make_shared<overlay_snapshot<W>>();
  idx->epoch = epoch;
  idx->base_version = base_version;
  idx->n = dg.num_vertices();
  idx->m = dg.num_edges();
  idx->base = dg.base();  // O(1) shared handle
  idx->cc = std::move(cc);

  auto fresh_row = [&](vertex_id u) {
    return overlay_row<W>{dg.delta_row_of(u), dg.out_degree(u)};
  };

  const bool incremental =
      prev != nullptr && touched != nullptr && !prev->buckets.empty() &&
      prev->base.shares_storage(dg.base());
  if (incremental) {
    // Start from the predecessor's buckets; rebuild only touched ones.
    idx->buckets = prev->buckets;
    idx->overlay_verts = prev->overlay_verts;
    idx->overlay_entries = prev->overlay_entries;
    // Group the touched vertices by bucket (sorted, deduped).
    std::vector<std::pair<std::size_t, vertex_id>> by_bucket;
    by_bucket.reserve(touched->size());
    for (vertex_id u : *touched) {
      by_bucket.emplace_back(idx->bucket_of(u), u);
    }
    std::sort(by_bucket.begin(), by_bucket.end());
    by_bucket.erase(std::unique(by_bucket.begin(), by_bucket.end()),
                    by_bucket.end());
    std::size_t i = 0;
    while (i < by_bucket.size()) {
      const std::size_t b = by_bucket[i].first;
      std::size_t j = i;
      while (j < by_bucket.size() && by_bucket[j].first == b) ++j;
      auto nb = std::make_shared<overlay_bucket<W>>();
      const auto& old_rows = idx->buckets[b]->rows;
      nb->rows.reserve(old_rows.size() + (j - i));
      // Merge the old rows (vertex-sorted) with the touched vertices
      // (vertex-sorted): touched vertices get a fresh row iff their delta
      // is now non-empty, old rows carry over untouched.
      std::size_t a = 0, t = i;
      auto add_touched = [&](vertex_id u) {
        const auto& d = dg.delta_of(u);
        if (!d.empty()) {
          nb->rows.emplace_back(u, fresh_row(u));
          idx->overlay_entries += d.size();
          ++idx->overlay_verts;
        }
      };
      while (a < old_rows.size() || t < j) {
        const vertex_id tu = t < j ? by_bucket[t].second : kNoVertex;
        if (t == j || (a < old_rows.size() && old_rows[a].first < tu)) {
          nb->rows.push_back(old_rows[a]);
          ++a;
        } else {
          if (a < old_rows.size() && old_rows[a].first == tu) {
            // Replaced (or removed): retire the old row's counts.
            idx->overlay_entries -= old_rows[a].second.entries->size();
            --idx->overlay_verts;
            ++a;
          }
          add_touched(tu);
          ++t;
        }
      }
      idx->buckets[b] = std::move(nb);
      i = j;
    }
    // Still appropriately sized? Grow (full rebuild) once the average
    // bucket would exceed ~2x the target row count.
    if (overlay_internal::bucket_count_for(idx->overlay_verts) <=
        2 * idx->buckets.size()) {
      if (idx->overlay_verts == 0 && idx->n == idx->base.num_vertices()) {
        idx->buckets.clear();  // fully drained: drop the bucket array
      }
      return idx;
    }
    idx->buckets.clear();  // fall through to a full rebuild at the new size
    idx->overlay_verts = 0;
    idx->overlay_entries = 0;
  }

  // Full rebuild from the dynamic graph's overlay work-list. O(overlay).
  const auto& verts = dg.overlay_vertices();
  if (verts.empty()) return idx;
  const std::size_t nbuckets =
      overlay_internal::bucket_count_for(verts.size());
  std::vector<overlay_bucket<W>> building(nbuckets);
  idx->buckets.resize(nbuckets);
  // bucket_of reads buckets.size(); resize first, then distribute.
  for (vertex_id u : verts) {
    const auto& d = dg.delta_of(u);
    building[idx->bucket_of(u)].rows.emplace_back(u, fresh_row(u));
    idx->overlay_entries += d.size();
  }
  idx->overlay_verts = verts.size();
  for (std::size_t b = 0; b < nbuckets; ++b) {
    // Rows arrive vertex-sorted per bucket (verts is ascending and the
    // hash is order-scrambling but stable per vertex) — sort to be safe.
    std::sort(building[b].rows.begin(), building[b].rows.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    idx->buckets[b] =
        std::make_shared<overlay_bucket<W>>(std::move(building[b]));
  }
  return idx;
}

// Publication of the freshest overlay_snapshot: single writer swaps, any
// number of readers load. See file header for the freshness guarantee.
template <typename W>
class overlay_view {
 public:
  // Freshest index, or null if the writer has not published one yet.
  std::shared_ptr<const overlay_snapshot<W>> read() const {
    return idx_.load();
  }

  // Epoch of the freshest index (0 before the first refresh).
  std::uint64_t epoch() const {
    auto p = read();
    return p == nullptr ? 0 : p->epoch;
  }

  // Writer side: install a new index. Not reentrant.
  void refresh(std::shared_ptr<const overlay_snapshot<W>> idx) {
    idx_.store(std::move(idx));
  }

 private:
  parlib::atomic_shared_ptr<const overlay_snapshot<W>> idx_;
};

}  // namespace gbbs::serve
