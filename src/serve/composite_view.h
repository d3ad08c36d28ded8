// Composite snapshots: the published form of the sharded ingest path.
//
// A composite_snapshot is the barrier product of N shard writers — one
// immutable overlay_snapshot per shard, all built against the same
// composite clock value V (every shard has applied batches 1..V), plus
// the partition that says which shard owns which vertex row and the
// barrier-merged connectivity. Because the update stream is split by
// owner(u) *after* normalization (and symmetric batches are mirrored
// before the split — the double-booking invariant, see
// shard_partition.h), the shards' row sets are disjoint and their union
// is exactly the live graph: vertex u's complete out/in row lives in
// owner(u)'s shard and nowhere else.
//
// composite_view stitches those per-shard CSR blocks into one graph_view
// model by pure routing — every neighborhood operation on u forwards to
// owner(u)'s shard snapshot (base ⊕ delta merged per neighbor, same as
// dynamic_view) — so edge_map and the whole analytics suite run
// unmodified over the sharded base, and nothing is ever copied or merged
// across shards on the read path. Cross-shard coordination happens only
// at the publish barrier, never per edge.
//
// Everything here is immutable and O(1)-copy (shared handles); a
// composite_snapshot outlives its manager the same way an
// overlay_snapshot outlives its writer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dynamic/shard_partition.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "serve/component_view.h"
#include "serve/overlay_view.h"

namespace gbbs::serve {

template <typename W>
struct composite_snapshot {
  // Composite clock value: every shard part was built having applied
  // batches 1..clock (the shard-vector minimum at publish time).
  std::uint64_t clock = 0;
  vertex_id n = 0;  // live vertex count (equal across parts by lockstep
                    // max_vertex growth)
  edge_id m = 0;    // live directed edge count = sum of the parts' m
  dynamic::shard_partition part;
  std::vector<std::shared_ptr<const overlay_snapshot<W>>> parts;
  component_view cc;  // barrier-merged connectivity at `clock`

  std::size_t num_shards() const { return parts.size(); }

  const overlay_snapshot<W>& owner(vertex_id u) const {
    return *parts[part.owner(u)];
  }

  // Point reads route to the owning shard — O(1)/O(deg), no cross-shard
  // coordination.
  vertex_id degree(vertex_id u) const { return owner(u).degree(u); }
  std::vector<vertex_id> neighbors(vertex_id u) const {
    return owner(u).neighbors(u);
  }
  bool contains_edge(vertex_id u, vertex_id v) const {
    return owner(u).contains_edge(u, v);
  }
};

// The stitched graph_view model: per-vertex routing to the owning shard's
// snapshot. Symmetric (serving graphs), in-side aliases out-side. Holds a
// shared handle; copies are O(1).
template <typename W>
class composite_view {
 public:
  using weight_type = W;

  composite_view() = default;
  explicit composite_view(std::shared_ptr<const composite_snapshot<W>> cs)
      : cs_(std::move(cs)) {}

  explicit operator bool() const { return cs_ != nullptr; }
  const composite_snapshot<W>& snapshot() const { return *cs_; }

  vertex_id num_vertices() const { return cs_->n; }
  // Live count summed across shards — what edge_map's dense/sparse
  // direction threshold must see.
  edge_id num_edges() const { return cs_->m; }
  bool symmetric() const { return true; }

  vertex_id out_degree(vertex_id v) const { return cs_->degree(v); }
  vertex_id in_degree(vertex_id v) const { return cs_->degree(v); }

  template <typename F>
  void map_out_neighbors(vertex_id v, const F& f) const {
    cs_->owner(v).merge_row(v, [&](vertex_id ngh, W w) { f(v, ngh, w); });
  }

  template <typename F>
  void map_in_neighbors(vertex_id v, const F& f) const {
    map_out_neighbors(v, f);
  }

  template <typename F>
  void map_out_neighbors_early_exit(vertex_id v, const F& f) const {
    cs_->owner(v).merge_row_early_exit(
        v, [&](vertex_id ngh, W w) { return f(v, ngh, w); });
  }

  template <typename F>
  void map_in_neighbors_early_exit(vertex_id v, const F& f) const {
    map_out_neighbors_early_exit(v, f);
  }

  template <typename F>
  void map_out_neighbors_range(vertex_id v, std::size_t j_lo,
                               std::size_t j_hi, const F& f) const {
    cs_->owner(v).merge_row_range(
        v, j_lo, j_hi, [&](vertex_id ngh, W w) { f(v, ngh, w); });
  }

  template <typename F>
  std::size_t count_out(vertex_id v, const F& pred) const {
    std::size_t c = 0;
    map_out_neighbors(v, [&](vertex_id a, vertex_id b, W w) {
      c += pred(a, b, w) ? 1 : 0;
    });
    return c;
  }

 private:
  std::shared_ptr<const composite_snapshot<W>> cs_;
};

// Read-side routing table for the sharded ingest path: the owning
// shard's overlay_view, per vertex. Built by
// sharded_snapshot_manager::router(); the referenced views must outlive
// every engine holding the router. Point reads keyed on a vertex go to
// owner(u)'s freshest index — shard-apply fresh, no cross-shard
// coordination; everything else (connectivity, analytics) is served from
// the latest *composite* version, whose freshness is the publish barrier.
template <typename W>
struct shard_router {
  dynamic::shard_partition part;
  std::vector<const overlay_view<W>*> overlays;

  bool empty() const { return overlays.empty(); }
  const overlay_view<W>& owner(vertex_id u) const {
    return *overlays[part.owner(u)];
  }
};

}  // namespace gbbs::serve

namespace gbbs {
static_assert(graph_view<serve::composite_view<empty_weight>>);
static_assert(graph_view<serve::composite_view<std::uint32_t>>);
}  // namespace gbbs
