// edgeMap (Section 3) with Ligra's direction optimization and the
// cache-friendly blocked sparse traversal of Section B (Algorithm 15).
//
// Every traversal here is written against the graph_view concept
// (graph_view.h), not the concrete CSR: any model — static CSR, compressed
// CSR, the live batch-dynamic graph, or the serving layer's overlay-fused
// dynamic_view — drives the same four modes. The direction threshold uses
// the view's *live* num_edges(), which for delta-overlaid models includes
// overlay inserts and excludes erases (a base-only count would skew the
// dense/sparse switch as the overlay grows).
//
// The functor F supplies:
//   bool update(u, v, w)        — applied in dense mode (one writer per v);
//   bool update_atomic(u, v, w) — applied in sparse mode (concurrent);
//   bool cond(v)                — whether v can still be acquired.
// Returning true from update means "v joins the output frontier".
//
// Modes:
//  * dense    — over all v with cond(v), scan in-neighbors sequentially and
//               stop early once cond(v) flips (the paper's optimized dense
//               traversal trading O(log n) depth for O(in-deg(v))).
//  * sparse   — edgeMapSparse: one output slot per incident edge, then
//               filter. Kept (a) as the baseline Table 6 compares against,
//               and (b) selectable via edge_map_options.
//  * blocked  — edgeMapBlocked (Algorithm 15): logically split the incident
//               edges into bsize-blocks by binary-searching the prefix-summed
//               degree array, pack live neighbors block-locally, then one
//               scan + gather. Writes O(live neighbors) slots instead of
//               O(sum of degrees). Default sparse mode.
//
// The registry's edgemap.* counters (obs::event_counts, read by
// bench_locality) are updated once per call (never per edge).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "graph/vertex_subset.h"
#include "obs/registry.h"
#include "parlib/atomics.h"
#include "parlib/cancellation.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

struct edge_map_options {
  // Dense/sparse switch threshold; <0 means m/20 (Ligra's default).
  long threshold = -1;
  // Force a particular sparse implementation (both write the same frontier).
  bool use_blocked = true;
  // Disable the dense mode entirely (used by the locality bench to compare
  // the two sparse traversals head-to-head, Section 6 "Locality").
  bool allow_dense = true;
  // Dense-forward (Ligra): in dense mode, iterate the OUT-edges of frontier
  // members (using update_atomic) instead of scanning every vertex's
  // in-edges. Wins when the frontier is dense but few targets still satisfy
  // cond (no early-exit benefit to give up).
  bool dense_forward = false;
};

namespace internal {

inline constexpr std::size_t kEdgeMapBlock = 4096;

template <graph_view Graph>
std::uint64_t frontier_degree_sum(const Graph& g, const vertex_subset& vs) {
  if (vs.is_dense()) {
    const auto& d = vs.dense();
    auto degs = parlib::tabulate<std::uint64_t>(
        g.num_vertices(), [&](std::size_t v) {
          return d[v] ? g.out_degree(static_cast<vertex_id>(v)) : 0;
        });
    return parlib::reduce_add(degs);
  }
  auto degs = parlib::map(vs.sparse(), [&](vertex_id v) {
    return static_cast<std::uint64_t>(g.out_degree(v));
  });
  return parlib::reduce_add(degs);
}

// Dense traversal: for every v with cond(v), scan in-neighbors u; apply
// update(u, v, w) for u in the frontier; stop once cond(v) is false.
template <graph_view Graph, typename F>
vertex_subset edge_map_dense(const Graph& g, vertex_subset& frontier, F& f) {
  frontier.to_dense();
  const auto& in_frontier = frontier.dense();
  const vertex_id n = g.num_vertices();
  std::vector<std::uint8_t> next(n, 0);
  parlib::parallel_for(0, n, [&](std::size_t vi) {
    // Cancellation: flag-only per vertex, full (deadline) poll every 256th —
    // a cancelled traversal leaves `next` partially set; the caller discards.
    if ((vi & 255u) == 0 ? parlib::cancel::poll() : parlib::cancel::cancelled())
      return;
    const auto v = static_cast<vertex_id>(vi);
    if (!f.cond(v)) return;
    g.map_in_neighbors_early_exit(v, [&](vertex_id dst, vertex_id u, auto w) {
      if (in_frontier[u] && f.update(u, dst, w)) next[dst] = 1;
      return f.cond(dst);
    });
  });
  return vertex_subset(n, std::move(next));
}

// Dense-forward traversal (Ligra): parallel over frontier members (read
// from the dense bitmap), scanning their out-edges with the atomic update.
template <graph_view Graph, typename F>
vertex_subset edge_map_dense_forward(const Graph& g, vertex_subset& frontier,
                                     F& f) {
  frontier.to_dense();
  const auto& in_frontier = frontier.dense();
  const vertex_id n = g.num_vertices();
  std::vector<std::uint8_t> next(n, 0);
  parlib::parallel_for(0, n, [&](std::size_t ui) {
    if ((ui & 255u) == 0 ? parlib::cancel::poll() : parlib::cancel::cancelled())
      return;
    if (!in_frontier[ui]) return;
    const auto u = static_cast<vertex_id>(ui);
    g.map_out_neighbors(u, [&](vertex_id, vertex_id v, auto w) {
      if (f.cond(v) && f.update_atomic(u, v, w)) {
        if (!next[v]) parlib::test_and_set(&next[v]);
      }
    });
  });
  return vertex_subset(n, std::move(next));
}

// edgeMapSparse: writes one slot per incident edge, then filters out the
// non-live ones.
template <graph_view Graph, typename F>
vertex_subset edge_map_sparse(const Graph& g, vertex_subset& frontier, F& f) {
  frontier.to_sparse();
  const auto& ids = frontier.sparse();
  auto offsets = parlib::map(ids, [&](vertex_id v) {
    return static_cast<std::uint64_t>(g.out_degree(v));
  });
  const std::uint64_t total = parlib::scan_inplace(offsets);
  std::vector<vertex_id> out(total, kNoVertex);
  parlib::parallel_for(0, ids.size(), [&](std::size_t i) {
    // Skipped slots stay kNoVertex and are filtered out below.
    if ((i & 63u) == 0 ? parlib::cancel::poll() : parlib::cancel::cancelled())
      return;
    const vertex_id u = ids[i];
    std::uint64_t k = offsets[i];
    g.map_out_neighbors_range(u, 0, g.out_degree(u),
                    [&](vertex_id, vertex_id v, auto w) {
                      out[k] = (f.cond(v) && f.update_atomic(u, v, w))
                                   ? v
                                   : kNoVertex;
                      ++k;
                    });
  });
  const auto& ev = obs::events();
  ev.edgemap_edges_examined.add(total);
  ev.edgemap_slots_written.add(total);
  auto live = parlib::filter(out, [](vertex_id v) { return v != kNoVertex; });
  return vertex_subset(g.num_vertices(), std::move(live));
}

// edgeMapBlocked (Algorithm 15).
template <graph_view Graph, typename F>
vertex_subset edge_map_blocked(const Graph& g, vertex_subset& frontier,
                               F& f) {
  frontier.to_sparse();
  const auto& ids = frontier.sparse();
  // O = prefix sums of frontier degrees.
  auto offsets = parlib::map(ids, [&](vertex_id v) {
    return static_cast<std::uint64_t>(g.out_degree(v));
  });
  const std::uint64_t total = parlib::scan_inplace(offsets);
  if (total == 0) return vertex_subset(g.num_vertices());
  const std::size_t nblocks = (total - 1) / kEdgeMapBlock + 1;
  // B[i] = index of the frontier vertex containing edge i * bsize.
  std::vector<std::size_t> block_vertex(nblocks + 1);
  parlib::parallel_for(0, nblocks, [&](std::size_t b) {
    const std::uint64_t edge_lo = b * kEdgeMapBlock;
    // Last offset <= edge_lo.
    const auto it =
        std::upper_bound(offsets.begin(), offsets.end(), edge_lo);
    block_vertex[b] = static_cast<std::size_t>(it - offsets.begin()) - 1;
  });
  block_vertex[nblocks] = ids.size();
  std::vector<vertex_id> scratch(total);
  std::vector<std::size_t> live_counts(nblocks);
  parlib::parallel_for(
      0, nblocks,
      [&](std::size_t b) {
        // One deadline poll per 4K-edge block; a cancelled block contributes
        // nothing to the output frontier.
        if (parlib::cancel::poll()) {
          live_counts[b] = 0;
          return;
        }
        const std::uint64_t edge_lo = b * kEdgeMapBlock;
        const std::uint64_t edge_hi = std::min<std::uint64_t>(
            total, edge_lo + kEdgeMapBlock);
        std::size_t out_k = edge_lo;
        std::size_t vi = block_vertex[b];
        std::uint64_t e = edge_lo;
        while (e < edge_hi && vi < ids.size()) {
          const vertex_id u = ids[vi];
          const std::uint64_t v_start = offsets[vi];
          const std::uint64_t v_end =
              v_start + g.out_degree(u);
          const std::uint64_t lo = e - v_start;
          const std::uint64_t hi = std::min(edge_hi, v_end) - v_start;
          g.map_out_neighbors_range(u, lo, hi, [&](vertex_id, vertex_id v, auto w) {
            if (f.cond(v) && f.update_atomic(u, v, w)) {
              scratch[out_k++] = v;
            }
          });
          e = v_start + hi;
          ++vi;
        }
        live_counts[b] = out_k - edge_lo;
      },
      1);
  std::vector<std::size_t> out_offsets = live_counts;
  const std::size_t n_live = parlib::scan_inplace(out_offsets);
  std::vector<vertex_id> live(n_live);
  parlib::parallel_for(0, nblocks, [&](std::size_t b) {
    std::copy(scratch.begin() + b * kEdgeMapBlock,
              scratch.begin() + b * kEdgeMapBlock + live_counts[b],
              live.begin() + out_offsets[b]);
  });
  const auto& ev = obs::events();
  ev.edgemap_edges_examined.add(total);
  ev.edgemap_slots_written.add(n_live);
  return vertex_subset(g.num_vertices(), std::move(live));
}

}  // namespace internal

template <graph_view Graph, typename F>
vertex_subset edge_map(const Graph& g, vertex_subset& frontier, F f,
                       edge_map_options opts = {}) {
  // Cancellation / deadline check at every round boundary: a cancelled
  // computation's next edge_map returns an empty frontier, which terminates
  // any frontier-driven loop (BFS, BC, …) naturally.
  if (parlib::cancel::poll()) return vertex_subset(g.num_vertices());
  if (frontier.empty()) return vertex_subset(g.num_vertices());
  const std::uint64_t threshold =
      opts.threshold >= 0 ? static_cast<std::uint64_t>(opts.threshold)
                          : g.num_edges() / 20;
  const std::uint64_t deg_sum = internal::frontier_degree_sum(g, frontier);
  // No out-edges, no output: skip the dense mode's O(n) scan.
  if (deg_sum == 0) return vertex_subset(g.num_vertices());
  if (opts.allow_dense && frontier.size() + deg_sum > threshold) {
    obs::events().edgemap_dense_vertices.add(g.num_vertices());
    if (opts.dense_forward) {
      return internal::edge_map_dense_forward(g, frontier, f);
    }
    return internal::edge_map_dense(g, frontier, f);
  }
  if (opts.use_blocked) return internal::edge_map_blocked(g, frontier, f);
  return internal::edge_map_sparse(g, frontier, f);
}

// edgeMapData (Julienne): like the blocked sparse edgeMap, but
// f.update_atomic returns std::optional<D>; engaged results are collected as
// (vertex, D) pairs. Used by wBFS to ship (vertex, new-bucket) pairs.
// use_blocked=false selects the unblocked edgeMapSparse-style traversal
// (one slot written per incident edge) — the Table 6 baseline.
template <typename D, graph_view Graph, typename F>
vertex_subset_data<D> edge_map_data(const Graph& g, vertex_subset& frontier,
                                    F f, bool use_blocked = true) {
  using KV = std::pair<vertex_id, D>;
  if (parlib::cancel::poll()) return vertex_subset_data<D>(g.num_vertices());
  if (frontier.empty()) return vertex_subset_data<D>(g.num_vertices());
  frontier.to_sparse();
  if (!use_blocked) {
    const auto& sids = frontier.sparse();
    auto soffsets = parlib::map(sids, [&](vertex_id v) {
      return static_cast<std::uint64_t>(g.out_degree(v));
    });
    const std::uint64_t stotal = parlib::scan_inplace(soffsets);
    std::vector<std::optional<KV>> slots(stotal);
    parlib::parallel_for(0, sids.size(), [&](std::size_t i) {
      // Skipped slots stay disengaged and drop out in map_maybe below.
      if ((i & 63u) == 0 ? parlib::cancel::poll() : parlib::cancel::cancelled())
        return;
      const vertex_id u = sids[i];
      std::uint64_t k = soffsets[i];
      g.map_out_neighbors_range(u, 0, g.out_degree(u),
                      [&](vertex_id, vertex_id v, auto w) {
                        if (f.cond(v)) {
                          if (std::optional<D> r = f.update_atomic(u, v, w)) {
                            slots[k] = KV{v, *r};
                          }
                        }
                        ++k;
                      });
    });
    const auto& ev = obs::events();
    ev.edgemap_edges_examined.add(stotal);
    ev.edgemap_slots_written.add(stotal);
    auto live = parlib::map_maybe(slots, [](const std::optional<KV>& s) {
      return s;
    });
    return vertex_subset_data<D>(g.num_vertices(), std::move(live));
  }
  const auto& ids = frontier.sparse();
  auto offsets = parlib::map(ids, [&](vertex_id v) {
    return static_cast<std::uint64_t>(g.out_degree(v));
  });
  const std::uint64_t total = parlib::scan_inplace(offsets);
  if (total == 0) return vertex_subset_data<D>(g.num_vertices());
  constexpr std::size_t kBlock = internal::kEdgeMapBlock;
  const std::size_t nblocks = (total - 1) / kBlock + 1;
  std::vector<std::size_t> block_vertex(nblocks + 1);
  parlib::parallel_for(0, nblocks, [&](std::size_t b) {
    const std::uint64_t edge_lo = b * kBlock;
    const auto it =
        std::upper_bound(offsets.begin(), offsets.end(), edge_lo);
    block_vertex[b] = static_cast<std::size_t>(it - offsets.begin()) - 1;
  });
  block_vertex[nblocks] = ids.size();
  std::vector<KV> scratch(total);
  std::vector<std::size_t> live_counts(nblocks);
  parlib::parallel_for(
      0, nblocks,
      [&](std::size_t b) {
        if (parlib::cancel::poll()) {
          live_counts[b] = 0;
          return;
        }
        const std::uint64_t edge_lo = b * kBlock;
        const std::uint64_t edge_hi =
            std::min<std::uint64_t>(total, edge_lo + kBlock);
        std::size_t out_k = edge_lo;
        std::size_t vi = block_vertex[b];
        std::uint64_t e = edge_lo;
        while (e < edge_hi && vi < ids.size()) {
          const vertex_id u = ids[vi];
          const std::uint64_t v_start = offsets[vi];
          const std::uint64_t v_end = v_start + g.out_degree(u);
          const std::uint64_t lo = e - v_start;
          const std::uint64_t hi = std::min(edge_hi, v_end) - v_start;
          g.map_out_neighbors_range(u, lo, hi, [&](vertex_id, vertex_id v, auto w) {
            if (f.cond(v)) {
              if (std::optional<D> r = f.update_atomic(u, v, w)) {
                scratch[out_k++] = {v, *r};
              }
            }
          });
          e = v_start + hi;
          ++vi;
        }
        live_counts[b] = out_k - edge_lo;
      },
      1);
  std::vector<std::size_t> out_offsets = live_counts;
  const std::size_t n_live = parlib::scan_inplace(out_offsets);
  std::vector<KV> live(n_live);
  parlib::parallel_for(0, nblocks, [&](std::size_t b) {
    std::copy(scratch.begin() + b * kBlock,
              scratch.begin() + b * kBlock + live_counts[b],
              live.begin() + out_offsets[b]);
  });
  const auto& ev = obs::events();
  ev.edgemap_edges_examined.add(total);
  ev.edgemap_slots_written.add(n_live);
  return vertex_subset_data<D>(g.num_vertices(), std::move(live));
}

}  // namespace gbbs
