// edgeMap (Section 3) with Ligra's direction optimization and the
// cache-friendly blocked sparse traversal of Section B (Algorithm 15).
//
// Every traversal here is written against the graph_view concept
// (graph_view.h), not the concrete CSR: any model — static CSR, compressed
// CSR, the live batch-dynamic graph, or the serving layer's overlay-fused
// dynamic_view — drives the same kernels. The direction threshold uses
// the view's *live* num_edges(), which for delta-overlaid models includes
// overlay inserts and excludes erases (a base-only count would skew the
// dense/sparse switch as the overlay grows).
//
// The functor F supplies:
//   bool update(u, v, w)        — applied in dense mode (one writer per v);
//   bool update_atomic(u, v, w) — applied in sparse mode (concurrent);
//   bool cond(v)                — optional: whether v can still be acquired.
// Returning true from update means "v joins the output frontier".
//
// Kernels:
//  * dense     — over all v with cond(v), scan in-neighbors sequentially and
//                stop early once cond(v) flips (the paper's optimized dense
//                traversal, O(in-deg(v)) depth); with no cond, scan them all.
//  * blocked   — edgeMapBlocked (Algorithm 15): logically split the incident
//                edges into blocks by binary-searching the prefix-summed
//                degree array, pack live neighbors block-locally, then one
//                scan + gather. Writes O(live neighbors) slots instead of
//                O(sum of degrees). About 8 blocks per active worker, of
//                [kEdgeMapMinBlock, kEdgeMapBlock] edges. The sparse mode of
//                edge_map and the default of edge_map_data.
//  * unblocked — edgeMapSparse: one output slot per incident edge, then
//                filter. Reachable only through edge_map_data, as the
//                baseline Table 6 compares the blocked kernel against.
//
// The registry's edgemap.* counters (obs::event_counts, read by
// bench_locality) are updated once per call (never per edge).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "graph/vertex_subset.h"
#include "obs/registry.h"
#include "parlib/cancellation.h"
#include "parlib/parallel.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

// Which traversal edge_map runs. `automatic` is Ligra's rule: dense once the
// frontier's size plus out-degree sum exceeds m / kDenseDivisor: 20 if the
// dense kernel can exit early on cond, 3 if it has none and reads all n + m.
// `sparse` always runs the blocked kernel (MIS and coloring: the dense
// kernel's early exit on cond does not suit their counting updates);
// `dense` always runs the dense one.
enum class edge_map_direction { automatic, sparse, dense };

namespace internal {

inline constexpr std::uint64_t kEdgeMapBlock = 4096;  // block size cap
inline constexpr std::uint64_t kEdgeMapMinBlock = 512;

template <typename F>
concept has_cond = requires(const F& f, vertex_id v) { f.cond(v); };
template <typename F>
inline constexpr std::uint64_t kDenseDivisor = has_cond<F> ? 20 : 3;

template <typename F>
bool cond_or_true(const F& f, vertex_id v) {
  if constexpr (has_cond<F>) return f.cond(v);
  return true;
}

// Edges per block for a blocked round of `total` edges.
inline std::uint64_t block_size(std::uint64_t total) {
  return std::clamp<std::uint64_t>(total / (8 * parlib::num_active_workers()),
                                   kEdgeMapMinBlock, kEdgeMapBlock);
}

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

// Exclusive prefix sums of the frontier's out-degrees; *total = their sum.
template <graph_view Graph>
auto degree_offsets(const Graph& g, const std::vector<vertex_id>& ids,
                    std::uint64_t* total) {
  auto offsets = parlib::map(ids, [&](vertex_id v) {
    return static_cast<std::uint64_t>(g.out_degree(v));
  });
  *total = parlib::scan_inplace(offsets);
  return offsets;
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
    if (!cond_or_true(f, v)) return;
    g.map_in_neighbors_early_exit(v, [&](vertex_id dst, vertex_id u, auto w) {
      if (in_frontier[u] && f.update(u, dst, w)) next[dst] = 1;
      return cond_or_true(f, dst);
    });
  });
  return vertex_subset(n, std::move(next));
}

// edgeMapBlocked (Algorithm 15) over the sparse frontier `ids`. emit(u, v, w)
// returns the element of type T that a live edge contributes to the output,
// or std::nullopt.
template <typename T, graph_view Graph, typename Emit>
std::vector<T> edge_map_blocked(const Graph& g,
                                const std::vector<vertex_id>& ids,
                                Emit& emit) {
  // O = prefix sums of frontier degrees.
  std::uint64_t total = 0;
  const auto offsets = degree_offsets(g, ids, &total);
  if (total == 0) return {};
  const std::uint64_t bsize = block_size(total);
  const std::size_t nblocks = (total - 1) / bsize + 1;
  std::vector<T> scratch(total);
  std::vector<std::size_t> live_counts(nblocks);
  parlib::parallel_for(
      0, nblocks,
      [&](std::size_t b) {
        // One deadline poll per block; a cancelled block contributes
        // nothing to the output frontier.
        if (parlib::cancel::poll()) {
          live_counts[b] = 0;
          return;
        }
        const std::uint64_t edge_lo = b * bsize;
        const std::uint64_t edge_hi = std::min(total, edge_lo + bsize);
        std::size_t out_k = edge_lo;
        // The frontier vertex containing edge_lo: last offset <= edge_lo.
        std::size_t vi = std::upper_bound(offsets.begin(), offsets.end(),
                                          edge_lo) - offsets.begin() - 1;
        std::uint64_t e = edge_lo;
        while (e < edge_hi && vi < ids.size()) {
          const vertex_id u = ids[vi];
          const std::uint64_t v_start = offsets[vi];
          const std::uint64_t v_end = v_start + g.out_degree(u);
          const std::uint64_t lo = e - v_start;
          const std::uint64_t hi = std::min(edge_hi, v_end) - v_start;
          g.map_out_neighbors_range(
              u, lo, hi, [&](vertex_id, vertex_id v, auto w) {
                if (std::optional<T> r = emit(u, v, w)) {
                  scratch[out_k++] = std::move(*r);
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
  std::vector<T> live(n_live);
  parlib::parallel_for(0, nblocks, [&](std::size_t b) {
    std::copy_n(scratch.begin() + b * bsize, live_counts[b],
                live.begin() + out_offsets[b]);
  });
  const auto& ev = obs::events();
  ev.edgemap_edges_examined.add(total);
  ev.edgemap_slots_written.add(n_live);
  return live;
}

// edgeMapSparse: writes one slot per incident edge, then filters out the
// non-live ones. Same emit contract as edge_map_blocked.
template <typename T, graph_view Graph, typename Emit>
std::vector<T> edge_map_unblocked(const Graph& g,
                                  const std::vector<vertex_id>& ids,
                                  Emit& emit) {
  std::uint64_t total = 0;
  const auto offsets = degree_offsets(g, ids, &total);
  std::vector<std::optional<T>> slots(total);
  parlib::parallel_for(0, ids.size(), [&](std::size_t i) {
    // Skipped slots stay disengaged and drop out in map_maybe below.
    if ((i & 63u) == 0 ? parlib::cancel::poll() : parlib::cancel::cancelled())
      return;
    const vertex_id u = ids[i];
    std::uint64_t k = offsets[i];
    g.map_out_neighbors_range(u, 0, g.out_degree(u),
                              [&](vertex_id, vertex_id v, auto w) {
                                if (std::optional<T> r = emit(u, v, w)) {
                                  slots[k] = std::move(r);
                                }
                                ++k;
                              });
  });
  const auto& ev = obs::events();
  ev.edgemap_edges_examined.add(total);
  ev.edgemap_slots_written.add(total);
  return parlib::map_maybe(slots, [](const std::optional<T>& s) { return s; });
}

}  // namespace internal

template <graph_view Graph, typename F>
vertex_subset edge_map(const Graph& g, vertex_subset& frontier, F f,
                       edge_map_direction dir = edge_map_direction::automatic) {
  // Cancellation / deadline check at every round boundary: a cancelled
  // computation's next edge_map returns an empty frontier, which terminates
  // any frontier-driven loop (BFS, BC, …) naturally.
  if (parlib::cancel::poll()) return vertex_subset(g.num_vertices());
  if (frontier.empty()) return vertex_subset(g.num_vertices());
  const std::uint64_t deg_sum = internal::frontier_degree_sum(g, frontier);
  // No out-edges, no output: skip the dense mode's O(n) scan.
  if (deg_sum == 0) return vertex_subset(g.num_vertices());
  if (dir == edge_map_direction::dense ||
      (dir == edge_map_direction::automatic &&
       frontier.size() + deg_sum >
           g.num_edges() / internal::kDenseDivisor<F>)) {
    obs::events().edgemap_dense_vertices.add(g.num_vertices());
    return internal::edge_map_dense(g, frontier, f);
  }
  frontier.to_sparse();
  auto emit = [&](vertex_id u, vertex_id v,
                  auto w) -> std::optional<vertex_id> {
    if (internal::cond_or_true(f, v) && f.update_atomic(u, v, w)) return v;
    return std::nullopt;
  };
  return vertex_subset(g.num_vertices(), internal::edge_map_blocked<vertex_id>(
                                             g, frontier.sparse(), emit));
}

// edgeMapData (Julienne): sparse-only edgeMap whose f.update_atomic returns
// std::optional<D>; engaged results are collected as (vertex, D) pairs. Used
// by wBFS to ship (vertex, new-bucket) pairs. use_blocked=false selects the
// unblocked kernel (one slot written per incident edge) — the Table 6
// baseline.
template <typename D, graph_view Graph, typename F>
vertex_subset_data<D> edge_map_data(const Graph& g, vertex_subset& frontier,
                                    F f, bool use_blocked = true) {
  using KV = std::pair<vertex_id, D>;
  if (parlib::cancel::poll()) return vertex_subset_data<D>(g.num_vertices());
  if (frontier.empty()) return vertex_subset_data<D>(g.num_vertices());
  frontier.to_sparse();
  auto emit = [&](vertex_id u, vertex_id v, auto w) -> std::optional<KV> {
    if (internal::cond_or_true(f, v)) {
      if (std::optional<D> r = f.update_atomic(u, v, w)) return KV{v, *r};
    }
    return std::nullopt;
  };
  const auto& ids = frontier.sparse();
  return vertex_subset_data<D>(
      g.num_vertices(),
      use_blocked ? internal::edge_map_blocked<KV>(g, ids, emit)
                  : internal::edge_map_unblocked<KV>(g, ids, emit));
}

}  // namespace gbbs
