// Minimum spanning forest (Algorithm 9): Boruvka over an edge list with
// priority-writes and pointer-jumping, O(m log n) work and O(log^2 n) depth
// on the PW-MT-RAM.
//
// Following Section 4, the full edge list is never materialized at once in
// the driver: a constant number of *filtering steps* each (a) select the
// ~3n/2 lightest remaining edges with an approximate k-th smallest pivot,
// (b) run Boruvka on that prefix, and (c) pack out edges whose endpoints
// are now in the same component. The remainder is solved by one final
// Boruvka call. Ties are broken by original edge index, which makes the
// chosen forest deterministic and total weight minimal.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "parlib/atomics.h"
#include "parlib/parallel.h"
#include "parlib/random.h"
#include "parlib/sequence_ops.h"
#include "parlib/sort.h"

namespace gbbs {

namespace msf_internal {

struct indexed_edge {
  vertex_id u, v;
  std::uint32_t w;
  std::uint64_t id;  // original edge index (tie-breaker)
};

// (weight, id) packed for priority-writes: lower weight wins, then lower id.
inline std::uint64_t edge_priority(const indexed_edge& e, std::uint32_t idx) {
  return (static_cast<std::uint64_t>(e.w) << 32) | idx;
}

inline constexpr std::uint64_t kNoPriority =
    std::numeric_limits<std::uint64_t>::max();

// The edges satisfying `keep` whose endpoints lie in different components,
// relabeled to their component ids. The filter is stable, so positions (the
// priority tie-break) keep the original edge order.
template <typename F>
std::vector<indexed_edge> shortcut(const std::vector<indexed_edge>& edges,
                                   const std::vector<vertex_id>& parents,
                                   const F& keep) {
  auto out = parlib::filter(edges, [&](const indexed_edge& e) {
    return keep(e) && parents[e.u] != parents[e.v];
  });
  parlib::parallel_for(0, out.size(), [&](std::size_t i) {
    out[i].u = parents[out[i].u];
    out[i].v = parents[out[i].v];
  });
  return out;
}

// One Boruvka solve over `edges` whose endpoints are component ids in the
// global `parents` array (updated in place); appends chosen original edge
// ids to `forest`.
inline void boruvka(std::vector<vertex_id>& parents,
                    std::vector<indexed_edge> edges,
                    std::vector<std::uint64_t>& forest) {
  const std::size_t n = parents.size();
  std::vector<std::uint64_t> best(n, kNoPriority);
  while (!edges.empty()) {
    // Min-weight incident edge per live component root.
    parlib::parallel_for(0, edges.size(), [&](std::size_t i) {
      const auto pri = edge_priority(edges[i], static_cast<std::uint32_t>(i));
      parlib::write_min(&best[edges[i].u], pri);
      parlib::write_min(&best[edges[i].v], pri);
    });
    // An edge is chosen if it won on either endpoint. The endpoint it won
    // on hooks onto the other endpoint; a 2-cycle (edge won on both) is
    // broken by rooting the larger endpoint.
    std::vector<std::uint8_t> chosen(edges.size(), 0);
    parlib::parallel_for(0, edges.size(), [&](std::size_t i) {
      const auto& e = edges[i];
      const auto pri = edge_priority(e, static_cast<std::uint32_t>(i));
      const bool won_u = best[e.u] == pri;
      const bool won_v = best[e.v] == pri;
      if (!won_u && !won_v) return;
      chosen[i] = 1;
      if (won_u && won_v) {
        const vertex_id root = std::max(e.u, e.v);
        const vertex_id child = std::min(e.u, e.v);
        parents[child] = root;
      } else if (won_u) {
        parents[e.u] = e.v;
      } else {
        parents[e.v] = e.u;
      }
    });
    auto ids = parlib::map(edges, [](const auto& e) { return e.id; });
    auto won_ids = parlib::pack(ids, chosen);
    const std::size_t old_size = forest.size();
    forest.resize(old_size + won_ids.size());
    parlib::parallel_for(0, won_ids.size(), [&](std::size_t i) {
      forest[old_size + i] = won_ids[i];
    });
    // Pointer-jump every touched vertex to its root. Jumps read parents that
    // other jumps rewrite (to an ancestor either way), hence atomic accesses.
    parlib::parallel_for(0, n, [&](std::size_t v) {
      vertex_id root = static_cast<vertex_id>(v);
      while (parlib::atomic_load(&parents[root]) != root) {
        root = parlib::atomic_load(&parents[root]);
      }
      parlib::atomic_store(&parents[v], root);
    });
    // Reset winners (edges sharing an endpoint store the same value
    // concurrently) and relabel/filter the surviving edges.
    parlib::parallel_for(0, edges.size(), [&](std::size_t i) {
      parlib::atomic_store(&best[edges[i].u], kNoPriority);
      parlib::atomic_store(&best[edges[i].v], kNoPriority);
    });
    edges = shortcut(edges, parents, [](const indexed_edge&) { return true; });
  }
}

}  // namespace msf_internal

struct msf_result {
  std::vector<edge<std::uint32_t>> forest;  // original endpoints + weights
  std::uint64_t total_weight = 0;
  std::size_t num_filter_steps = 0;
};

// use_filtering=false runs plain edge-list Boruvka (the Zhou baseline the
// paper compares against in Section 6).
template <typename Graph>
msf_result msf(const Graph& g, bool use_filtering = true,
               std::size_t filter_steps = 3) {
  const vertex_id n = g.num_vertices();
  // Each undirected edge once (u < v), with original indices.
  auto all = g.edges();
  auto half = parlib::filter(all, [](const auto& e) { return e.u < e.v; });
  std::vector<msf_internal::indexed_edge> edges(half.size());
  parlib::parallel_for(0, half.size(), [&](std::size_t i) {
    edges[i] = {half[i].u, half[i].v, half[i].w, i};
  });
  std::vector<edge<std::uint32_t>> originals(half.size());
  parlib::parallel_for(0, half.size(),
                       [&](std::size_t i) { originals[i] = half[i]; });

  std::vector<vertex_id> parents(n);
  parlib::parallel_for(0, n, [&](std::size_t v) {
    parents[v] = static_cast<vertex_id>(v);
  });
  std::vector<std::uint64_t> forest;
  msf_result res;

  if (use_filtering) {
    const std::size_t target = 3 * static_cast<std::size_t>(n) / 2 + 1;
    for (std::size_t step = 0;
         step < filter_steps && edges.size() > 2 * target; ++step) {
      ++res.num_filter_steps;
      auto weights = parlib::map(edges, [](const auto& e) { return e.w; });
      const std::uint32_t pivot = parlib::approximate_kth_smallest(
          weights, target, parlib::random(0x317 + step));
      auto light = parlib::filter(
          edges, [&](const auto& e) { return e.w <= pivot; });
      if (light.empty() || light.size() == edges.size()) break;
      msf_internal::boruvka(parents, std::move(light), forest);
      // Pack out: heavy edges whose endpoints merged are shortcut.
      edges = msf_internal::shortcut(
          edges, parents,
          [&](const msf_internal::indexed_edge& e) { return e.w > pivot; });
    }
  }
  msf_internal::boruvka(parents, std::move(edges), forest);

  res.forest.resize(forest.size());
  parlib::parallel_for(0, forest.size(), [&](std::size_t i) {
    res.forest[i] = originals[forest[i]];
  });
  auto ws = parlib::map(res.forest, [](const auto& e) {
    return static_cast<std::uint64_t>(e.w);
  });
  res.total_weight = parlib::reduce_add(ws);
  return res;
}

}  // namespace gbbs
