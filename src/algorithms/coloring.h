// Graph coloring (Algorithm 12): synchronous Jones-Plassmann with the LLF
// (largest-log-degree-first) heuristic of Hasenplaugh et al., O(m + n) work
// and O(L log Delta + log n) depth on the FA-MT-RAM. The LF
// (largest-degree-first) heuristic is the alternative order; its only
// caller outside the tests is algorithms/stats.h.
//
// The order (a higher heuristic key first, then a vertex's random priority,
// a hash of its id) defines the priority DAG of priority_dag.h. Roots color
// themselves with the smallest color absent from their neighborhood, then
// release their later neighbors with fetch-and-add.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "algorithms/priority_dag.h"
#include "graph/graph.h"
#include "graph/vertex_subset.h"
#include "parlib/atomics.h"
#include "parlib/parallel.h"
#include "parlib/random.h"
#include "parlib/sequence_ops.h"

namespace gbbs {

enum class coloring_heuristic { llf, lf };

namespace coloring_internal {

// The coloring order as priorities: a higher heuristic key first, then a
// lower random priority, then (priority_dag's tie rule) a lower id. The
// last two are the order of parlib::random_permutation(n, rng).
// (~key, random) packs the first two into one word. The LLF key
// ceil(log2(d + 1)) is bit_width(d).
template <typename Graph>
std::vector<std::uint64_t> order(const Graph& g, coloring_heuristic heuristic,
                                 parlib::random rng) {
  return parlib::tabulate<std::uint64_t>(g.num_vertices(), [&](std::size_t v) {
    const vertex_id d = g.out_degree(static_cast<vertex_id>(v));
    const std::uint32_t key =
        heuristic == coloring_heuristic::llf ? std::bit_width(d) : d;
    return (std::uint64_t{~key} << 32) |
           static_cast<std::uint32_t>(rng.ith_rand(v));
  });
}

// Smallest color not used by any neighbor: deg+1 candidates suffice. The
// accesses are atomic because the asynchronous schedule colors neighbors
// concurrently.
template <typename Graph>
void assign_color(const Graph& g, std::vector<vertex_id>& color,
                  vertex_id v) {
  const std::size_t deg = g.out_degree(v);
  std::vector<std::uint8_t> used(deg + 1, 0);
  g.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id u, auto) {
    const vertex_id c = parlib::atomic_load(&color[u]);
    if (c != kNoVertex && c <= deg) used[c] = 1;
    return true;
  });
  const auto c = std::find(used.begin(), used.end(), 0) - used.begin();
  parlib::atomic_store(&color[v], static_cast<vertex_id>(c));
}

// Colors the ready vertices as a balanced fork-join tree; each one then
// colors, in turn, the neighbors it releases.
template <typename Graph, typename Dag>
void async_color(const Graph& g, Dag& dag, std::vector<vertex_id>& color,
                 const std::vector<vertex_id>& ready) {
  parlib::parallel_for(0, ready.size(), [&](std::size_t i) {
    const vertex_id v = ready[i];
    assign_color(g, color, v);
    std::vector<vertex_id> next;
    g.map_out_neighbors_early_exit(v, [&](vertex_id, vertex_id u, auto) {
      if (dag.release(v, u)) next.push_back(u);
      return true;
    });
    async_color(g, dag, color, next);
  }, 1);
}

}  // namespace coloring_internal

// Returns colors in [0, Delta + 1).
template <typename Graph>
std::vector<vertex_id> color_graph(const Graph& g,
                                   coloring_heuristic heuristic =
                                       coloring_heuristic::llf,
                                   parlib::random rng = parlib::random(
                                       0xc01)) {
  priority_dag dag(g, coloring_internal::order(g, heuristic, rng));
  std::vector<vertex_id> color(g.num_vertices(), kNoVertex);
  dag.run([&](vertex_subset& roots) {
    vertex_map(roots, [&](vertex_id v) {
      coloring_internal::assign_color(g, color, v);
    });
    return std::move(roots);
  });
  return color;
}

// Asynchronous Jones-Plassmann (the Hasenplaugh et al. execution model the
// paper compares its synchronous implementation against in Section 6,
// reporting the synchronous version 1.2-1.6x slower "due to synchronizing
// on many rounds which contain few vertices"). Instead of global rounds, a
// vertex is colored by whichever task decrements its priority counter to
// zero, which then recursively activates its newly-ready neighbors via
// fork-join — no barriers. The activation DAG has the same O(L log Delta)
// depth, so the bounds are unchanged.
template <typename Graph>
std::vector<vertex_id> color_graph_async(const Graph& g,
                                         coloring_heuristic heuristic =
                                             coloring_heuristic::llf,
                                         parlib::random rng = parlib::random(
                                             0xc01)) {
  priority_dag dag(g, coloring_internal::order(g, heuristic, rng));
  std::vector<vertex_id> color(g.num_vertices(), kNoVertex);
  coloring_internal::async_color(g, dag, color, dag.roots());
  return color;
}

// Number of colors used (max color + 1).
inline vertex_id num_colors(const std::vector<vertex_id>& colors) {
  if (colors.empty()) return 0;
  auto mx = parlib::reduce(colors, parlib::max_monoid<vertex_id>());
  return mx == kNoVertex ? 0 : mx + 1;
}

}  // namespace gbbs
