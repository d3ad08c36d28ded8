// Spanning forests (Section 4, Biconnectivity). spanning_forest(): the
// connectivity labels pick one root per component, then a single
// simultaneous BFS from all roots builds a rooted forest in O(m) work and
// O(diam(G) log n) depth, and records its frontiers as the forest's levels,
// which biconnectivity schedules its leaffix and rootfix passes by.
// spanning_forest_ldd(): the unrooted forest that connectivity's own
// recursion implies, with no BFS.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "algorithms/bfs.h"
#include "algorithms/connectivity.h"
#include "graph/graph.h"
#include "parlib/random.h"

namespace gbbs {

struct spanning_forest_result {
  // parent[v]: BFS-tree parent; roots are their own parent; kNoVertex only
  // for vertices outside every component (cannot happen: every vertex is in
  // some component).
  std::vector<vertex_id> parents;
  std::vector<vertex_id> roots;            // one per component
  std::vector<vertex_id> component_label;  // connectivity labels
  // levels[d] = the vertices at forest depth d: the BFS's frontier d, as
  // recorded by the BFS itself.
  std::vector<std::vector<vertex_id>> levels;
};

template <typename Graph>
spanning_forest_result spanning_forest(const Graph& g) {
  spanning_forest_result res;
  res.component_label = connectivity(g);
  res.roots = component_representatives(res.component_label);
  res.parents = bfs_forest(g, res.roots, edge_map_direction::automatic,
                           &res.levels);
  return res;
}

// Forest edges (u, v) of g, one per tree edge, using only the connectivity
// machinery (no BFS) — the improvement Section 4 sketches ("the
// connectivity algorithm can be modified to compute a spanning forest in the
// same work and depth, which would avoid the breadth-first-search"). It is
// connectivity()'s own recursion with its forest out-pointer set (see
// connectivity.h): O(m) expected work and O(log^3 n) depth w.h.p., no
// diameter term.
template <typename Graph>
std::vector<std::pair<vertex_id, vertex_id>> spanning_forest_ldd(
    const Graph& g, double beta = 0.2,
    parlib::random rng = parlib::random(0x5f1dd)) {
  std::vector<std::pair<vertex_id, vertex_id>> forest;
  connectivity_internal::connectivity_rec(g, beta, rng, &forest);
  return forest;
}

// The forest's edges (child, parent), for verification and downstream use.
inline std::vector<std::pair<vertex_id, vertex_id>> forest_edges(
    const std::vector<vertex_id>& parents) {
  std::vector<std::pair<vertex_id, vertex_id>> all(parents.size());
  parlib::parallel_for(0, parents.size(), [&](std::size_t v) {
    all[v] = {static_cast<vertex_id>(v), parents[v]};
  });
  return parlib::filter(all, [](const auto& e) {
    return e.second != kNoVertex && e.first != e.second;
  });
}

}  // namespace gbbs
