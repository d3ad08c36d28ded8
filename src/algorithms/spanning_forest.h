// Spanning forest via connectivity + multi-source BFS (Section 4,
// Biconnectivity): connectivity labels pick one root per component, then a
// single simultaneous BFS from all roots builds a rooted forest in O(m)
// work and O(diam(G) log n) depth.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "algorithms/bfs.h"
#include "algorithms/connectivity.h"
#include "algorithms/ldd.h"
#include "graph/contraction.h"
#include "graph/graph.h"

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

// Spanning forest extracted directly from the connectivity recursion —
// the improvement Section 4 sketches ("the connectivity algorithm can be
// modified to compute a spanning forest in the same work and depth, which
// would avoid the breadth-first-search"). Each LDD level contributes its
// ball-growing parent edges (a spanning tree of every cluster); contraction
// keeps one representative original edge per quotient edge, so the forest
// of the recursively-solved quotient maps back to original edges. Runs in
// O(m) expected work and O(log^3 n) depth w.h.p. — no diameter term.
namespace spanning_forest_internal {

template <typename Graph>
void ldd_forest_rec(const Graph& g, double beta, parlib::random rng,
                    std::vector<std::pair<vertex_id, vertex_id>>& out,
                    // maps this level's edges to root-level edges; null at
                    // the top level (identity).
                    const std::function<std::pair<vertex_id, vertex_id>(
                        vertex_id, vertex_id)>& to_original) {
  const vertex_id n = g.num_vertices();
  std::vector<vertex_id> parents;
  auto clusters = ldd(g, beta, rng, &parents);
  for (vertex_id v = 0; v < n; ++v) {
    if (parents[v] != kNoVertex) {
      out.push_back(to_original ? to_original(v, parents[v])
                                : std::make_pair(v, parents[v]));
    }
  }
  auto con = contract(g, clusters, /*keep_representatives=*/true);
  if (con.quotient.num_edges() == 0) return;
  const double next_beta =
      con.quotient.num_vertices() == n ? beta * 0.5 : beta;
  // Quotient edge -> this level's original endpoints -> root level.
  auto lift = [&, to_original](vertex_id qu,
                               vertex_id qv) -> std::pair<vertex_id, vertex_id> {
    auto [a, b] = con.representative(qu, qv);
    return to_original ? to_original(a, b) : std::make_pair(a, b);
  };
  ldd_forest_rec(con.quotient, next_beta, rng.next(), out, lift);
}

}  // namespace spanning_forest_internal

// Forest edges (u, v) of g, one per tree edge, using only the connectivity
// machinery (no BFS).
template <typename Graph>
std::vector<std::pair<vertex_id, vertex_id>> spanning_forest_ldd(
    const Graph& g, double beta = 0.2,
    parlib::random rng = parlib::random(0x5f1dd)) {
  std::vector<std::pair<vertex_id, vertex_id>> out;
  spanning_forest_internal::ldd_forest_rec(g, beta, rng, out, nullptr);
  return out;
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
