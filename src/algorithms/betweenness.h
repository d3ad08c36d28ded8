// Single-source betweenness centrality (Algorithm 3, Brandes): O(m) work
// and O(diam(G) log n) depth on the FA-MT-RAM. A forward BFS accumulates
// shortest-path counts with fetch-and-add, saving each frontier; the
// backward sweep replays the frontiers deepest-first, accumulating
// dependencies. Input is an undirected graph (per the benchmark spec).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/edge_map.h"
#include "graph/graph.h"
#include "graph/vertex_subset.h"
#include "parlib/atomics.h"

namespace gbbs {

namespace bc_internal {

struct path_f {
  std::vector<double>* num_paths;
  std::vector<std::uint8_t>* visited;

  bool cond(vertex_id v) const { return !(*visited)[v]; }
  bool update(vertex_id u, vertex_id v, auto) const {
    const double prev = (*num_paths)[v];
    (*num_paths)[v] += (*num_paths)[u];
    return prev == 0.0;
  }
  bool update_atomic(vertex_id u, vertex_id v, auto) const {
    return parlib::atomic_add(&(*num_paths)[v], (*num_paths)[u]) == 0.0;
  }
};

struct dependency_f {
  std::vector<double>* num_paths;
  std::vector<double>* dependencies;
  std::vector<std::uint8_t>* visited;

  bool cond(vertex_id v) const { return !(*visited)[v]; }
  bool update(vertex_id u, vertex_id v, auto) const {
    (*dependencies)[v] +=
        (*num_paths)[v] / (*num_paths)[u] * (1.0 + (*dependencies)[u]);
    return true;
  }
  bool update_atomic(vertex_id u, vertex_id v, auto) const {
    parlib::atomic_add(
        &(*dependencies)[v],
        (*num_paths)[v] / (*num_paths)[u] * (1.0 + (*dependencies)[u]));
    return true;
  }
};

}  // namespace bc_internal

// Dependency scores (centrality contribution of all src-t shortest paths).
template <typename Graph>
std::vector<double> betweenness(
    const Graph& g, vertex_id src,
    edge_map_direction dir = edge_map_direction::automatic) {
  const vertex_id n = g.num_vertices();
  std::vector<double> num_paths(n, 0.0), dependencies(n, 0.0);
  std::vector<std::uint8_t> visited(n, 0);
  num_paths[src] = 1.0;
  visited[src] = 1;

  std::vector<vertex_subset> levels;
  vertex_subset frontier(n, src);
  while (!frontier.empty()) {
    frontier = edge_map(
        g, frontier, bc_internal::path_f{&num_paths, &visited}, dir);
    frontier.to_sparse();
    vertex_map(frontier, [&](vertex_id v) { visited[v] = 1; });
    levels.push_back(frontier);
  }

  // Backward sweep: deepest level first; a level is marked visited before
  // its edges fire so contributions only flow to strictly shallower levels.
  parlib::parallel_for(0, n, [&](std::size_t v) { visited[v] = 0; });
  for (std::size_t round = levels.size(); round-- > 0;) {
    vertex_subset& f = levels[round];
    vertex_map(f, [&](vertex_id v) { visited[v] = 1; });
    edge_map(g, f,
             bc_internal::dependency_f{&num_paths, &dependencies, &visited},
             dir);
  }
  dependencies[src] = 0.0;
  return dependencies;
}

}  // namespace gbbs
