// Breadth-first search (Algorithm 1): O(m) work, O(diam(G) log n) depth on
// the TS-MT-RAM. Vertices acquire unvisited neighbors with test-and-set.
// Also provides the multi-source parent-forest variant used by the
// Tarjan-Vishkin biconnectivity implementation (Section 4).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graph/edge_map.h"
#include "graph/graph.h"
#include "graph/vertex_subset.h"
#include "parlib/atomics.h"

namespace gbbs {

inline constexpr std::uint32_t kInfDist =
    std::numeric_limits<std::uint32_t>::max();

namespace bfs_internal {

struct bfs_f {
  std::vector<std::uint8_t>* visited;
  std::vector<std::uint32_t>* dist;
  std::uint32_t round;

  // Relaxed atomic read, since update_atomic's CAS may write the flag
  // concurrently; a stale answer only costs one extra update attempt.
  bool cond(vertex_id v) const {
    return std::atomic_ref<std::uint8_t>((*visited)[v]).load(
               std::memory_order_relaxed) == 0;
  }
  bool update(vertex_id, vertex_id v, auto) const {
    if (!(*visited)[v]) {
      (*visited)[v] = 1;
      (*dist)[v] = round;
      return true;
    }
    return false;
  }
  bool update_atomic(vertex_id, vertex_id v, auto) const {
    if (parlib::test_and_set(&(*visited)[v])) {
      (*dist)[v] = round;
      return true;
    }
    return false;
  }
};

struct bfs_tree_f {
  std::vector<vertex_id>* parent;
  bool cond(vertex_id v) const {
    return std::atomic_ref<vertex_id>((*parent)[v]).load(
               std::memory_order_relaxed) == kNoVertex;
  }
  bool update(vertex_id u, vertex_id v, auto) const {
    if ((*parent)[v] == kNoVertex) {
      (*parent)[v] = u;
      return true;
    }
    return false;
  }
  bool update_atomic(vertex_id u, vertex_id v, auto) const {
    return parlib::atomic_cas(&(*parent)[v], kNoVertex, u);
  }
};

}  // namespace bfs_internal

// Hop distances from src (kInfDist if unreachable).
template <typename Graph>
std::vector<std::uint32_t> bfs(
    const Graph& g, vertex_id src,
    edge_map_direction dir = edge_map_direction::automatic) {
  std::vector<std::uint8_t> visited(g.num_vertices(), 0);
  std::vector<std::uint32_t> dist(g.num_vertices(), kInfDist);
  visited[src] = 1;
  dist[src] = 0;
  vertex_subset frontier(g.num_vertices(), src);
  std::uint32_t round = 0;
  while (!frontier.empty()) {
    ++round;
    frontier = edge_map(
        g, frontier,
        bfs_internal::bfs_f{&visited, &dist, round}, dir);
  }
  return dist;
}

// Multi-source BFS forest: parent[v] = BFS-tree parent, parent[root] = root,
// parent[unreached] = kNoVertex. Roots form the initial frontier. If
// `levels` is given, (*levels)[d] receives frontier d, i.e. the vertices at
// forest depth d.
template <typename Graph>
std::vector<vertex_id> bfs_forest(
    const Graph& g, const std::vector<vertex_id>& roots,
    edge_map_direction dir = edge_map_direction::automatic,
    std::vector<std::vector<vertex_id>>* levels = nullptr) {
  std::vector<vertex_id> parent(g.num_vertices(), kNoVertex);
  for (const vertex_id r : roots) parent[r] = r;
  vertex_subset frontier(g.num_vertices(), roots);
  while (!frontier.empty()) {
    auto next = edge_map(g, frontier, bfs_internal::bfs_tree_f{&parent}, dir);
    if (levels) {
      frontier.to_sparse();
      levels->push_back(frontier.sparse());
    }
    frontier = std::move(next);
  }
  return parent;
}

}  // namespace gbbs
